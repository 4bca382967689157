"""P1 finite element assembly on intrinsic meshes.

Stiffness is the cotangent matrix (mu-independent: Dirichlet energy is a
conformal invariant in 2D); mass carries the per-vertex conformal density.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import TriangleMesh


class DensityError(ValueError):
    """Density violates its box or mass constraints."""


@dataclass(frozen=True)
class DensityField:
    """Per-vertex conformal density with unit total mass.

    floor/cap are the actual per-vertex bounds (None = unconstrained, used for
    raw diagnostic candidates such as recovered densities).
    """
    mesh: TriangleMesh
    values: np.ndarray
    floor: float | None = None
    cap: float | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.vertex_count,):
            raise DensityError("density must have one value per vertex")
        slack = 1e-9
        if self.floor is not None and np.any(vals < self.floor - slack):
            raise DensityError(f"density below floor {self.floor}")
        if self.cap is not None and np.any(vals > self.cap + slack):
            raise DensityError(f"density above cap {self.cap}")
        m = self.mass()
        if abs(m - 1.0) > 1e-10:
            raise DensityError(f"density mass {m} != 1")

    def mass(self):
        """Integral of the P1 density over the mesh (exact quadrature)."""
        return float(self.mesh.vertex_areas @ self.values)


def density_mass(mesh, values):
    """Exact P1 integral of a raw per-vertex field."""
    return float(mesh.vertex_areas @ np.asarray(values, dtype=float))


def uniform_density(mesh, floor=None, cap=None):
    return DensityField(mesh, np.full(mesh.vertex_count, 1.0 / mesh.area), floor, cap)


def random_density(mesh, seed, lo=0.5, hi=1.5, floor=None, cap=None):
    """Random density, values in [lo, hi]/A before mass renormalization."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, mesh.vertex_count) / mesh.area
    vals /= density_mass(mesh, vals)
    return DensityField(mesh, vals, floor, cap)


@dataclass(frozen=True)
class StiffnessMatrix:
    matrix: sparse.csr_matrix


@dataclass(frozen=True)
class MassMatrix:
    matrix: sparse.csr_matrix
    psd_blocks: bool   # every element block is PSD, hence so is the matrix


def assemble_stiffness(mesh):
    """Cotangent stiffness: K_ij = -(cot a + cot b)/2 on edges, zero row sums."""
    cot = mesh.cotangents
    # warn on nearly degenerate corners (angle below ~1e-8 rad => huge cot)
    thin = np.nonzero(np.abs(cot).max(axis=1) > 1.0 / 1e-8)[0]
    if thin.size:
        warnings.warn(f"near-degenerate triangles: {thin.tolist()}", RuntimeWarning)
    tri = mesh.triangles
    V = mesh.vertex_count
    rows, cols, vals = [], [], []
    for c, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
        w = 0.5 * cot[:, c]
        rows += [tri[:, a], tri[:, b], tri[:, a], tri[:, b]]
        cols += [tri[:, b], tri[:, a], tri[:, a], tri[:, b]]
        vals += [-w, -w, w, w]
    K = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V)).tocsr()
    K.sum_duplicates()
    return StiffnessMatrix(K)


def _element_blocks_psd(m):
    """True when every consistent element mass block is PSD, up to round-off.

    For corner densities m the block is proportional to D + O, with diagonal
    4 m_a + 2 sum(m) and off-diagonal m_a + m_b + sum(m); a symmetric matrix
    is PSD iff all its principal minors are >= 0. Rows are scaled by max |m|,
    so the round-off allowance is relative.
    """
    s = np.abs(m).max(axis=1, keepdims=True)
    m = m / np.where(s > 0, s, 1.0)
    tot = m.sum(axis=1)
    d0, d1, d2 = (4.0 * m + 2.0 * tot[:, None]).T
    o01, o02, o12 = (m[:, a] + m[:, b] + tot for a, b in ((0, 1), (0, 2), (1, 2)))
    minors = (d0, d1, d2, d0 * d1 - o01 ** 2, d0 * d2 - o02 ** 2, d1 * d2 - o12 ** 2,
              d0 * d1 * d2 + 2.0 * o01 * o02 * o12
              - d0 * o12 ** 2 - d1 * o02 ** 2 - d2 * o01 ** 2)
    return all(bool(np.all(x >= -1e-12)) for x in minors)


def assemble_mass(mesh, density):
    """Mass matrix for the P1 density (DensityField or raw per-vertex array).

    Integrates hat x hat x (P1 density) exactly per triangle. A signed
    density gets an O(F) semidefiniteness test per element block, recorded
    in psd_blocks.
    """
    mu = density.values if isinstance(density, DensityField) else np.asarray(density, float)
    tri = mesh.triangles
    A = mesh.areas
    m = mu[tri]  # (F, 3) corner densities
    V = mesh.vertex_count
    rows, cols, vals = [], [], []
    tot = m.sum(axis=1)
    for a in range(3):
        # int phi_a phi_a (sum mu_c phi_c) = (A/60)(6 mu_a + 2 mu_b + 2 mu_c)
        rows.append(tri[:, a])
        cols.append(tri[:, a])
        vals.append((A / 60.0) * (4.0 * m[:, a] + 2.0 * tot))
        for b in range(a + 1, 3):
            # int phi_a phi_b (sum mu_c phi_c) = (A/60)(2 mu_a + 2 mu_b + mu_c)
            v = (A / 60.0) * (m[:, a] + m[:, b] + tot)
            rows += [tri[:, a], tri[:, b]]
            cols += [tri[:, b], tri[:, a]]
            vals += [v, v]
    M = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(V, V)).tocsr()
    M.sum_duplicates()
    psd = bool(mu.min() >= 0.0) or _element_blocks_psd(m)
    return MassMatrix(M, psd)


def gradient_field(mesh, U):
    """Squared P1 gradient of a per-vertex field, or summed over a block.

    U is one (V,) field or a (V, k) block of fields; for a block the result
    is the column sum sum_i |grad u_i|^2. Returns (per-triangle value,
    per-vertex area-weighted average). Computed intrinsically:
    u^T K_elem u / A_elem per triangle.
    """
    uv = np.asarray(U, dtype=float).reshape(mesh.vertex_count, -1)[mesh.triangles]
    energy = sum(0.5 * mesh.cotangents[:, c] * ((uv[:, a] - uv[:, b]) ** 2).sum(axis=1)
                 for c, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))))
    vert = np.bincount(mesh.triangles.ravel(), weights=np.repeat(energy / 3.0, 3),
                       minlength=mesh.vertex_count)
    return energy / mesh.areas, vert / mesh.vertex_areas


def export_matrix_market(matrix, path):
    """Dump a sparse matrix as a MatrixMarket coordinate file."""
    from scipy.io import mmwrite
    mmwrite(str(path), matrix if sparse.issparse(matrix) else matrix.matrix)
