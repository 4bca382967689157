"""P1 finite element assembly on intrinsic meshes.

Stiffness is the cotangent matrix (mu-independent: Dirichlet energy is a
conformal invariant in 2D), so it also holds the mesh's one banded Cholesky
factor; mass carries the per-vertex conformal density.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee

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


def uniform_density(mesh, floor=None, cap=None):
    return DensityField(mesh, np.full(mesh.vertex_count, 1.0 / mesh.area), floor, cap)


def random_density(mesh, seed):
    """Random density, values in [0.5, 1.5]/A before mass renormalization."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, mesh.vertex_count) / mesh.area
    vals /= mesh.vertex_areas @ vals
    return DensityField(mesh, vals)


@dataclass(frozen=True)
class StiffnessMatrix:
    """Cotangent stiffness K, its grounded factor and its grounded gather.

    K's null space is the constants of a connected mesh, so K without vertex
    0's row and column is positive definite. Its factor, built on the first
    pencil solve, serves every solve on the mesh: the stiffness does not
    depend on the density. The mass matrices of the mesh share K's pattern,
    so the gather that grounds and reorders one is planned once here too.
    """
    matrix: sparse.csr_matrix

    @cached_property
    def grounded_factor(self):
        """(order, band): the banded Cholesky factor of the grounded K.

        order lists vertices 1..V-1 in reverse Cuthill-McKee order (George and
        Liu, 1981), and band holds the upper factor R, R^T R =
        K[order][:, order], in LAPACK band storage: row u + i - j of column j
        holds R_ij. The bandwidth u grows like sqrt(V) on icospheres and flat
        tori (u = 161 at icosphere 5), so the band's V (u + 1) doubles and the
        4 V u flops of a solve with R^T R grow like V^1.5, faster than a
        sparse LU's fill. Measured on one core, the band wins on every
        benchmark mesh and up to icosphere 5 (V = 10242: 13 MB and 1.3 ms per
        grounded solve, against 16 MB and 3.0 ms for scipy's splu), but loses
        at icosphere 6 (106 MB and 20 ms against 84 MB and 14 ms) and on the
        n = 96 equilateral torus (21 MB and 2.1 ms against 16 MB and 1.7 ms).
        """
        grounded = self.matrix[1:, 1:]
        order = reverse_cuthill_mckee(grounded, symmetric_mode=True)
        P = grounded[order][:, order].tocoo()
        upper = P.row <= P.col
        i, j = P.row[upper], P.col[upper]
        u = int((j - i).max())
        band = np.zeros((u + 1, grounded.shape[0]))
        band[u + i - j, j] = P.data[upper]
        return 1 + order, cholesky_banded(band)

    @cached_property
    def _grounded_gather(self):
        """(take, indices, indptr) of the grounded, reordered CSR pattern.

        Found once by sending entry numbers through the fancy indexing that
        grounded() replaces, so the planned matrix has its pattern exactly.
        """
        order = self.grounded_factor[0]
        K = self.matrix
        slots = sparse.csr_matrix((np.arange(K.nnz), K.indices, K.indptr),
                                  shape=K.shape)[order][:, order]
        return slots.data, slots.indices, slots.indptr

    def grounded(self, matrix):
        """matrix[order][:, order] for the factor's order, by one gather.

        matrix must be on K's CSR pattern, as every assemble_mass matrix of
        the mesh is: both sum the same element blocks and keep zero sums.
        """
        take, indices, indptr = self._grounded_gather
        n = len(indptr) - 1
        return sparse.csr_matrix((matrix.data[take], indices, indptr), shape=(n, n))


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
    mmwrite(str(path), matrix)
