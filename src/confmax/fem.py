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
        vals = _vertex_values(self.mesh, self.values)
        object.__setattr__(self, "values", vals)
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


def _vertex_values(mesh, values):
    """values as a contiguous float array, a DensityError unless one finite value per vertex."""
    vals = np.ascontiguousarray(values, dtype=float)
    if vals.shape != (mesh.vertex_count,) or not np.all(np.isfinite(vals)):
        raise DensityError(f"density must hold {mesh.vertex_count} finite values, one per vertex")
    return vals


def uniform_density(mesh):
    return DensityField(mesh, np.full(mesh.vertex_count, 1.0 / mesh.area))


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
        return self._grounded_gather[0], cholesky_banded(upper_band(self.grounded(self.matrix)))

    @cached_property
    def _grounded_gather(self):
        """(order, take, indices, indptr): the RCM order and its grounded CSR plan.

        Found once by sending entry numbers through the fancy indexing that
        grounded() replaces, so the planned matrix has its pattern exactly.
        """
        K = self.matrix
        order = 1 + reverse_cuthill_mckee(K[1:, 1:], symmetric_mode=True)
        slots = sparse.csr_matrix((np.arange(K.nnz), K.indices, K.indptr),
                                  shape=K.shape)[order][:, order]
        return order, slots.data, slots.indices, slots.indptr

    def grounded(self, matrix):
        """matrix[order][:, order] for the factor's order, by one gather.

        matrix must be on K's CSR pattern, as every assemble_mass matrix of
        the mesh is: both are assembled into the mesh's element_slots.
        Another pattern, such as another mesh's, is a ValueError.
        """
        K = self.matrix
        if not (np.array_equal(matrix.indptr, K.indptr)
                and np.array_equal(matrix.indices, K.indices)):
            raise ValueError("mass and stiffness matrices are not on one mesh's pattern")
        _, take, indices, indptr = self._grounded_gather
        n = len(indptr) - 1
        return sparse.csr_matrix((matrix.data[take], indices, indptr), shape=(n, n))


def upper_band(P):
    """P's upper triangle in LAPACK band storage: row u + i - j of column j holds P_ij."""
    P = P.tocoo()
    upper = P.row <= P.col
    i, j = P.row[upper], P.col[upper]
    u = int((j - i).max())
    band = np.zeros((u + 1, P.shape[0]))
    band[u + i - j, j] = P.data[upper]
    return band


@dataclass(frozen=True)
class MassMatrix:
    matrix: sparse.csr_matrix
    nonnegative: bool  # no negative density: every element block is PSD, so M is


_EDGES = ((1, 2), (0, 2), (0, 1))  # the corners of the edge opposite corner c


# Element bases, [c, 3 a + b]: an (F, 3) array of per-corner weights times a
# basis is the triangles' (F, 9) row-major element matrices. Stiffness: the
# block (e_a - e_b)(e_a - e_b)^T / 2 of the edge (a, b) opposite corner c,
# weighted by cot_c. Mass: 60/A int phi_a phi_b phi_c dA =
# (1 + [a = b])(1 + [c = a] + [c = b]), weighted by mu_c A/60, so the sum over
# c integrates phi_a phi_b (sum_c mu_c phi_c) exactly.
_STIFFNESS_BASIS = np.array([0.5 * np.outer(d, d) for d in
                             (np.eye(3)[a] - np.eye(3)[b] for a, b in _EDGES)]).reshape(3, 9)
_MASS_BASIS = np.array([(1.0 + np.eye(3)) * (1.0 + np.add.outer(e, e))
                        for e in np.eye(3)]).reshape(3, 9)


def _assemble(mesh, element):
    """Sum (F, 9) row-major element matrices into one CSR matrix on the mesh's pattern.

    One bincount into mesh.element_slots: entries summing to zero are kept,
    so every matrix of the mesh has the same indices and indptr.
    """
    slots, indices, indptr = mesh.element_slots
    data = np.bincount(slots.ravel(), weights=element.ravel(), minlength=len(indices))
    V = mesh.vertex_count
    return sparse.csr_matrix((data, indices, indptr), shape=(V, V))


def assemble_stiffness(mesh):
    """Cotangent stiffness: K_ij = -(cot a + cot b)/2 on edges, zero row sums."""
    cot = mesh.cotangents
    # warn on nearly degenerate corners (angle below ~1e-8 rad => huge cot)
    thin = np.nonzero(np.abs(cot).max(axis=1) > 1.0 / 1e-8)[0]
    if thin.size:
        warnings.warn(f"near-degenerate triangles: {thin.tolist()}", RuntimeWarning)
    return StiffnessMatrix(_assemble(mesh, cot @ _STIFFNESS_BASIS))


def assemble_mass(mesh, density):
    """Mass matrix for the P1 density (DensityField or raw per-vertex array).

    Integrates hat x hat x (P1 density) exactly per triangle. A raw array need
    not have unit mass, but must be (V,) and finite. Only a density with a
    negative value can make M indefinite; solve_pencil tests the sign of such
    an M with one banded Cholesky factorization.
    """
    mu = density.values if isinstance(density, DensityField) else _vertex_values(mesh, density)
    corner = mu[mesh.triangles] * (mesh.areas / 60.0)[:, None]
    return MassMatrix(_assemble(mesh, corner @ _MASS_BASIS), bool(mu.min() >= 0.0))


def gradient_field(mesh, U):
    """Squared P1 gradient of a per-vertex field, or summed over a block.

    U is one (V,) field or a (V, k) block of fields; for a block the result
    is the column sum sum_i |grad u_i|^2. Returns (per-triangle value,
    per-vertex area-weighted average). Computed intrinsically:
    u^T K_elem u / A_elem per triangle.
    """
    uv = np.asarray(U, dtype=float).reshape(mesh.vertex_count, -1)[mesh.triangles]
    energy = sum(0.5 * mesh.cotangents[:, c] * ((uv[:, a] - uv[:, b]) ** 2).sum(axis=1)
                 for c, (a, b) in enumerate(_EDGES))
    vert = np.bincount(mesh.triangles.ravel(), weights=np.repeat(energy / 3.0, 3),
                       minlength=mesh.vertex_count)
    return energy / mesh.areas, vert / mesh.vertex_areas
