"""Generalized symmetric pencil K u = lambda M u: smallest nonzero eigenpairs.

The stiffness K does not depend on the density (the Dirichlet energy is a
conformal invariant), so every solve on a mesh uses one factor: the banded
Cholesky factor R of K grounded at vertex 0 in reverse Cuthill-McKee order,
R^T R = P^T K_g P, built on the first solve and held by the StiffnessMatrix.
The grounded matrix is positive definite because meshes are connected. With

    Z y = Q E P R^-1 y[1:],    m = M 1,    Q = I - 1 m^T / (1^T m),

where E pads vertex 0 with a zero, Z Z^T = Q K+ Q^T with K+ b the grounded
solve. Lanczos runs in ARPACK's standard mode (Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, 1998) on the symmetric positive semidefinite

    S = Z^T M Z,

one application of which is a triangular solve with R, an M product and a
triangular solve with R^T. Since 1^T M 1 = 1^T m,

    Q^T M Q = M - m m^T / (1^T m),

so an application needs no projection of vectors: M and m, without vertex
0 and in the factor's order once per solve, give the product and a rank-one
update between the two solves. For every y, Z S y = (Q K+ Q^T M) Z y, and
Q K+ Q^T M is an operator of the spectral transformation Lanczos method
(Ericsson and Ruhe, 1980): an eigenpair S y = y / lambda lifts to the pencil
eigenvector u = Z y. Q^T makes the right-hand side sum to zero, so the
grounded solve solves K z = Q^T M x, and Q fixes the constant the grounding
leaves free by m^T z = 0. An eigenpair (lambda > 0, u) has
m^T u = 1^T K u / lambda = 0, hence Q^T M u = M u: the largest eigenvalues
of S are exactly the 1/lambda_i, and the constant is deflated by
construction, so no Lanczos slot is spent on it. Pinning a vertex instead
would change the pencil.

S is symmetric in the Euclidean inner product, so ARPACK asks for no mass
products: in generalized mode it takes about three per application of its
operator, to keep the Lanczos basis M-orthonormal. Here each pass's Ritz
vectors are lifted by Z, and the merged block is made M-orthonormal once,
after Lanczos.

Slot 0 of y is dead: Z ignores it and S maps it to 0, so S keeps the size V
of the pencil, a start vector has V entries and k may reach V - 1, the
number of nonzero eigenvalues. The dead slot only adds a zero eigenvalue
below every wanted one.

Vertices where the density vanishes stay in the pencil. Their rows of M are
zero and so are their entries of m. A lifted eigenvector u = Z y = lambda Z S y
= lambda Q K+ Q^T M u solves K u = lambda Q^T M u = lambda M u on every row,
so (K u)_e = 0 on such a row e: the eigenvectors are harmonic there, the weak
form of -Delta u = lambda mu u where mu = 0.

A density with negative values, which the floor -1/2 box admits, can make
M indefinite, and the pencil then means nothing. In the basis {1, e_1, ...,
e_(V-1)}, M is congruent to [[1^T m, m_g^T], [m_g, M_g]], with M_g and m_g
the rows of M and m of vertices 1..V-1. With 1^T m > 0, Sylvester's law of
inertia (Parlett, The Symmetric Eigenvalue Problem, 1980) makes M PSD
exactly when M_g - m_g m_g^T / (1^T m) is, the matrix that S applies between
its two triangular solves: S is PSD exactly when M is. M_g has K's band, so
one banded Cholesky factorization and one solve decide the sign: that Schur
complement has no eigenvalue at or below -tau exactly when M_g + tau I has
a factor and m_g^T (M_g + tau I)^-1 m_g < 1^T m.

Each solve runs two Lanczos passes from independent start vectors, merged by
Rayleigh-Ritz: single-vector Lanczos can return an incomplete basis of a
degenerate eigenvalue, and the mesh symmetries here produce exact
multiplicities routinely. For k >= 2 the Krylov dimension is max(2k + 3, 20),
ARPACK's default for k + 1 pairs rather than for k: the frame and the
certificate read the whole leading cluster, and the smaller space,
max(2k + 1, 20) from k = 9 on, makes an incomplete basis of a degenerate
cluster likelier (a variant of this method with it missed one copy of the
5-fold second cluster of icosphere 3, k = 9, seed 0). A k = 1 solve, a
line-search trial, reads lambda_1 alone and runs in a space of
LAMBDA1_KRYLOV = 8. ARPACK tests convergence only once it has built a full
factorization, so a pass takes at least ncv + 1 applications. Where lambda_1
stands well apart from the rest of the spectrum as one start vector sees it
(at the uniform fixed points a degenerate lambda_1 shows it a single copy),
Lanczos converges in far fewer than 20 steps, and the space of 8 halves the
work: 18-34 applications per solve against 42-92. The floor is not dropped
altogether: with 2k + 3 = 5 vectors a restart keeps too little of the space
to resolve a nearly split cluster, and Lanczos stagnates on the trials of a
tilted icosphere 3, up to 4800 applications per solve against 42. Over the
trials of the benchmark workloads and of icospheres 2-3 and flat tori
n = 16-24, the space of 8 takes at most 1.48x the applications of the space
of 20 on any solve, and 7% fewer in total.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.linalg import LinearOperator, eigsh

from .fem import upper_band


class EigenError(RuntimeError):
    pass


class IndefiniteMassError(EigenError):
    pass


DEFAULT_REL_GAP = 0.02
LANCZOS_TOL = 1e-10  # ARPACK relative accuracy of each Ritz value
LAMBDA1_KRYLOV = 8  # Krylov dimension of a k = 1 solve (module docstring)


@dataclass(frozen=True)
class SpectralResult:
    """Pencil eigenpairs above the deflated zero mode.

    eigenvalues are the pencil values; with a unit-mass density they equal the
    scale-invariant product (first eigenvalue) x (conformal area).
    """
    eigenvalues: np.ndarray          # (k,) ascending, positive
    eigenvectors: np.ndarray         # (V, k), M-orthonormal
    residuals: np.ndarray            # (k,) relative residuals
    clusters: tuple                  # partition of range(k) by relative gap
    applications: int                # operator applications, both passes

    @property
    def lambda1(self):
        return float(self.eigenvalues[0])

    def cluster_basis(self, which=0):
        return self.eigenvectors[:, list(self.clusters[which])]


def cluster_eigenvalues(lam, rel_gap=DEFAULT_REL_GAP):
    """Greedy partition of sorted positive eigenvalues by relative gap."""
    lam = np.asarray(lam, dtype=float)
    if len(lam) == 0:
        return ()
    groups = [[0]]
    for i in range(1, len(lam)):
        if (lam[i] - lam[i - 1]) / lam[i - 1] < rel_gap:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def _standard_operator(K, M):
    """(S, lift, calls): S = Z^T M Z as a LinearOperator and lift(y) = Z y.

    y is one vector or a block of V rows; row 0 is the dead slot. Q^T M Q =
    M - m m^T / (1^T m), so with M_g and m_g the rows and columns of M and m
    of vertices 1..V-1 in the factor's order (gathered once per operator by
    K.grounded),

        S y = [0; R^-T (M_g z - m_g (m_g^T z) / (1^T m))],   z = R^-1 y[1:]:

    two triangular solves, one sparse product and a rank-one update, with no
    scatter, gather or zero-fill. calls[0] counts the applications. A signed
    density's M that is not PSD up to tau = 1e-12 max |diag M| (module
    docstring) is an IndefiniteMassError.
    """
    order, band = K.grounded_factor
    Mmat = M.matrix
    n = Mmat.shape[0]
    m = np.asarray(Mmat.sum(axis=1)).ravel()  # M 1
    mass = m.sum()
    Mg, mg = K.grounded(Mmat), m[order]
    if not M.nonnegative:
        band_m = upper_band(Mg)
        band_m[-1] += 1e-12 * abs(Mmat.diagonal()).max()
        try:
            psd = mg @ cho_solve_banded((cholesky_banded(band_m), False), mg) < mass
        except np.linalg.LinAlgError:  # M_g + tau I is not positive definite
            psd = False
        if not psd:
            raise IndefiniteMassError(
                "indefinite mass; reduce negative density or use floor=0")
    calls = [0]

    def lift(y):  # Q E P R^-1 y[1:]
        x = np.zeros(y.shape)
        x[order] = dtbtrs(band, y[1:])[0]
        return x - (m @ x) / mass

    def apply(y):  # Z^T M Z y
        calls[0] += 1
        z = dtbtrs(band, y[1:])[0]
        out = np.empty(n)
        out[0] = 0.0
        out[1:] = dtbtrs(band, Mg @ z - mg * ((mg @ z) / mass), trans="T")[0]
        return out

    return LinearOperator((n, n), matvec=apply, dtype=float), lift, calls


def solve_pencil(K, M, k, rel_gap=DEFAULT_REL_GAP, seed=0):
    """k smallest eigenpairs of K u = lambda M u above the deflated zero mode.

    K is a StiffnessMatrix and M a MassMatrix. k may be at most V - 1, the
    number of nonzero eigenvalues.
    """
    Kmat, Mmat = K.matrix, M.matrix
    n = Kmat.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be between 1 and {n - 1} (V - 1), got {k}")

    try:
        S, lift, calls = _standard_operator(K, M)
    except np.linalg.LinAlgError as exc:  # grounded K not positive definite
        raise EigenError(f"pencil solve failed: {exc}") from exc
    ncv = min(n, LAMBDA1_KRYLOV if k == 1 else max(2 * k + 3, 20))
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(2):
        v0 = rng.standard_normal(n)
        try:
            _, y = eigsh(S, k=k, which="LA", v0=v0, ncv=ncv, tol=LANCZOS_TOL,
                         maxiter=10000)
        except Exception as exc:  # ARPACK non-convergence
            raise EigenError(f"pencil solve failed: {exc}") from exc
        blocks.append(lift(y))
    # M-orthonormalize the merged passes with a rank cutoff (they largely
    # duplicate each other), then Rayleigh-Ritz on the merged subspace
    U = np.hstack(blocks)
    w, P = np.linalg.eigh(U.T @ (Mmat @ U))
    keep_dirs = w > 1e-8 * w.max()
    U = U @ (P[:, keep_dirs] / np.sqrt(w[keep_dirs]))
    ritz, C = np.linalg.eigh(U.T @ (Kmat @ U))
    vec = U @ C[:, :k]

    Kv = Kmat @ vec
    Mv = Mmat @ vec
    res = np.linalg.norm(Kv - Mv * ritz[:k], axis=0) / np.linalg.norm(Kv, axis=0)
    # refresh Rayleigh quotients after the merge
    lam = np.einsum("ij,ij->j", vec, Kv) / np.einsum("ij,ij->j", vec, Mv)

    return SpectralResult(
        eigenvalues=lam,
        eigenvectors=vec,
        residuals=res,
        clusters=cluster_eigenvalues(lam, rel_gap),
        applications=calls[0],
    )


def spectrum_rows(result):
    """CSV-ready rows: (index, eigenvalue, residual, cluster id)."""
    cid = np.empty(len(result.eigenvalues), dtype=int)
    for c, group in enumerate(result.clusters):
        for i in group:
            cid[i] = c
    return [(i, float(result.eigenvalues[i]), float(result.residuals[i]), int(cid[i]))
            for i in range(len(result.eigenvalues))]
