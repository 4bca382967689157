"""Generalized symmetric pencil K u = lambda M u: smallest nonzero eigenpairs.

The stiffness K does not depend on the density (the Dirichlet energy is a
conformal invariant), so every solve on a mesh uses one sparse LU: the factor
of K grounded at vertex 0, built on the first solve and held by the
StiffnessMatrix. The grounded matrix is positive definite because meshes are
connected. ARPACK's generalized mode 3 at sigma = 0 (Lehoucq, Sorensen and
Yang, ARPACK Users' Guide, 1998) runs Lanczos on

    OP x = Q K+ Q^T M x,    m = M 1,    Q = I - 1 m^T / (1^T m),

where K+ b solves the grounded system. Any operator whose inverse spectrum is
the wanted one serves, not only (K - sigma M)^-1 M (the spectral
transformation Lanczos method of Ericsson and Ruhe, 1980). Q^T makes the
right-hand side sum to zero, so K z = Q^T M x is solvable, and Q fixes the
constant the grounding leaves free by m^T z = 0. OP is M-self-adjoint and maps
the constant to exactly 0. An eigenpair (lambda > 0, u) has m^T u =
1^T K u / lambda = 0, hence Q^T M u = M u and OP u = u / lambda: the
eigenvalues of OP are exactly the 1/lambda_i. This is not pinning a vertex,
which would change the pencil; the constant is deflated by construction, so
no Lanczos slot is spent on it.

Vertices where the density vanishes stay in the pencil. Their rows of M are
zero and so are their entries of m, so (Q^T M x)_e = 0 on such a row e and
every Lanczos vector z has (K z)_e = 0. The eigenvectors are therefore
harmonic there, the weak form of -Delta u = lambda mu u where mu = 0.

Each solve runs two Lanczos passes from independent start vectors, merged by
Rayleigh-Ritz: single-vector Lanczos can return an incomplete basis of a
degenerate eigenvalue, and the mesh symmetries here produce exact
multiplicities routinely. The Krylov dimension is max(2k + 3, 20), ARPACK's
default for k + 1 pairs rather than for k. The smaller space, max(2k + 1, 20)
from k = 9 on, makes an incomplete basis of a degenerate cluster likelier: a
variant of this operator with it missed one copy of the 5-fold second
cluster of icosphere 3 (k = 9, seed 0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh


class EigenError(RuntimeError):
    pass


class IndefiniteMassError(EigenError):
    pass


DEFAULT_REL_GAP = 0.02
LANCZOS_TOL = 1e-10  # ARPACK relative accuracy of each Ritz value


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


def _check_inertia(M):
    """Refuse indefinite mass matrices (possible in floor = -1/2 mode).

    Only reached when some element block is indefinite, which leaves the
    sum undecided.
    """
    lo = float(eigsh(M, k=1, which="SA", return_eigenvectors=False,
                     maxiter=5000)[0])
    scale = abs(M.diagonal()).max()
    if lo < -1e-12 * scale:
        raise IndefiniteMassError(
            "indefinite mass; reduce negative density or use floor=0")


def solve_pencil(K, M, k, rel_gap=DEFAULT_REL_GAP, seed=0):
    """k smallest eigenpairs of K u = lambda M u above the deflated zero mode.

    K is a StiffnessMatrix and M a MassMatrix. k may be at most V - 1, the
    number of nonzero eigenvalues.
    """
    Kmat, Mmat = K.matrix, M.matrix
    n = Kmat.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be between 1 and {n - 1} (V - 1), got {k}")

    if not M.psd_blocks:
        _check_inertia(Mmat)

    try:
        lu = K.grounded_lu
    except Exception as exc:  # singular factor
        raise EigenError(f"pencil solve failed: {exc}") from exc
    m = np.asarray(Mmat.sum(axis=1)).ravel()  # M 1
    mass = m.sum()

    def project_solve(b):  # Q K+ Q^T b
        b = np.ravel(b)
        rhs = b - m * (b.sum() / mass)
        z = np.concatenate([[0.0], lu.solve(rhs[1:])])
        return z - (m @ z) / mass

    OPinv = LinearOperator((n, n), matvec=project_solve, dtype=float)
    ncv = min(n, max(2 * k + 3, 20))
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(2):
        v0 = rng.standard_normal(n)
        try:
            _, bvec = eigsh(Kmat, k=k, M=Mmat, sigma=0.0, which="LM", v0=v0,
                            ncv=ncv, tol=LANCZOS_TOL, maxiter=10000, OPinv=OPinv)
        except Exception as exc:  # ARPACK non-convergence
            raise EigenError(f"pencil solve failed: {exc}") from exc
        blocks.append(bvec)
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
    )


def spectrum_rows(result):
    """CSV-ready rows: (index, eigenvalue, residual, cluster id)."""
    cid = np.empty(len(result.eigenvalues), dtype=int)
    for c, group in enumerate(result.clusters):
        for i in group:
            cid[i] = c
    return [(i, float(result.eigenvalues[i]), float(result.residuals[i]), int(cid[i]))
            for i in range(len(result.eigenvalues))]
