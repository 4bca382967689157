"""Generalized symmetric pencil K u = lambda M u: smallest nonzero eigenpairs.

Shift-invert Lanczos (ARPACK) with the constant mode removed by explicit
projection against the M-weighted constant, never by pinning a vertex. One
sparse LU of K - sigma M per solve serves both Lanczos passes. The shift
sigma = -1/mass is -1 in units of the scale-invariant lambda * mass (25-46
here) and maps the zero mode to 1/|sigma|, so Lanczos work depends on neither
the mesh size nor the density's scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu


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
    eigenvectors: np.ndarray         # (V, k), M-orthonormal, zero where excluded
    residuals: np.ndarray            # (k,) relative residuals
    clusters: tuple                  # partition of range(k) by relative gap
    excluded_vertices: tuple = ()    # support restriction (zero mass rows)

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


def _schur_reduce(K, support, excluded):
    """Eliminate zero-mass vertices: K_ss - K_se K_ee^{-1} K_es."""
    Kss = K[np.ix_(support, support)]
    Kse = K[np.ix_(support, excluded)]
    lu = splu(K[np.ix_(excluded, excluded)].tocsc())
    correction = Kse @ lu.solve(Kse.T.toarray())
    return sparse.csr_matrix(Kss - sparse.csr_matrix(correction))


def solve_pencil(K, M, k, rel_gap=DEFAULT_REL_GAP, seed=0):
    """k smallest eigenpairs of K u = lambda M u above the deflated zero mode.

    K is a StiffnessMatrix and M a MassMatrix.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    Kmat, Mmat = K.matrix, M.matrix
    V = Kmat.shape[0]

    if not M.psd_blocks:
        _check_inertia(Mmat)

    mdiag = np.asarray(Mmat.diagonal())
    excluded = np.nonzero(np.abs(mdiag) <= 1e-14 * np.abs(mdiag).max())[0]
    support = np.setdiff1d(np.arange(V), excluded)
    if excluded.size:
        Ksub = _schur_reduce(Kmat.tocsr(), support, excluded)
        Msub = Mmat.tocsr()[np.ix_(support, support)]
    else:
        Ksub, Msub = Kmat, Mmat

    n = Ksub.shape[0]
    sigma = -1.0 / Msub.sum()  # -1 in units of the scale-free lambda * mass
    rng = np.random.default_rng(seed)
    try:
        # the CSC matrix eigsh factors itself (symmetric CSR, transposed)
        lu = splu((Ksub - sigma * Msub).tocsr().T)
    except Exception as exc:  # singular factor
        raise EigenError(f"pencil solve failed: {exc}") from exc
    OPinv = LinearOperator((n, n), matvec=lu.solve)

    # Two Lanczos passes with independent start vectors, merged by
    # Rayleigh-Ritz: single-vector Lanczos can return an incomplete basis of
    # a degenerate eigenvalue, and the mesh symmetries here produce exact
    # multiplicities routinely. Both passes share the LU. More vectors cannot
    # help: k + 1 keep k directions off the constant after exact deflation.
    blocks = []
    for _ in range(2):
        v0 = rng.standard_normal(n)
        try:
            _, bvec = eigsh(Ksub, k=min(k + 1, n - 1), M=Msub, sigma=sigma,
                            which="LM", v0=v0, tol=LANCZOS_TOL, maxiter=10000,
                            OPinv=OPinv)
        except Exception as exc:  # ARPACK non-convergence
            raise EigenError(f"pencil solve failed: {exc}") from exc
        blocks.append(bvec)
    U = np.hstack(blocks)
    # deflate the constant component exactly, then M-orthonormalize with
    # a rank cutoff (the two passes largely duplicate each other)
    ones = np.ones(n)
    Mones = Msub @ ones
    U = U - np.outer(ones, (Mones @ U) / (ones @ Mones))
    G = U.T @ (Msub @ U)
    w, P = np.linalg.eigh(G)
    keep_dirs = w > 1e-8 * w.max()
    U = U @ (P[:, keep_dirs] / np.sqrt(w[keep_dirs]))
    # Rayleigh-Ritz on the merged subspace
    ritz, C = np.linalg.eigh(U.T @ (Ksub @ U))
    U = U @ C
    pos = ritz > abs(ritz[-1]) * 1e-10
    if pos.sum() < k:
        raise EigenError("could not separate the zero mode from the spectrum")
    lam, vec = ritz[pos][:k], U[:, pos][:, :k]

    Kv = Ksub @ vec
    Mv = Msub @ vec
    res = np.linalg.norm(Kv - Mv * lam, axis=0) / np.linalg.norm(Kv, axis=0)
    # refresh Rayleigh quotients after projection
    lam = np.einsum("ij,ij->j", vec, Kv) / np.einsum("ij,ij->j", vec, Mv)

    if excluded.size:
        full = np.zeros((V, vec.shape[1]))
        full[support] = vec
        vec = full

    return SpectralResult(
        eigenvalues=lam,
        eigenvectors=vec,
        residuals=res,
        clusters=cluster_eigenvalues(lam, rel_gap),
        excluded_vertices=tuple(int(i) for i in excluded),
    )


def spectrum_rows(result):
    """CSV-ready rows: (index, eigenvalue, residual, cluster id)."""
    cid = np.empty(len(result.eigenvalues), dtype=int)
    for c, group in enumerate(result.clusters):
        for i in group:
            cid[i] = c
    return [(i, float(result.eigenvalues[i]), float(result.residuals[i]), int(cid[i]))
            for i in range(len(result.eigenvalues))]
