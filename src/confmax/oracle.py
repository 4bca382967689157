"""Brute-force cross-check for the torus maximizer.

Deliberately independent of the main pipeline: it shares no assembly code
with `confmax.fem` or `confmax.mesh` and imports nothing from
`confmax.maximizer`. Its own dense assembly on a structured square-torus grid
(the stiffness once per call, since it does not depend on the density; the
density-weighted mass at every step), and a plain projected-subgradient ascent
with random restarts. Each trial is projected into the box by an exact
breakpoint solve for the mass-restoring shift, and is decided by one dense
Cholesky inertia test ("does it raise lambda1?"); only a trial that passes
runs the dense generalized eigensolver for the leading eigenpairs, which
gives the new lambda1 and subgradient. Small grids only.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dpotrf

_EIGS = 13  # eigenpairs computed per step, the constant mode included
_CAP = 64.0  # density cap; the unit-area torus has mean density 1
_ITERS = 300  # ascent steps per restart at most


class _Grid:
    """The 2n^2 triangles of the n x n square torus grid, as arrays.

    Each cell is split along the (+1, +1) diagonal; vertex (i, j) has index
    i * n + j. Element matrices are summed in triangle order.
    """

    def __init__(self, n):
        h = 1.0 / n
        i, j = np.divmod(np.arange(n * n), n)
        i1, j1 = (i + 1) % n, (j + 1) % n
        v00, v10, v11, v01 = i * n + j, i1 * n + j, i1 * n + j1, i * n + j1
        self.V = n * n
        self.tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
        p = np.stack([i * h, j * h], axis=1)[self.tris]
        # unwrap periodic images so each element is geometrically contiguous
        off = p[:, 1:] - p[:, :1]
        p[:, 1:] += np.where(off > 0.5, -1.0, np.where(off < -0.5, 1.0, 0.0))
        e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]  # edge opposite each corner
        area2 = np.abs(e[:, 2, 0] * -e[:, 1, 1] - e[:, 2, 1] * -e[:, 1, 0])
        self.area = 0.5 * area2
        self.grads = np.stack([-e[..., 1], e[..., 0]], axis=-1) / area2[:, None, None]
        self._index = (self.tris[:, :, None] * self.V + self.tris[:, None, :]).ravel()

    def _scatter(self, local):
        V = self.V
        return np.bincount(self._index, local.ravel(), minlength=V * V).reshape(V, V)

    def stiffness(self):
        return self._scatter(np.einsum("tpi,tqi->tpq",
                                       self.area[:, None, None] * self.grads, self.grads))

    def mass(self, mu):
        m = mu[self.tris]
        tot = m[:, 0] + m[:, 1] + m[:, 2]
        # (A/60)(m_p + m_q + sum m) off the diagonal, twice that on it
        local = m[:, :, None] + m[:, None, :] + tot[:, None, None]
        return self._scatter(local * (self.area / 60.0)[:, None, None] * (1.0 + np.eye(3)))


def _vertex_areas(n):
    # six incident triangles per vertex on this grid, each of area h^2/2
    h = 1.0 / n
    return np.full(n * n, 6 * (0.5 * h * h) / 3.0)


def _project(values, areas, cap):
    """Clip to [0, cap] and restore unit mass by an exact scalar shift c.

    The mass of clip(values + c, 0, cap) is piecewise linear and nondecreasing
    in c, with a knot where each vertex leaves 0 (c = -v) and where it reaches
    the cap (c = cap - v); c is solved for on the segment where it crosses 1.
    """
    knots = np.concatenate([-values, cap - values])
    order = np.argsort(knots, kind="stable")
    t = knots[order]
    slope = np.cumsum(np.concatenate([areas, -areas])[order])  # on [t_k, t_k+1]
    mass = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(t))])  # at t_k
    k = np.searchsorted(mass, 1.0) - 1  # the last knot with mass below 1
    c = t[k] + (1.0 - mass[k]) / slope[k]
    # one Newton step on the directly summed mass removes the cumsum round-off
    c += (1.0 - areas @ np.clip(values + c, 0.0, cap)) / slope[k]
    return np.clip(values + c, 0.0, cap)


def _lambda_and_grad(K, M, areas, cluster_gap=0.02):
    # only the leading eigenpairs: the constant mode and room for the first cluster
    vals, vecs = eigh(K, M + 1e-13 * np.eye(len(M)), subset_by_index=[0, _EIGS - 1])
    lam = vals[1]  # vals[0] is the constant mode
    # subgradient averaged over the first cluster to tame multiplicity
    count = np.searchsorted(vals[1:], lam * (1.0 + cluster_gap), side="right")
    if count == len(vals) - 1:
        raise RuntimeError(f"the first eigenvalue cluster reaches all {len(vals)} "
                           "computed eigenvalues; it may continue beyond them")
    return lam, -lam * areas * np.mean(vecs[:, 1:1 + count] ** 2, axis=1)


def _raises_lambda1(K, M, lam):
    """Whether lambda1 of the pencil (K, M + 1e-13 I) exceeds lam > 0.

    The rank-one term (2 lam / mass) m m^T, m = M_c 1, moves the constant
    mode to pencil value 2 lam and leaves every other eigenpair in place, so
    by Sylvester's law of inertia A = K + (2 lam / mass) m m^T - lam M_c is
    positive definite exactly when lambda1 > lam: one Cholesky decides it.
    """
    Mc = M + 1e-13 * np.eye(len(M))
    m = Mc.sum(axis=1)
    A = K - lam * Mc + (2.0 * lam / m.sum()) * np.outer(m, m)
    return dpotrf(A, overwrite_a=True)[1] == 0  # info > 0: not positive definite


def brute_force_torus_max(n=12, restarts=20, seed=0):
    """Best lambda1 * area over the box-and-mass set, by restarted ascent.

    A trial step is accepted when it raises lambda1: the Cholesky inertia test
    rejects the others without an eigensolve, and a trial that passes is
    accepted once the eigensolve agrees (the two differ only at round-off
    ties). An accepted step grows the step length by 1.3, a rejected one
    halves it, and a restart stops once the step falls below 1e-12 or after
    _ITERS trials.
    """
    rng = np.random.default_rng(seed)
    grid = _Grid(n)
    K = grid.stiffness()
    areas = _vertex_areas(n)
    best = -np.inf
    for _ in range(restarts):
        mu = _project(rng.uniform(0.5, 1.5, n * n), areas, _CAP)
        lam, grad = _lambda_and_grad(K, grid.mass(mu), areas)
        alpha = 0.1 / max(np.abs(grad).max(), 1e-12)
        for _ in range(_ITERS):
            cand = _project(mu + alpha * grad, areas, _CAP)
            M = grid.mass(cand)
            if _raises_lambda1(K, M, lam):
                lam_c, grad_c = _lambda_and_grad(K, M, areas)
                if lam_c > lam:  # the eigensolve agrees, up to round-off ties
                    mu, lam, grad = cand, lam_c, grad_c
                    alpha *= 1.3
                    continue
            alpha *= 0.5
            if alpha * np.abs(grad).max() < 1e-12:
                break
        best = max(best, lam)
    return best
