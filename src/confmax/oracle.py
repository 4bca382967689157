"""Brute-force cross-check for the torus maximizer.

Deliberately independent of the main pipeline: it shares no assembly code
with `confmax.fem` or `confmax.mesh`. Its own dense assembly on a structured
square-torus grid (the stiffness once per call, since it does not depend on
the density; the density-weighted mass at every step), a dense generalized
eigensolver for the leading eigenpairs, and a plain projected-subgradient
ascent with random restarts. Small grids only.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import eigh

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
    """Clip to [0, cap] and restore unit mass by bisection on a scalar shift."""
    lo = -values.max() - 1.0
    hi = cap + 1.0
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if c == lo or c == hi:  # interval at one ulp: later passes change nothing
            break
        m = areas @ np.clip(values + c, 0.0, cap)
        if m < 1.0:
            lo = c
        else:
            hi = c
    return np.clip(values + 0.5 * (lo + hi), 0.0, cap)


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


def brute_force_torus_max(n=12, restarts=20, seed=0):
    """Best lambda1 * area over the box-and-mass set, by restarted ascent."""
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
            lam_c, grad_c = _lambda_and_grad(K, grid.mass(cand), areas)
            if lam_c > lam:
                mu, lam, grad = cand, lam_c, grad_c
                alpha *= 1.3
            else:
                alpha *= 0.5
                if alpha * np.abs(grad).max() < 1e-12:
                    break
        best = max(best, lam)
    return best
