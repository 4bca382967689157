import numpy as np
import pytest

from confmax.oracle import _Grid, _project, _vertex_areas, brute_force_torus_max


def _element_loop(n, mu):
    """Reference: the per-triangle assembly loop the vectorized one replaced."""
    V, h = n * n, 1.0 / n
    vid = lambda i, j: (i % n) * n + (j % n)
    coords = np.array([[(t // n) * h, (t % n) * h] for t in range(V)])

    def unwrap(p, ref):
        return p - np.where(p - ref > 0.5, 1.0, 0.0) + np.where(p - ref < -0.5, 1.0, 0.0)

    K, M = np.zeros((V, V)), np.zeros((V, V))
    for i in range(n):
        for j in range(n):
            for idx in ((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)),
                        (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))):
                pa = coords[idx[0]]
                pb, pc = unwrap(coords[idx[1]], pa), unwrap(coords[idx[2]], pa)
                e0, e1, e2 = pc - pb, pa - pc, pb - pa
                A2 = abs(e2[0] * (-e1[1]) - e2[1] * (-e1[0]))
                A = 0.5 * A2
                grads = np.array([[-e0[1], e0[0]], [-e1[1], e1[0]], [-e2[1], e2[0]]]) / A2
                m = mu[list(idx)]
                tot = m.sum()
                for p in range(3):
                    for q in range(3):
                        K[idx[p], idx[q]] += A * grads[p] @ grads[q]
                    M[idx[p], idx[p]] += (A / 60.0) * (4.0 * m[p] + 2.0 * tot)
                    for q in range(p + 1, 3):
                        v = (A / 60.0) * (m[p] + m[q] + tot)
                        M[idx[p], idx[q]] += v
                        M[idx[q], idx[p]] += v
    return K, M


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_matrices_match_element_loop():
    mu = np.random.default_rng(4).uniform(0.2, 3.0, 36)
    grid = _Grid(6)
    K, M = grid.stiffness(), grid.mass(mu)
    K_ref, M_ref = _element_loop(6, mu)
    assert _rel(K, K_ref) <= 1e-14
    assert _rel(M, M_ref) <= 1e-14


def test_stiffness_symmetric_zero_row_sums_and_density_free():
    K, K2 = _Grid(6).stiffness(), _Grid(6).stiffness()
    assert np.array_equal(K, K.T)
    assert np.abs(K.sum(axis=1)).max() <= 1e-13
    assert np.array_equal(K, K2)


def test_mass_total_is_integral_of_density():
    mu = np.random.default_rng(6).uniform(0.2, 3.0, 36)
    M = _Grid(6).mass(mu)
    assert M.sum() == pytest.approx(_vertex_areas(6) @ mu, rel=1e-14)


def _project_full(values, areas, cap):
    lo, hi = -values.max() - 1.0, cap + 1.0
    for _ in range(200):
        c = 0.5 * (lo + hi)
        if areas @ np.clip(values + c, 0.0, cap) < 1.0:
            lo = c
        else:
            hi = c
    return np.clip(values + 0.5 * (lo + hi), 0.0, cap)


@pytest.mark.parametrize("seed", range(4))
def test_project_feasible_and_equal_to_full_bisection(seed):
    values = np.random.default_rng(seed).standard_normal(144) * 5.0
    areas = _vertex_areas(12)
    mu = _project(values, areas, 4.0)
    assert mu.min() >= 0.0 and mu.max() <= 4.0
    assert areas @ mu == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(mu, _project_full(values, areas, 4.0))


def test_brute_force_value_unchanged():
    # value of the per-element assembly loop at this call
    assert brute_force_torus_max(n=6, restarts=1, seed=0) == pytest.approx(
        42.780643028622436, rel=1e-10)
