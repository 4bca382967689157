import numpy as np
import pytest
from scipy.linalg import eigh

import confmax.oracle as oracle
from confmax.oracle import (_Grid, _lambda_and_grad, _project, _raises_lambda1,
                            _vertex_areas, brute_force_torus_max)


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
    # the exact breakpoint solve and the bisection agree to round-off, not to
    # the bit; scale 50 at cap 4 saturates about a quarter of the vertices
    areas = _vertex_areas(12)
    for scale, cap in ((5.0, 4.0), (50.0, 4.0), (5.0, 64.0)):
        values = np.random.default_rng(seed).standard_normal(144) * scale
        mu = _project(values, areas, cap)
        assert mu.min() >= 0.0 and mu.max() <= cap
        assert areas @ mu == pytest.approx(1.0, rel=1e-12)
        ulp = np.spacing(np.abs(values).max() + cap)
        assert np.abs(mu - _project_full(values, areas, cap)).max() <= 4 * ulp


def _lambda_and_grad_full(K, M, areas, cluster_gap=0.02):
    """Reference: the same subgradient from the whole dense spectrum."""
    vals, vecs = eigh(K, M + 1e-13 * np.eye(len(M)))
    lam = vals[1]
    count = np.searchsorted(vals[1:], lam * (1.0 + cluster_gap), side="right")
    return lam, -lam * areas * np.mean(vecs[:, 1:1 + count] ** 2, axis=1)


def _random_density(n, seed):
    areas = _vertex_areas(n)
    return (np.ones(n * n) if seed is None else
            _project(np.random.default_rng(seed).uniform(0.5, 1.5, n * n), areas, 64.0))


@pytest.mark.parametrize("seed", [None, 0, 1, 2])  # None: uniform, a 4-fold cluster
def test_leading_eigenpairs_match_full_spectrum(seed):
    n = 12
    grid, areas = _Grid(n), _vertex_areas(n)
    K, M = grid.stiffness(), grid.mass(_random_density(n, seed))
    lam, grad = _lambda_and_grad(K, M, areas)
    lam_ref, grad_ref = _lambda_and_grad_full(K, M, areas)
    assert lam == pytest.approx(lam_ref, rel=1e-12)
    assert _rel(grad, grad_ref) <= 1e-12


def test_cluster_reaching_the_last_computed_eigenvalue_is_refused():
    grid, areas = _Grid(6), _vertex_areas(6)
    M = grid.mass(np.ones(36))
    with pytest.raises(RuntimeError, match="cluster reaches all 13"):
        _lambda_and_grad(grid.stiffness(), M, areas, cluster_gap=10.0)


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("seed", [None, 0, 1, 2])  # None: uniform, a 4-fold cluster
def test_inertia_test_agrees_with_eigh(n, seed):
    grid = _Grid(n)
    K, M = grid.stiffness(), grid.mass(_random_density(n, seed))
    lam1 = eigh(K, M + 1e-13 * np.eye(n * n), eigvals_only=True)[1]
    assert _raises_lambda1(K, M, lam1 * (1.0 - 1e-8))
    assert not _raises_lambda1(K, M, lam1 * (1.0 + 1e-8))


def test_eigensolve_runs_only_on_trials_that_pass_the_inertia_test(monkeypatch):
    calls = []
    solve = oracle._lambda_and_grad

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(oracle, "_lambda_and_grad", counted)
    brute_force_torus_max(n=12, restarts=2, seed=3000)
    assert len(calls) <= 40  # 114 when every trial ran the dense eigensolve


# n=12, 2 restarts: values of the ascent that ran the dense eigensolve on every trial
_PER_TRIAL_EIGH = {0: 40.232010832919215, 5: 40.174738324291084, 3000: 40.03285904163444,
                   3001: 40.186911136131165, 3002: 40.02298533580622,
                   3003: 40.08938773217453, 3004: 40.04167113557144}


@pytest.mark.parametrize("seed", list(_PER_TRIAL_EIGH))
def test_values_match_the_eigensolve_per_trial_ascent(seed):
    assert brute_force_torus_max(n=12, restarts=2, seed=seed) == pytest.approx(
        _PER_TRIAL_EIGH[seed], rel=1e-12)


def test_brute_force_value_unchanged():
    # value of the per-element assembly loop at this call
    assert brute_force_torus_max(n=6, restarts=1, seed=0) == pytest.approx(
        42.780643028622436, rel=1e-10)
