import math

import numpy as np
import pytest

import confmax.eigen
from confmax.eigen import (EigenError, IndefiniteMassError, cluster_eigenvalues,
                           solve_pencil, spectrum_rows)
from confmax.fem import assemble_mass, assemble_stiffness, random_density, uniform_density
from confmax.mesh import gen_flat_torus, gen_icosphere
from conftest import SQUARE, tilted_density


def _solve_uniform(mesh, k, seed=0):
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh, uniform_density(mesh))
    return solve_pencil(K, M, k=k, seed=seed), K, M


def test_sphere_first_clusters(sphere4):
    res, _, _ = _solve_uniform(sphere4, 9)
    assert len(res.clusters[0]) == 3
    assert len(res.clusters[1]) == 5
    v0 = np.mean(res.eigenvalues[list(res.clusters[0])])
    v1 = np.mean(res.eigenvalues[list(res.clusters[1])])
    assert abs(v0 - 8 * math.pi) / (8 * math.pi) < 0.01
    assert abs(v1 - 24 * math.pi) / (24 * math.pi) < 0.01


def test_square_torus_fourier_spectrum():
    m = gen_flat_torus(SQUARE, 48, 48)
    res, _, _ = _solve_uniform(m, 10)
    assert len(res.clusters[0]) == 4
    assert len(res.clusters[1]) == 4
    v0 = np.mean(res.eigenvalues[list(res.clusters[0])])
    v1 = np.mean(res.eigenvalues[list(res.clusters[1])])
    assert abs(v0 - 4 * math.pi ** 2) / (4 * math.pi ** 2) < 0.01
    assert abs(v1 - 8 * math.pi ** 2) / (8 * math.pi ** 2) < 0.01


def test_zero_mode_deflated(sphere2):
    res, _, M = _solve_uniform(sphere2, 1)
    assert res.lambda1 > 0
    ones = np.ones(sphere2.vertex_count)
    assert np.abs(ones @ (M.matrix @ res.eigenvectors)).max() < 1e-10


def test_m_orthonormality(sphere3):
    res, _, M = _solve_uniform(sphere3, 6)
    G = res.eigenvectors.T @ (M.matrix @ res.eigenvectors)
    assert np.abs(G - np.eye(6)).max() < 1e-8


def test_rayleigh_consistency(sphere3):
    res, K, M = _solve_uniform(sphere3, 5)
    for i in range(5):
        u = res.eigenvectors[:, i]
        rq = (u @ (K.matrix @ u)) / (u @ (M.matrix @ u))
        assert abs(rq - res.eigenvalues[i]) < 1e-8 * res.eigenvalues[i]


def test_residuals_small(sphere3):
    res, _, _ = _solve_uniform(sphere3, 5)
    assert res.residuals.max() < 1e-8


def test_density_scaling_rescales_eigenvalues(sphere2):
    K = assemble_stiffness(sphere2)
    mu = uniform_density(sphere2).values
    res1 = solve_pencil(K, assemble_mass(sphere2, mu), k=4)
    res2 = solve_pencil(K, assemble_mass(sphere2, 3.0 * mu), k=4)
    assert np.abs(res2.eigenvalues * 3.0 - res1.eigenvalues).max() \
        < 1e-8 * res1.eigenvalues.max()


def test_mesh_convergence_order():
    errs = []
    for s in (3, 4, 5):
        res, _, _ = _solve_uniform(gen_icosphere(s), 3)
        errs.append(abs(res.lambda1 - 8 * math.pi))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


@pytest.mark.parametrize("case", ["sphere 3-fold", "square 4-fold",
                                  "equilateral 4+2", "tilted sphere"])
def test_lambda1_alone_matches_leading_block(case, sphere3, square_torus16, eq_torus16):
    mesh, mu = {"sphere 3-fold": (sphere3, uniform_density(sphere3)),
                "square 4-fold": (square_torus16, uniform_density(square_torus16)),
                "equilateral 4+2": (eq_torus16, uniform_density(eq_torus16)),
                "tilted sphere": (sphere3, tilted_density(sphere3, 43000))}[case]
    K, M = assemble_stiffness(mesh), assemble_mass(mesh, mu)
    alone = solve_pencil(K, M, k=1)
    block = solve_pencil(K, M, k=8)
    assert alone.eigenvalues.shape == (1,)
    assert abs(alone.lambda1 - block.lambda1) <= 1e-12 * block.lambda1


def test_determinism(sphere2):
    res1, _, _ = _solve_uniform(sphere2, 5, seed=3)
    res2, _, _ = _solve_uniform(sphere2, 5, seed=3)
    assert np.array_equal(res1.eigenvalues, res2.eigenvalues)
    assert np.array_equal(res1.eigenvectors, res2.eigenvectors)


def test_one_factorization_serves_both_passes(sphere2, monkeypatch):
    calls = {"splu": 0, "eigsh": []}
    splu, eigsh = confmax.eigen.splu, confmax.eigen.eigsh

    def counting_splu(*args, **kwargs):
        calls["splu"] += 1
        return splu(*args, **kwargs)

    def counting_eigsh(*args, **kwargs):
        calls["eigsh"].append("OPinv" in kwargs)
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(confmax.eigen, "splu", counting_splu)
    monkeypatch.setattr(confmax.eigen, "eigsh", counting_eigsh)
    _solve_uniform(sphere2, 8)
    assert calls == {"splu": 1, "eigsh": [True, True]}


def _count_lu_solves(monkeypatch):
    """Count operator applications: calls to solve of every factor built."""
    count = [0]
    splu = confmax.eigen.splu

    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            count[0] += 1
            return self.lu.solve(rhs)
    monkeypatch.setattr(confmax.eigen, "splu", lambda *a, **kw: Counting(splu(*a, **kw)))
    return count


@pytest.mark.parametrize("k", [8, 1])
def test_lanczos_work_is_mesh_independent(k, sphere4, monkeypatch):
    # the shift sits at -1 in units of lambda * mass on every mesh, so the
    # shift-inverted spectrum, and with it the Lanczos work, does not grow with V
    count = _count_lu_solves(monkeypatch)
    applications = []
    for mesh in (sphere4, gen_icosphere(5)):
        count[0] = 0
        solve_pencil(assemble_stiffness(mesh),
                     assemble_mass(mesh, random_density(mesh, 0)), k=k)
        applications.append(count[0])
    assert applications[1] <= 1.5 * applications[0]


@pytest.mark.parametrize("k", [8, 1])
def test_density_scale_changes_neither_spectrum_nor_work(k, sphere3, monkeypatch):
    K = assemble_stiffness(sphere3)
    mu = random_density(sphere3, 0).values
    count = _count_lu_solves(monkeypatch)
    unit = solve_pencil(K, assemble_mass(sphere3, mu), k=k)
    unit_count = count[0]
    count[0] = 0
    heavy = solve_pencil(K, assemble_mass(sphere3, 1000.0 * mu), k=k)
    assert np.abs(heavy.eigenvalues * 1e3 - unit.eigenvalues).max() \
        <= 1e-12 * unit.eigenvalues.max()
    assert count[0] == unit_count


@pytest.mark.parametrize("density", ["uniform", "random"])
def test_shared_factorization_matches_self_factoring_eigsh(sphere2, monkeypatch, density):
    mu = uniform_density(sphere2) if density == "uniform" else random_density(sphere2, 1)
    K, M = assemble_stiffness(sphere2), assemble_mass(sphere2, mu)
    shared = solve_pencil(K, M, k=8)
    eigsh = confmax.eigen.eigsh

    def self_factoring(*args, OPinv, **kwargs):
        return eigsh(*args, **kwargs)  # scipy factors K - sigma M itself
    monkeypatch.setattr(confmax.eigen, "eigsh", self_factoring)
    own = solve_pencil(K, M, k=8)
    assert np.array_equal(shared.eigenvalues, own.eigenvalues)
    assert np.array_equal(shared.eigenvectors, own.eigenvectors)


def test_factorization_failure_is_eigen_error(sphere2, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(confmax.eigen, "splu", singular)
    with pytest.raises(EigenError, match="pencil solve failed: Factor is exactly singular"):
        _solve_uniform(sphere2, 2)


def test_indefinite_mass_refused(sphere2):
    mu = uniform_density(sphere2).values.copy()
    mu -= 2.0 * mu.max()  # mostly negative: mass matrix indefinite
    M = assemble_mass(sphere2, mu)
    K = assemble_stiffness(sphere2)
    with pytest.raises(IndefiniteMassError, match="indefinite mass"):
        solve_pencil(K, M, k=2)


def test_signed_density_with_psd_blocks_needs_no_inertia_solve(sphere2, monkeypatch):
    mu = uniform_density(sphere2).values.copy()
    mu[0] *= -0.5  # one negative corner per element keeps every block PSD
    M = assemble_mass(sphere2, mu)
    assert M.psd_blocks

    def forbidden(*args, **kwargs):
        raise AssertionError("inertia solve should not run")
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(confmax.eigen, "_check_inertia", forbidden)
    res = solve_pencil(assemble_stiffness(sphere2), M, k=2)
    assert np.all(res.eigenvalues > 0)


def test_indefinite_blocks_fall_back_to_global_check(sphere2):
    # negative corners next to each other break some element blocks, yet the
    # assembled matrix stays positive definite, which the fallback confirms
    mu = uniform_density(sphere2).values.copy()
    mu[::7] *= -0.2
    M = assemble_mass(sphere2, mu)
    assert not M.psd_blocks
    assert np.linalg.eigvalsh(M.matrix.toarray())[0] > 0
    res = solve_pencil(assemble_stiffness(sphere2), M, k=2)
    assert np.all(res.eigenvalues > 0)


def test_zero_mass_rows_excluded(sphere2):
    # kill the density on one vertex star; the solver restricts to the support
    mu = uniform_density(sphere2).values.copy()
    star = {0}
    for t in sphere2.triangles:
        if 0 in t:
            star.update(int(v) for v in t)
    mu[list(star)] = 0.0
    M = assemble_mass(sphere2, mu)
    K = assemble_stiffness(sphere2)
    res = solve_pencil(K, M, k=2)
    assert 0 in res.excluded_vertices
    assert np.all(res.eigenvectors[0] == 0.0)
    assert np.all(np.isfinite(res.eigenvalues))


def test_cluster_partition_examples():
    assert cluster_eigenvalues([2.001, 2.002, 2.003, 6.1], 0.05) == ((0, 1, 2), (3,))
    assert cluster_eigenvalues([1.0, 2.0, 3.0], 0.05) == ((0,), (1,), (2,))


def test_spectrum_rows(sphere2):
    res, _, _ = _solve_uniform(sphere2, 4)
    rows = spectrum_rows(res)
    assert len(rows) == 4
    assert rows[0][3] == 0  # first entry in first cluster
