import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh, spsolve

import confmax.eigen
import confmax.fem
from confmax.eigen import (EigenError, IndefiniteMassError, cluster_eigenvalues,
                           solve_pencil, spectrum_rows)
from confmax.fem import assemble_mass, random_density, uniform_density
from confmax.mesh import gen_flat_torus, gen_icosphere
from conftest import SQUARE, polar_cap, tilted_density, vanishing_density


def _solve_uniform(mesh, k, seed=0):
    M = assemble_mass(mesh, uniform_density(mesh))
    return solve_pencil(M, k=k, seed=seed), mesh.stiffness, M


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
    mu = uniform_density(sphere2).values
    res1 = solve_pencil(assemble_mass(sphere2, mu), k=4)
    res2 = solve_pencil(assemble_mass(sphere2, 3.0 * mu), k=4)
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
                                  "equilateral 4+2", "tilted sphere", "vanishing star"])
def test_lambda1_alone_matches_leading_block(case, sphere2, sphere3, square_torus16,
                                             eq_torus16):
    mesh, mu = {"sphere 3-fold": (sphere3, uniform_density(sphere3)),
                "square 4-fold": (square_torus16, uniform_density(square_torus16)),
                "equilateral 4+2": (eq_torus16, uniform_density(eq_torus16)),
                "tilted sphere": (sphere3, tilted_density(sphere3, 43000)),
                "vanishing star": (sphere2, vanishing_density(sphere2, [0]))}[case]
    K, M = mesh.stiffness, assemble_mass(mesh, mu)
    alone = solve_pencil(M, k=1)
    block = solve_pencil(M, k=8)
    assert alone.eigenvalues.shape == (1,)
    assert abs(alone.lambda1 - block.lambda1) <= 1e-12 * block.lambda1
    # the smaller Krylov space of a k = 1 solve keeps zero-mass rows harmonic
    massless = np.flatnonzero(np.abs(M.matrix).sum(axis=1) == 0)
    Ku = K.matrix @ alone.eigenvectors
    assert np.abs(Ku[massless]).max(initial=0.0) <= 1e-12 * np.abs(Ku).max()


def test_solve_leaves_no_reference_cycles(sphere2):
    # the operator a solve builds, and the permuted mass it holds, is freed
    # when the solve returns; held in a cycle it waits for the cyclic
    # collector, which raised a run's peak memory by 2 MB a maximize call on
    # icosphere 4
    M = assemble_mass(sphere2, uniform_density(sphere2))
    solve_pencil(M, k=1)
    gc.collect()
    gc.disable()
    try:
        solve_pencil(M, k=1)
        solve_pencil(M, k=8)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, LinearOperator)
                  or getattr(o, "__module__", None) == "confmax.eigen"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


def test_determinism(sphere2):
    res1, _, _ = _solve_uniform(sphere2, 5, seed=3)
    res2, _, _ = _solve_uniform(sphere2, 5, seed=3)
    assert np.array_equal(res1.eigenvalues, res2.eigenvalues)
    assert np.array_equal(res1.eigenvectors, res2.eigenvectors)


def test_one_factorization_per_stiffness_matrix(monkeypatch):
    # the stiffness does not depend on the density: three densities on one
    # mesh share the single factor of its K, and each solve runs two ARPACK
    # passes on it, none of which factors a shifted matrix of its own
    calls = {"cholesky_banded": 0, "eigsh": []}
    cholesky_banded, eigsh = confmax.fem.cholesky_banded, confmax.eigen.eigsh

    def counting_cholesky(*args, **kwargs):
        calls["cholesky_banded"] += 1
        return cholesky_banded(*args, **kwargs)

    def counting_eigsh(*args, **kwargs):
        calls["eigsh"].append("sigma" in kwargs)
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(confmax.fem, "cholesky_banded", counting_cholesky)
    monkeypatch.setattr(confmax.eigen, "eigsh", counting_eigsh)
    mesh = gen_icosphere(2)  # fresh: a session mesh may hold its factor already
    for mu in (uniform_density(mesh), random_density(mesh, 0),
               vanishing_density(mesh, [0])):
        solve_pencil(assemble_mass(mesh, mu), k=8)
    assert calls == {"cholesky_banded": 1, "eigsh": [False] * 6}


def _count_applications(monkeypatch):
    """Count operator applications: each makes one triangular solve with R^T."""
    count = [0]
    dtbtrs = confmax.eigen.dtbtrs

    def counting(*args, **kwargs):
        count[0] += kwargs.get("trans") == "T"
        return dtbtrs(*args, **kwargs)
    monkeypatch.setattr(confmax.eigen, "dtbtrs", counting)
    return count


@pytest.mark.parametrize("k", [1, 8])
def test_result_counts_operator_applications(k, sphere3, monkeypatch):
    count = _count_applications(monkeypatch)
    res = solve_pencil(assemble_mass(sphere3, random_density(sphere3, 0)), k=k)
    assert res.applications == count[0] > 0


# the bounds are 1.5x on split clusters and half at uniform fixed points of
# the 42, 62, 42 and 82 applications a Krylov space of 20 takes
@pytest.mark.parametrize("mesh, density, bound", [
    ("sphere3", lambda mesh: tilted_density(mesh, 43000), 63),
    ("eq_torus24", lambda mesh: random_density(mesh, 0), 93),
    ("sphere3", uniform_density, 21),
    ("square_torus16", uniform_density, 41),
], ids=["tilted sphere", "equilateral 24 random", "uniform sphere", "uniform square 16"])
def test_lambda1_work_guard(mesh, density, bound, request, monkeypatch):
    # a k = 1 solve's small Krylov space halves the work at uniform fixed
    # points and must not stagnate on split clusters, as a space of 2k + 3 = 5
    # does (144 applications on the equilateral torus, up to 4800 per solve on
    # the line-search trials of a tilted icosphere 3)
    mesh = request.getfixturevalue(mesh)
    count = _count_applications(monkeypatch)
    solve_pencil(assemble_mass(mesh, density(mesh)), k=1)
    assert 0 < count[0] <= bound


@pytest.mark.parametrize("k", [8, 1])
def test_lanczos_work_is_mesh_independent(k, sphere4, monkeypatch):
    # the operator's eigenvalues are the 1/lambda_i, which converge as the
    # mesh refines, so the Lanczos work does not grow with V
    count = _count_applications(monkeypatch)
    applications = []
    for mesh in (sphere4, gen_icosphere(5)):
        count[0] = 0
        solve_pencil(assemble_mass(mesh, random_density(mesh, 0)), k=k)
        applications.append(count[0])
    assert applications[0] > 0
    assert applications[1] <= 1.5 * applications[0]


@pytest.mark.parametrize("k", [8, 1])
def test_density_scale_changes_neither_spectrum_nor_work(k, sphere3, monkeypatch):
    mu = random_density(sphere3, 0).values
    count = _count_applications(monkeypatch)
    unit = solve_pencil(assemble_mass(sphere3, mu), k=k)
    unit_count = count[0]
    count[0] = 0
    heavy = solve_pencil(assemble_mass(sphere3, 1000.0 * mu), k=k)
    assert np.abs(heavy.eigenvalues * 1e3 - unit.eigenvalues).max() \
        <= 1e-12 * unit.eigenvalues.max()
    assert unit_count > 0
    assert count[0] == unit_count


def _shift_invert_reference(K, M, k):
    """k pairs above the zero mode by self-factoring shift-invert Lanczos.

    eigsh factors K - sigma M at sigma = -1/mass itself. Two passes from
    independent start vectors are merged by Rayleigh-Ritz, since one pass can
    miss a copy of an exactly degenerate eigenvalue; the lowest pair of the
    merged basis is the zero mode.
    """
    rng = np.random.default_rng(0)
    U = np.hstack([eigsh(K, k=k + 1, M=M, sigma=-1.0 / M.sum(), which="LM",
                         v0=rng.standard_normal(K.shape[0]), tol=1e-10,
                         maxiter=10000)[1] for _ in range(2)])
    w, P = np.linalg.eigh(U.T @ (M @ U))
    keep = w > 1e-8 * w.max()
    U = U @ (P[:, keep] / np.sqrt(w[keep]))
    lam, C = np.linalg.eigh(U.T @ (K @ U))
    return lam[1:k + 1], U @ C[:, 1:k + 1]


@pytest.mark.parametrize("density", ["uniform", "random", "vanishing"])
def test_grounded_factor_matches_shift_invert(sphere2, density):
    mu = {"uniform": uniform_density(sphere2).values,
          "random": random_density(sphere2, 1).values,
          "vanishing": vanishing_density(sphere2, [0])}[density]
    K, M = sphere2.stiffness, assemble_mass(sphere2, mu)
    res = solve_pencil(M, k=8)
    lam, vec = _shift_invert_reference(K.matrix, M.matrix, 8)
    assert np.abs(res.eigenvalues - lam).max() <= 1e-13 * lam.max()

    # sine of the largest angle between the leading-cluster subspaces, in M
    lead = list(res.clusters[0])
    ours, ref = res.eigenvectors[:, lead], vec[:, lead]
    off = ours - ref @ (ref.T @ (M.matrix @ ours))
    sin_theta = math.sqrt(max(np.linalg.eigvalsh(off.T @ (M.matrix @ off)).max(), 0.0))
    assert sin_theta <= 1e-6


@pytest.mark.parametrize("density", ["uniform", "vanishing"])
def test_standard_operator_lifts_to_the_projected_inverse(sphere2, density, monkeypatch):
    # S = Z^T M Z is symmetric with a dead slot 0, and Z S y = Q K+ Q^T M Z y
    # with K+ a direct solve of the grounded K; ARPACK runs it in standard
    # mode, with no mass matrix and no operator of its own
    mu = {"uniform": uniform_density(sphere2).values,
          "vanishing": vanishing_density(sphere2, [0])}[density]
    K, M = sphere2.stiffness, assemble_mass(sphere2, mu)
    S, lift, _ = confmax.eigen._standard_operator(M)
    x, y = np.random.default_rng(0).standard_normal((2, sphere2.vertex_count))
    Sx, Sy = S.matvec(x), S.matvec(y)
    assert abs(x @ Sy - y @ Sx) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(Sy)
    assert Sx[0] == Sy[0] == 0.0
    assert not S.matvec(np.eye(sphere2.vertex_count)[0]).any()

    m = M.matrix @ np.ones(sphere2.vertex_count)
    b = M.matrix @ lift(y)
    b -= m * (b.sum() / m.sum())
    z = np.concatenate([[0.0], spsolve(K.matrix[1:, 1:].tocsc(), b[1:])])
    ref = z - (m @ z) / m.sum()
    assert np.linalg.norm(lift(Sy) - ref) <= 1e-13 * np.linalg.norm(ref)

    passes = []
    eigsh = confmax.eigen.eigsh

    def recording(*args, **kwargs):
        passes.append({"M", "OPinv"} & kwargs.keys())
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(confmax.eigen, "eigsh", recording)
    solve_pencil(M, k=4)
    assert passes == [set(), set()]


def test_k_beyond_the_spectrum_is_an_input_error():
    mesh = gen_icosphere(0)  # V = 12: eleven nonzero eigenvalues
    M = assemble_mass(mesh, uniform_density(mesh))
    assert solve_pencil(M, k=11).eigenvalues.shape == (11,)
    with pytest.raises(ValueError, match="k must be between 1 and 11"):
        solve_pencil(M, k=12)


def test_sphere_clusters_hold_over_seeds(sphere3):
    # whatever the start vectors, the solve resolves the 3-fold and the
    # 5-fold cluster in full; a Krylov space one pair too small has missed
    # one copy of the 5-fold one
    M = assemble_mass(sphere3, uniform_density(sphere3))
    for seed in range(10):
        res = solve_pencil(M, k=9, seed=seed)
        assert tuple(map(len, res.clusters)) == (3, 5, 1), seed


def test_factorization_failure_is_eigen_error(monkeypatch):
    def indefinite(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")
    monkeypatch.setattr(confmax.fem, "cholesky_banded", indefinite)
    with pytest.raises(EigenError, match="pencil solve failed: not positive definite"):
        _solve_uniform(gen_icosphere(2), 2)  # fresh: its factor is not built yet


def test_indefinite_mass_refused(sphere2):
    mu = uniform_density(sphere2).values.copy()
    mu -= 2.0 * mu.max()  # mostly negative: mass matrix indefinite
    M = assemble_mass(sphere2, mu)
    with pytest.raises(IndefiniteMassError, match="indefinite mass"):
        solve_pencil(M, k=2)


def test_signed_density_with_psd_blocks_needs_no_inertia_solve(sphere2, monkeypatch):
    # the sign test is a Cholesky factorization: the solve makes its two
    # Lanczos passes and no other eigensolve
    mu = uniform_density(sphere2).values.copy()
    mu[0] *= -0.5  # one negative corner per element keeps every block PSD
    M = assemble_mass(sphere2, mu)
    assert not M.nonnegative

    def forbidden(*args, **kwargs):
        raise AssertionError("inertia solve should not run")
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    runs = []
    eigsh = confmax.eigen.eigsh

    def counting(*args, **kwargs):
        runs.append(kwargs.get("which"))
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(confmax.eigen, "eigsh", counting)
    res = solve_pencil(M, k=2)
    assert runs == ["LA", "LA"]
    assert np.all(res.eigenvalues > 0)


def test_indefinite_blocks_fall_back_to_global_check(sphere2):
    # negative corners next to each other break some element blocks, yet the
    # assembled matrix stays positive definite, which the sign test confirms
    mu = uniform_density(sphere2).values.copy()
    mu[::7] *= -0.2
    M = assemble_mass(sphere2, mu)
    assert not M.nonnegative
    assert np.linalg.eigvalsh(M.matrix.toarray())[0] > 0
    res = solve_pencil(M, k=2)
    assert np.all(res.eigenvalues > 0)


def _signed_density(mesh, seed):
    """Unit-mass density in [0.5, 1.5] with a seeded share of vertices in [-0.5, 0]."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, mesh.vertex_count)
    neg = rng.random(mesh.vertex_count) < rng.uniform(0.0, 0.15)
    mu[neg] = -rng.uniform(0.0, 0.5, neg.sum())
    return mu / (mesh.vertex_areas @ mu)


@pytest.mark.parametrize("mesh, seeds", [("sphere2", 90), ("sphere3", 40), ("torus12", 90)])
def test_sign_test_agrees_with_dense_inertia(mesh, seeds, request):
    mesh = (gen_flat_torus(SQUARE, 12, 12) if mesh == "torus12"
            else request.getfixturevalue(mesh))
    refused = []
    for seed in range(seeds):
        M = assemble_mass(mesh, _signed_density(mesh, seed))
        A = M.matrix.toarray()
        indefinite = (scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])[0]
                      < -1e-12 * np.abs(A.diagonal()).max())
        try:
            confmax.eigen._standard_operator(M)
            refused.append(False)
        except IndefiniteMassError:
            refused.append(True)
        assert refused[-1] == indefinite, seed
    assert 0 < sum(refused) < seeds  # both outcomes occur


@pytest.mark.parametrize("mu0, indefinite", [(-1.0, True), (-0.5, False)])
def test_sign_test_reads_the_vertex_0_border(sphere2, mu0, indefinite):
    # with mu_0 = -1 the grounded M_g is positive definite while M is not:
    # only the border term m_g^T (M_g + tau I)^-1 m_g against 1^T m refuses it
    mu = np.ones(sphere2.vertex_count)
    mu[0] = mu0
    M = assemble_mass(sphere2, mu)
    A = M.matrix.toarray()
    assert np.linalg.eigvalsh(A[1:, 1:])[0] > 0
    assert (np.linalg.eigvalsh(A)[0] < 0) == indefinite
    if indefinite:
        with pytest.raises(IndefiniteMassError, match="indefinite mass"):
            solve_pencil(M, k=2)
    else:
        assert np.all(solve_pencil(M, k=2).eigenvalues > 0)


@pytest.mark.parametrize("mesh, zero", [
    ("sphere2", lambda mesh: [0]),  # the vertex-0 star
    ("sphere3", polar_cap),
], ids=["star", "cap"])
def test_zero_mass_rows_solve_the_whole_pencil(mesh, zero, request):
    # the density vanishes on a vertex set and its one-ring; the returned
    # vectors must solve K u = lambda M u on every row, zero-mass rows included,
    # with the eigenvalues of the Schur complement that eliminates those rows
    mesh = request.getfixturevalue(mesh)
    zero = zero(mesh)
    K = mesh.stiffness
    M = assemble_mass(mesh, vanishing_density(mesh, zero))
    massless = np.flatnonzero(np.abs(M.matrix).sum(axis=1) == 0)
    assert np.array_equal(massless, np.sort(zero))
    res = solve_pencil(M, k=4)

    Kd, Md = K.matrix.toarray(), M.matrix.toarray()
    s = np.setdiff1d(np.arange(mesh.vertex_count), massless)
    Kse = Kd[np.ix_(s, massless)]
    schur = Kd[np.ix_(s, s)] - Kse @ np.linalg.solve(Kd[np.ix_(massless, massless)], Kse.T)
    ref = scipy.linalg.eigh(schur, Md[np.ix_(s, s)], eigvals_only=True)[1:5]
    assert np.abs(res.eigenvalues - ref).max() <= 1e-12 * ref.max()

    U = res.eigenvectors
    rows = K.matrix @ U - (M.matrix @ U) * res.eigenvalues
    assert np.abs(rows).max() <= 1e-10
    assert np.abs(U.T @ (M.matrix @ U) - np.eye(4)).max() < 1e-10


def test_zero_mass_rows_need_no_quadratic_memory(sphere4):
    # a solve with zero-mass rows keeps to the uniform solve's memory: nothing
    # of size (zero-mass rows) x (mesh) is formed
    sphere4.stiffness.grounded_factor  # built before, not inside, the measured solves
    peaks = []
    for mu in (uniform_density(sphere4).values,
               vanishing_density(sphere4, polar_cap(sphere4))):
        M = assemble_mass(sphere4, mu)
        tracemalloc.start()
        solve_pencil(M, k=8)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_cluster_partition_examples():
    assert cluster_eigenvalues([2.001, 2.002, 2.003, 6.1], 0.05) == ((0, 1, 2), (3,))
    assert cluster_eigenvalues([1.0, 2.0, 3.0], 0.05) == ((0,), (1,), (2,))


def test_spectrum_rows(sphere2):
    res, _, _ = _solve_uniform(sphere2, 4)
    rows = spectrum_rows(res)
    assert len(rows) == 4
    assert rows[0][3] == 0  # first entry in first cluster
