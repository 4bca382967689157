import gc
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra

import confmax.certify
import confmax.fem
import confmax.frame
import confmax.maximizer
from confmax.bench import fixed_point_check, saturation_check
from confmax.fem import (DensityError, DensityField, assemble_mass, random_density,
                         uniform_density)
from confmax.frame import recover_density
from confmax.maximizer import (AscentConfig, ProjectionError, ascent_step,
                               detect_collapse, make_initial_density, maximize,
                               negative_measure, project_density,
                               saturated_measure, trace_csv_rows)
from confmax.mesh import TriangleMesh, gen_flat_torus, gen_icosphere
from conftest import EQUILATERAL, SQUARE, polar_cap, tilted_density, vanishing_density


def test_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=(16.0, 4.0))
    with pytest.raises(ValueError):
        AscentConfig(floor=-1.0)
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=())
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=(0.5,))  # a cap of N/A < 1/A cannot carry unit mass
    for bad in ((math.nan,), (4.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            AscentConfig(n_schedule=bad)
    for bad in (math.nan, math.inf, -1e-7):
        with pytest.raises(ValueError, match="lam_tol"):
            AscentConfig(lam_tol=bad)
    assert AscentConfig(lam_tol=0.0).lam_tol == 0.0


def test_config_refuses_an_empty_iteration_budget():
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_iters"):
            AscentConfig(max_iters=bad)
    assert AscentConfig(max_iters=1).max_iters == 1


def test_config_refuses_a_gap_that_splits_every_cluster():
    for bad in (-0.02, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="rel_gap"):
            AscentConfig(rel_gap=bad)


def test_projection_box_and_mass(sphere3):
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(sphere3.vertex_count) * 5.0
    cap = 4.0 / sphere3.area
    mu = project_density(sphere3, vals, 0.0, cap)
    a = sphere3.vertex_areas
    assert abs(a @ mu.values - 1.0) < 1e-11
    assert mu.values.min() >= -1e-12
    assert mu.values.max() <= cap + 1e-12


def test_projection_is_identity_on_feasible(sphere2):
    mu = uniform_density(sphere2)
    out = project_density(sphere2, mu.values, 0.0, 4.0 / sphere2.area)
    assert np.abs(out.values - mu.values).max() < 1e-11


def test_projection_infeasible_box(sphere2):
    with pytest.raises(ProjectionError):
        project_density(sphere2, np.ones(sphere2.vertex_count),
                        0.0, 0.5 / sphere2.area)


@pytest.mark.parametrize("floor", [0.0, -0.5])
def test_projection_at_unit_cap_is_uniform(sphere3, floor):
    # a cap of 1/A carries exactly unit mass: the box holds one density
    A = sphere3.area
    mu = project_density(sphere3, random_density(sphere3, 7).values, floor / A, 1.0 / A)
    assert np.abs(mu.values - 1.0 / A).max() <= 1e-12


@pytest.mark.parametrize("floor", [0.0, -0.5])
def test_projection_unchanged_by_a_cap_it_does_not_reach(sphere3, floor):
    A = sphere3.area
    for seed in range(5):
        vals = 3.0 * random_density(sphere3, seed).values - 1.5 / A
        low = project_density(sphere3, vals, floor / A, 16.0 / A)
        assert low.values.max() < 16.0 / A
        high = project_density(sphere3, vals, floor / A, 64.0 / A)
        assert np.array_equal(high.values, low.values)


def test_schedule_may_start_at_the_mean_density(sphere3):
    _, spectral, _, trace = maximize(sphere3, "random:0",
                                     AscentConfig(n_schedule=(1.0, 4.0)))
    assert trace.status == "converged"
    assert {r.N for r in trace.rows} == {1.0, 4.0}
    assert spectral.lambda1 == pytest.approx(8 * math.pi, rel=1e-2)


def test_uniform_sphere_is_fixed_point(sphere3):
    # the first trial lowers lambda by less than lam_tol: the line search ends
    # there and keeps the iterate, the density and lambda that the full search
    # of seven rejected halvings (lam_tol = 0) gives, to the bit
    mu = project_density(sphere3, uniform_density(sphere3).values, 0.0,
                         AscentConfig().n_schedule[0] / sphere3.area)
    flat_next, _, _, flat = ascent_step(mu, AscentConfig(), ())
    full_next, _, _, full = ascent_step(mu, AscentConfig(lam_tol=0.0), ())
    assert (flat["trials"], flat["search"]) == (1, "flat")
    assert (full["trials"], full["search"]) == (7, "exhausted")
    assert flat["step"] == full["step"] == 0.0
    assert flat["lambda_next"] == full["lambda_next"]
    assert np.array_equal(flat_next.values, full_next.values)
    assert np.array_equal(flat_next.values, mu.values)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_ascent_step_reports_capped_trials(sphere3):
    loose = project_density(sphere3, uniform_density(sphere3).values, 0.0,
                            4.0 / sphere3.area)
    assert not ascent_step(loose, AscentConfig(), ())[3]["capped"]
    tight = project_density(sphere3, tilted_density(sphere3, 43000).values, 0.0,
                            1.1 / sphere3.area)
    assert ascent_step(tight, AscentConfig(seed=43000), ())[3]["capped"]


def test_ascent_step_monotone(sphere3):
    cfg = AscentConfig(seed=1)
    cap = 4.0 / sphere3.area
    mu = project_density(sphere3, random_density(sphere3, 7).values, 0.0, cap)
    _, spectral, _, info = ascent_step(mu, cfg, ())
    assert info["lambda_next"] >= spectral.lambda1 * (1.0 - 1e-12)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_vanishing_region_is_not_absorbing(sphere3):
    # the eigenvectors are harmonic, not zero, where the density vanishes, so
    # the recovered density revives the region instead of keeping it at 0
    cap = polar_cap(sphere3)
    mu = project_density(sphere3, vanishing_density(sphere3, cap), 0.0,
                         AscentConfig().n_schedule[0] / sphere3.area)
    assert cap.size == 61
    _, _, frame, _ = ascent_step(mu, AscentConfig(), ())
    assert recover_density(frame).values[cap].min() > 0.0


def _record_k(monkeypatch):
    asked = []
    solve = confmax.maximizer.solve_pencil

    def recording(M, k, **kwargs):
        asked.append(k)
        return solve(M, k, **kwargs)
    monkeypatch.setattr(confmax.maximizer, "solve_pencil", recording)
    return asked


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_trials_solve_for_lambda1_alone(sphere3, monkeypatch):
    asked = _record_k(monkeypatch)
    cfg = AscentConfig(seed=1)
    mu = project_density(sphere3, random_density(sphere3, 7).values, 0.0,
                         4.0 / sphere3.area)
    _, spectral, _, info = ascent_step(mu, cfg, ())
    assert info["trials"] == 3  # t = 1/2 and 1/4 rejected, t = 1/8 accepted
    assert asked == [cfg.k_eigen, 1, 1, 1]
    assert len(spectral.eigenvalues) == cfg.k_eigen


def test_anderson_mix_of_three_iterates_is_an_affine_maps_fixed_point():
    # on the plane, two residual differences span every residual, so the mix
    # of three iterates of G(x) = A x + b lands on the fixed point exactly
    A = np.array([[0.6, 0.3], [-0.2, 0.7]])
    b = np.array([1.0, -2.0])
    x = [np.array([5.0, 3.0])]
    for _ in range(2):
        x.append(A @ x[-1] + b)
    pairs = tuple((xi, A @ xi + b) for xi in x)
    fixed = np.linalg.solve(np.eye(2) - A, b)
    mix = confmax.maximizer._anderson_mix(pairs, np.array([0.5, 2.0]))
    assert np.allclose(mix, fixed, rtol=0.0, atol=1e-12)
    assert np.abs(x[-1] - fixed).max() > 0.1  # the plain iterates are far from it


@pytest.mark.parametrize("surface, row", [
    ("sphere3", (4.0, 25.15736927373595, 0.0, 1, 126)),
    ("eq_torus16", (4.0, 46.1745376639578, 0.5, 1, 126))])
def test_uniform_starts_never_mix(surface, row, request):
    # each stage's first step is the plain step, and a uniform start settles
    # the run on it: the row is the one the unmixed ascent writes, to the bit.
    # On the sphere the first trial already lies within lam_tol of lambda, so
    # the line search ends there (1 trial, not 7) and rejects the step.
    mesh = request.getfixturevalue(surface)
    trace = maximize(mesh, "uniform", AscentConfig())[3]
    assert [(r.N, r.lambda1_area, r.step, r.trials, r.applications)
            for r in trace.rows] == [row]
    assert not any(r.mixed for r in trace.rows)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_rejected_mix_falls_through_to_the_plain_line_search(sphere3, monkeypatch):
    # a mixed candidate that puts all the mass on a hemisphere lowers
    # lambda_1 (24.47 -> 19.68); the step then takes the plain line search's
    # trials and density, and the history empties
    cfg = AscentConfig(seed=1)
    mu = project_density(sphere3, random_density(sphere3, 7).values, 0.0,
                         4.0 / sphere3.area)
    plain_next, _, _, plain = ascent_step(mu, cfg, ())
    hemisphere = (sphere3.embedding[:, 2] > 0.0).astype(float)
    monkeypatch.setattr(confmax.maximizer, "_anderson_mix", lambda pairs, w: hemisphere)
    history = plain["history"] * confmax.maximizer.ANDERSON_MEMORY  # full; its mix is patched
    mu_next, _, _, info = ascent_step(mu, cfg, history)
    assert not info["mixed"] and info["history"] == ()
    assert info["trials"] == 1 + plain["trials"]
    assert info["applications"] > plain["applications"]
    assert info["step"] == plain["step"]
    assert np.array_equal(mu_next.values, plain_next.values)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_tilted_sphere_path(monkeypatch):
    # the iterate and final solves ask for the whole block, every trial for
    # lambda_1 alone; the steps are those this path takes when the trials
    # solve for the whole block too
    asked = _record_k(monkeypatch)
    mesh = gen_icosphere(3)
    cfg = AscentConfig(seed=43000)
    trace = maximize(mesh, tilted_density(mesh, 43000), cfg)[3]
    expected = []
    for row in trace.rows:
        expected += [cfg.k_eigen] + [1] * row.trials
    assert asked == expected + [cfg.k_eigen]
    # two plain steps fill the history; the third and fourth steps take the
    # mixed candidate, the fifth rejects it and steps plainly, and after two
    # more plain steps the N=4 stage ends on a rejected step (the mix and
    # seven plain trials, each lowering lambda by more than lam_tol, so the
    # search is exhausted) whose trials stay below the cap, so the N=16 and
    # N=64 stages would repeat it and run no iterations
    assert [row.step for row in trace.rows] == [0.25] + [0.5] * 6 + [0.0]
    assert [row.trials for row in trace.rows] == [2, 1, 1, 1, 2, 1, 1, 8]
    assert [row.search for row in trace.rows] == ["accepted"] * 7 + ["exhausted"]
    assert [row.mixed for row in trace.rows] == [False] * 2 + [True] * 2 + [False] * 4
    assert trace.skipped_stages == [16.0, 64.0]


def test_lambda1_trials_agree_with_leading_block_at_a_tie(monkeypatch):
    # from uniform on the equilateral torus, lambda_1 is 4-fold and the trials
    # split it at round-off; a k=1 trial must still land within the safeguard
    # slack (1e-12) of the block solve it stands in for
    trials = []
    solve = confmax.maximizer.solve_pencil

    def recording(M, k, **kwargs):
        res = solve(M, k, **kwargs)
        if k == 1:
            trials.append((M, kwargs, res.lambda1))
        return res
    monkeypatch.setattr(confmax.maximizer, "solve_pencil", recording)
    mesh = gen_flat_torus(EQUILATERAL, 48, 48)
    maximize(mesh, uniform_density(mesh), AscentConfig())
    assert trials
    for M, kwargs, lam in trials:
        block = solve(M, 8, **kwargs).lambda1
        assert abs(lam - block) <= 1e-12 * block


@pytest.mark.parametrize("lattice, lam_three_stages", [
    (SQUARE, 40.38835488945399), (EQUILATERAL, 46.636455135108164)])
def test_flat_torus_settles_on_a_step_the_safeguard_cannot_resolve(lattice, lam_three_stages):
    # uniform is an exact fixed point: the N=4 step is accepted but moves lambda
    # by round-off, under the safeguard slack, and no trial reaches the cap
    mesh = gen_flat_torus(lattice, 12, 12)
    _, spectral, _, trace = maximize(mesh, "uniform", AscentConfig())
    assert [row.N for row in trace.rows] == [4.0]
    assert trace.rows[0].step > 0.0
    assert trace.skipped_stages == [16.0, 64.0]
    assert trace.status == "converged"
    # the value the run reaches when the N=16 and N=64 stages retake that step
    assert spectral.lambda1 == pytest.approx(lam_three_stages, rel=1e-12)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_stage_runs_when_its_last_step_moved_lambda_past_the_slack(sphere2):
    # every stage ends on an accepted step that moves lambda by about 1e-7
    # relative: under lam_tol but far over the safeguard slack, so no stage
    # settles the run
    _, spectral, _, trace = maximize(sphere2, "random:0", AscentConfig())
    assert len(trace.rows) == 35
    assert {row.N for row in trace.rows} == {4.0, 16.0, 64.0}
    assert trace.skipped_stages == []
    assert spectral.lambda1 == 25.22997966617457


def _tilted_sphere_run(n_schedule):
    mesh = gen_icosphere(3)
    cfg = AscentConfig(seed=43000, n_schedule=n_schedule)
    return maximize(mesh, tilted_density(mesh, 43000), cfg)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_stage_runs_when_a_trial_reached_the_cap():
    # the N=1.15 stage ends on a rejected step whose trials reach the cap
    trace = _tilted_sphere_run((1.15, 4.0))[3]
    assert len(trace.rows) == 9
    assert [row.step for row in trace.rows if row.N == 1.15][-1] == 0.0
    assert any(row.N == 4.0 for row in trace.rows)
    assert trace.skipped_stages == []


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_stage_skipped_when_no_trial_reached_the_cap():
    # the cap binds on the first three iterates, but no trial of the last,
    # rejected step reaches it
    _, spectral, _, trace = _tilted_sphere_run((1.6, 4.0))
    assert len(trace.rows) == 6
    assert all(row.N == 1.6 for row in trace.rows)
    assert trace.rows[0].EN_measure > 0.0
    assert trace.rows[-1].step == 0.0
    assert trace.skipped_stages == [4.0]
    # the value the run reaches when the N=4 stage repeats the rejected step
    assert spectral.lambda1 == pytest.approx(25.1583690986649, rel=1e-12)
    # the skipped stage never reached its cap: A(E_4) = 0 in the decay check
    check = saturation_check(trace, "tilted sphere")
    assert check.passed
    assert check.detail.endswith(f"measures ['{trace.rows[-1].EN_measure:.3e}', "
                                 "'0.000e+00']")


def test_maximize_sphere_reaches_round_value(sphere3):
    cfg = AscentConfig(n_schedule=(4.0, 16.0), max_iters=60)
    mu, spectral, frame, trace = maximize(sphere3, "random:3", cfg)
    # with a unit-mass density the pencil eigenvalue is already area-normalized
    lam_area = spectral.lambda1
    assert abs(lam_area - 8.0 * math.pi) / (8.0 * math.pi) < 5e-3
    assert trace.status == "converged"
    # the whole trace is non-decreasing within each continuation stage
    for a, b in zip(trace.rows, trace.rows[1:]):
        if a.N == b.N:
            assert b.lambda1_area >= a.lambda1_area * (1.0 - 1e-12)


def test_maximize_factors_the_stiffness_once(monkeypatch):
    # every solve of a run, line-search trials included, shares one factor,
    # and so do later runs and checks on the mesh, which holds it
    mesh = gen_icosphere(2)  # fresh: a session mesh may hold its factor already
    calls = [0]
    cholesky_banded = confmax.fem.cholesky_banded

    def counting(*args, **kwargs):
        calls[0] += 1
        return cholesky_banded(*args, **kwargs)
    monkeypatch.setattr(confmax.fem, "cholesky_banded", counting)
    trace = maximize(mesh, "random:0", AscentConfig())[3]
    assert len(trace.rows) > 1
    maximize(mesh, "uniform", AscentConfig())
    assert fixed_point_check(mesh, "sphere").passed
    assert calls[0] == 1


def test_maximize_evaluates_the_gradient_field_once_per_consumer(sphere2, monkeypatch):
    # one evaluation per iterate's recovered density, then two in the
    # certificate: the raw frame's field and the normalized map's
    calls = [0]
    gradient_field = confmax.fem.gradient_field

    def counting(*args, **kwargs):
        calls[0] += 1
        return gradient_field(*args, **kwargs)
    for module in (confmax.frame, confmax.certify):
        monkeypatch.setattr(module, "gradient_field", counting)
    trace = maximize(sphere2, "random:0", AscentConfig())[3]
    assert len(trace.rows) > 1
    assert calls[0] == len(trace.rows) + 2


def test_maximize_attaches_certificate(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), max_iters=40)
    _, _, _, trace = maximize(sphere3, "uniform", cfg)
    cert = trace.certificate
    assert cert is not None
    assert cert["schema"] == "confspec-cert-1"
    assert cert["bounds"]["hersch_floor_ok"]


def test_fully_saturated_density_certifies(sphere2):
    # at N = 1 the only feasible density is uniform at the cap: the sphere
    # constraint binds nowhere, so its residual is over an empty set
    mu, _, _, trace = maximize(sphere2, "uniform", AscentConfig(n_schedule=(1.0,)))
    assert saturated_measure(mu) == pytest.approx(sphere2.area)
    assert trace.certificate["sphere_residual"] == 0.0


def test_negative_floor_mode(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), floor=-0.5, max_iters=40)
    mu, spectral, _, trace = maximize(sphere3, "uniform", cfg)
    assert mu.values.min() >= -0.5 / sphere3.area - 1e-12
    assert negative_measure(mu) <= 1e-12
    assert trace.status == "converged"


def test_measures(sphere2):
    cap = 4.0 / sphere2.area
    a = sphere2.vertex_areas
    vals = np.zeros(sphere2.vertex_count)
    vals[:5] = cap
    rest = 1.0 - a[:5].sum() * cap
    vals[5:] = rest / a[5:].sum()
    mu = DensityField(sphere2, vals, 0.0, cap)
    sat = saturated_measure(mu)
    assert sat >= sphere2.vertex_areas[:5].sum() * (1.0 - 1e-9)
    assert negative_measure(mu) == 0.0


def _all_pairs(mesh):
    """Dense all-pairs edge-path distances: the reference for detect_collapse."""
    i, j = mesh.edges[:, 0], mesh.edges[:, 1]
    g = coo_matrix((np.tile(mesh.edge_lengths, 2),
                    (np.concatenate([i, j]), np.concatenate([j, i]))),
                   shape=(mesh.vertex_count,) * 2).tocsr()
    return dijkstra(g, directed=False)


def test_detect_collapse_flags_concentration(sphere3):
    d = _all_pairs(sphere3)
    near = d[0] <= 0.05 * d.max()
    vals = np.where(near, 1.0, 1e-9)
    vals /= sphere3.vertex_areas @ vals
    mu = DensityField(sphere3, vals)
    out = detect_collapse(mu)
    assert out["flag"]
    assert out["max_ball_mass"][0.05] > 0.5


def test_detect_collapse_uniform_clean(sphere3):
    out = detect_collapse(uniform_density(sphere3))
    assert not out["flag"]


def _reference_record(d, mu):
    """Ball mass from all-pairs distances, the same double sweep on the dense rows.

    Each ball sums its vertices' masses in ascending vertex order, as a CSR row
    product does, so the reference holds to the last bit.
    """
    diam = d[np.argmax(d[0])].max()
    vmass = mu.values * mu.mesh.vertex_areas
    return diam, {0.05: (csr_matrix(d <= 0.05 * diam) @ vmass).max()}


def _permuted(mesh, seed):
    """The mesh with its vertices renumbered by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(mesh.vertex_count)  # new -> old
    return TriangleMesh.from_embedding(mesh.embedding[perm],
                                       np.argsort(perm)[mesh.triangles])


def _ball_density(mesh, d, x, mass):
    """Unit-mass density holding `mass` evenly on B(x, 0.05 diam), the rest evenly off it."""
    near = d[x] <= 0.05 * d[np.argmax(d[0])].max()
    a = mesh.vertex_areas
    return DensityField(mesh, np.where(near, mass / a[near].sum(), (1 - mass) / a[~near].sum()))


def _bracket_densities(mesh, d, case):
    if case in ("uniform", "random"):
        first = uniform_density(mesh) if case == "uniform" else random_density(mesh, 5)
        return [first, random_density(mesh, 11)]
    if case == "signed":  # floor -0.5 mean densities: at the floor on 13% of the vertices
        vals = np.random.default_rng(3).uniform(-1.5, 2.5, mesh.vertex_count) / mesh.area
        return [project_density(mesh, vals, -0.5 / mesh.area, 64.0 / mesh.area)]
    if case == "permuted":
        return [uniform_density(mesh), random_density(mesh, 5)]
    # vertex 7 is no centre of icosphere 3's net, and no centre's ball holds
    # more than half of either density, so the exact balls decide the flag
    return [_ball_density(mesh, d, 7, 0.49), _ball_density(mesh, d, 7, 0.55)]


@pytest.mark.parametrize("case", ["uniform", "random", "signed", "permuted", "refined"])
def test_detect_collapse_matches_all_pairs(sphere3, eq_torus16, case):
    # On icosphere 3 (s = 6) the centres' balls bracket the all-pairs maximum and
    # the flag is the all-pairs flag. On eq_torus16 every ball holds one vertex
    # (s = 1): every vertex is a centre and the record is the all-pairs one, bit
    # for bit.
    meshes = {"uniform": (sphere3, eq_torus16), "random": (sphere3, eq_torus16),
              "permuted": (_permuted(sphere3, 2),)}.get(case, (sphere3,))
    for mesh in meshes:
        d = _all_pairs(mesh)
        centres = detect_collapse(uniform_density(mesh))["centres"]
        for mu in _bracket_densities(mesh, d, case):
            diam, ref = _reference_record(d, mu)
            out = detect_collapse(mu)
            assert out["diameter"] == diam
            assert out["flag"] == (ref[0.05] > 0.5)
            lower, upper = out["max_ball_mass"][0.05], out["max_ball_mass_upper"][0.05]
            assert lower <= ref[0.05] <= upper
            assert (out["centres"] > centres) == (case == "refined")
            if mesh is eq_torus16:
                assert centres == mesh.vertex_count
                assert out["max_ball_mass"] == out["max_ball_mass_upper"] == ref
            else:
                assert centres < mesh.vertex_count / 4
    if case == "signed":
        assert mu.values.min() == -0.5 / mesh.area


def test_collapse_search_counts_distance_rows(monkeypatch):
    # Distance rows of a mesh's first call: the double sweep's two, one for the
    # multi-source search that finds each vertex's nearest centre, and one per
    # ball searched. Where every ball holds one vertex (s = 1, the equilateral
    # n=16 torus) each vertex is its own centre and the multi-source search is
    # skipped: V + 2, as a full search from every vertex takes. The mesh holds
    # the net, so a later call at uniform, which opens no exact ball, takes
    # none. Freshly generated meshes: a shared fixture may be searched already.
    rows = []

    def counting(graph, **kwargs):
        rows.append(1 if kwargs.get("min_only") else np.size(kwargs["indices"]))
        return dijkstra(graph, **kwargs)

    monkeypatch.setattr(confmax.maximizer, "dijkstra", counting)
    torus = gen_flat_torus(EQUILATERAL, 16, 16)
    for mesh, searched in ((gen_icosphere(4), None), (torus, torus.vertex_count)):
        rows.clear()
        out = detect_collapse(uniform_density(mesh))
        if searched is None:
            assert sum(rows) == out["centres"] + 3
            assert sum(rows) < mesh.vertex_count / 4
        else:
            assert out["centres"] == searched
            assert sum(rows) == searched + 2
        rows.clear()
        assert detect_collapse(uniform_density(mesh)) == out
        assert rows == []


def test_collapse_search_memory():
    # A first call peaks while a block of sources is searched: its distance slab
    # of 2**18 float64 entries (2.1 MB) is filled while the previous block's is
    # still bound, 4.2 MB. The slab's bool mask adds 0.26 MB, the net's ball
    # entries and the graph and O(V) vectors under 2 MB at icosphere 5. 8 MB
    # bounds that (measured: 3.7 MB at icosphere 4, 5.8 MB at icosphere 5).
    # The mesh gains exactly its net, linear in V. Per vertex: the graph's
    # 2E = 6V entries at 12 B (float64 length, int32 index) and its indptr,
    # 76 B; each vertex's cell, 8 B; the two incidences at 12 B per entry,
    # B(c, r) about 1.2 entries per vertex and B(c, r + delta_c) about 7. So
    # 256 B per vertex leaves room for 14 incidence entries per vertex
    # (measured: 180 B at icosphere 4, 184 B at icosphere 5). Keeping every
    # vertex's ball would grow as V^2. A second call reads the net: it peaks
    # at its mass vector and that vector's positive part, and a few
    # centre-sized sums, under four V-vectors of float64 (measured: 17 and
    # 16 B per vertex), and keeps nothing.
    for level in (4, 5):
        mesh = gen_icosphere(level)
        mu = uniform_density(mesh)
        held = dict(vars(mesh))
        tracemalloc.start()
        try:
            detect_collapse(mu)
            gc.collect()
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            detect_collapse(mu)
            gc.collect()
            again, second_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = mesh.vertex_count
        assert peak <= 8e6
        assert kept < 256 * n
        assert second_peak - kept < 4 * 8 * n
        assert again - kept < 8 * n
        assert vars(mesh).keys() == held.keys() | {"collapse_net"}
        assert all(vars(mesh)[k] is v for k, v in held.items())


@pytest.mark.parametrize("mesh_name, case", [
    ("sphere3", "uniform"), ("sphere3", "random"), ("sphere3", "signed"),
    ("sphere3", "refined"), ("eq_torus16", "uniform"), ("eq_torus16", "random")])
def test_collapse_record_same_on_every_call(mesh_name, case):
    # The held net makes a later call two products over the same balls: its
    # record equals the first call's bit for bit, and equals the first call's
    # on a freshly generated copy of the mesh, whatever density searched the
    # mesh before. The refined densities run the exact balls on each call.
    make = {"sphere3": lambda: gen_icosphere(3),
            "eq_torus16": lambda: gen_flat_torus(EQUILATERAL, 16, 16)}[mesh_name]
    mesh = make()
    for mu in _bracket_densities(mesh, _all_pairs(mesh), case):
        fresh = DensityField(make(), mu.values, mu.floor, mu.cap)
        first = detect_collapse(fresh)
        assert detect_collapse(fresh) == first
        assert detect_collapse(mu) == detect_collapse(mu) == first


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_certificate_collapse_is_the_final_density_record():
    # maximize searches twice on its mesh, in its own status check and in the
    # certificate; the certificate's record is the final density's on a mesh
    # that was never searched
    mu, *_, trace = maximize(gen_icosphere(2), "random:0", AscentConfig())
    fresh = DensityField(gen_icosphere(2), mu.values, mu.floor, mu.cap)
    assert trace.certificate["collapse"] == detect_collapse(fresh)


def test_double_sweep_diameter_exact_on_flat_torus(eq_torus16):
    out = detect_collapse(uniform_density(eq_torus16))
    assert out["diameter"] == _all_pairs(eq_torus16).max()


def test_make_initial_density_variants(sphere2):
    cap = 4.0 / sphere2.area
    u = make_initial_density(sphere2, "uniform", 0.0, cap)
    r1 = make_initial_density(sphere2, "random:5", 0.0, cap)
    r2 = make_initial_density(sphere2, "random:5", 0.0, cap)
    assert np.array_equal(r1.values, r2.values)
    assert not np.array_equal(u.values, r1.values)
    assert np.array_equal(make_initial_density(sphere2, "random", 0.0, cap, seed=5).values,
                          r1.values)
    # only 'random' and 'random:<int>' name a random density
    for spec in ("banana", "randomX", "random:", "random:x", "random_peak.json"):
        with pytest.raises(ValueError):
            make_initial_density(sphere2, spec, 0.0, cap)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_density_of_another_mesh_is_refused(sphere2):
    # icosphere:2 and the 9 x 18 square torus both have V = 162, so only the
    # density's own mesh tells them apart
    torus = gen_flat_torus(SQUARE, 9, 18)
    assert torus.vertex_count == sphere2.vertex_count
    cap, config = 4.0 / torus.area, AscentConfig(n_schedule=(4.0,), max_iters=1)
    foreign, own = random_density(sphere2, 0), random_density(torus, 0)
    for call in (lambda mu: make_initial_density(torus, mu, 0.0, cap),
                 lambda mu: assemble_mass(torus, mu),
                 lambda mu: maximize(torus, mu, config)):
        with pytest.raises(DensityError, match="^density lives on another mesh$"):
            call(foreign)
        call(own)  # a density on the same mesh object is accepted


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_point_mass_start_ends_in_collapse():
    # 0.9 of the mass on vertex 0 and the rest uniform, a peak 45.2 times the
    # mean: one step at N = 64 leaves over half the mass in one 0.05 ball
    mesh = gen_icosphere(1)
    a = mesh.vertex_areas
    vals = np.full(mesh.vertex_count, 0.1 / (mesh.area - a[0]))
    vals[0] = 0.9 / a[0]
    trace = maximize(mesh, vals, AscentConfig(n_schedule=(64.0,), max_iters=1))[3]
    assert trace.status == "collapse"
    collapse = trace.certificate["collapse"]
    assert collapse["flag"]
    assert collapse["max_ball_mass"][0.05] > 0.5


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a stalled ascent reports converged")
@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
@pytest.mark.parametrize("lattice, seed", [(SQUARE, 2), (EQUILATERAL, 0)],
                         ids=["square24-random2", "equilateral24-random0"])
def test_stalled_torus_ascent_is_not_converged(lattice, seed):
    # Each run ends on a rejected step at a split lambda_1 cluster, 1 to 2
    # iterations in, with sphere residual 0.991 and 0.999 against the
    # certificate's 5e-2: the frame never meets the sphere constraint, so
    # the run has not converged
    trace = maximize(gen_flat_torus(lattice, 24, 24), f"random:{seed}", AscentConfig())[3]
    assert trace.status != "converged"


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_trace_rows_count_operator_applications(sphere2, monkeypatch):
    # a row adds up the applications of its iterate's k_eigen solve and of
    # its k = 1 trials, mixed ones included, accepted or not; the final solve
    # comes after the last row
    solves, mixes = [], [0]
    solve, mix = confmax.maximizer.solve_pencil, confmax.maximizer._anderson_mix

    def recording(M, k, **kwargs):
        res = solve(M, k, **kwargs)
        solves.append((k, res.applications))
        return res

    def counting(*args):
        mixes[0] += 1
        return mix(*args)
    monkeypatch.setattr(confmax.maximizer, "solve_pencil", recording)
    monkeypatch.setattr(confmax.maximizer, "_anderson_mix", counting)
    config = AscentConfig(n_schedule=(4.0,), max_iters=5)
    trace = maximize(sphere2, "random:0", config)[3]
    assert 0 < sum(row.mixed for row in trace.rows) < mixes[0]  # one mix was rejected
    per_iterate = []
    for k, applications in solves[:-1]:
        if k == config.k_eigen:
            per_iterate.append(0)
        per_iterate[-1] += applications
    assert len(per_iterate) == len(trace.rows) > 1
    assert [row.applications for row in trace.rows] == per_iterate


def test_trace_csv_rows_shape(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), max_iters=5)
    _, _, _, trace = maximize(sphere3, "uniform", cfg)
    header, rows = trace_csv_rows(trace)
    assert header[0] == "iter" and header[-1] == "search" and len(rows) == len(trace.rows)
    assert "applications" in header
    assert all(len(r) == len(header) for r in rows)
