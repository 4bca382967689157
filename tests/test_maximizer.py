import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from confmax.fem import DensityField, random_density, uniform_density
from confmax.maximizer import (AscentConfig, ProjectionError, ascent_step,
                               detect_collapse, make_initial_density, maximize,
                               negative_measure, project_density,
                               saturated_measure, trace_csv_rows)


def test_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=(16.0, 4.0))
    with pytest.raises(ValueError):
        AscentConfig(damping=0.0)
    with pytest.raises(ValueError):
        AscentConfig(floor=-1.0)
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=())
    with pytest.raises(ValueError):
        AscentConfig(n_schedule=(0.5,))  # a cap of N/A < 1/A cannot carry unit mass


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


def test_uniform_sphere_is_fixed_point(sphere3):
    cfg = AscentConfig()
    cap = cfg.n_schedule[0] / sphere3.area
    mu = project_density(sphere3, uniform_density(sphere3).values, 0.0, cap)
    mu_next, _, _, info = ascent_step(sphere3, mu, cfg)
    move = sphere3.vertex_areas @ np.abs(mu_next.values - mu.values)
    assert move < 1e-6


def test_ascent_step_monotone(sphere3):
    cfg = AscentConfig(seed=1)
    cap = 4.0 / sphere3.area
    mu = project_density(sphere3, random_density(sphere3, 7).values, 0.0, cap)
    _, spectral, _, info = ascent_step(sphere3, mu, cfg)
    assert info["lambda_next"] >= info["lambda_k"] * (1.0 - 1e-12)
    assert info["lambda_k"] == pytest.approx(spectral.lambda1)


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


def test_maximize_attaches_certificate(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), max_iters=40)
    _, _, _, trace = maximize(sphere3, "uniform", cfg)
    cert = trace.certificate
    assert cert is not None
    assert cert["schema"] == "confspec-cert-1"
    assert cert["bounds"]["hersch_floor_ok"]


def test_negative_floor_mode(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), floor=-0.5, max_iters=40)
    mu, spectral, _, trace = maximize(sphere3, "uniform", cfg)
    assert mu.values.min() >= -0.5 / sphere3.area - 1e-12
    assert negative_measure(sphere3, mu) <= 1e-12
    assert trace.status == "converged"


def test_measures(sphere2):
    cap = 4.0 / sphere2.area
    a = sphere2.vertex_areas
    vals = np.zeros(sphere2.vertex_count)
    vals[:5] = cap
    rest = 1.0 - a[:5].sum() * cap
    vals[5:] = rest / a[5:].sum()
    mu = DensityField(sphere2, vals, 0.0, cap)
    sat = saturated_measure(sphere2, mu)
    assert sat >= sphere2.vertex_areas[:5].sum() * (1.0 - 1e-9)
    assert negative_measure(sphere2, mu) == 0.0


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
    out = detect_collapse(mu, sphere3)
    assert out["flag"]
    assert out["max_ball_mass"][0.05] > 0.5


def test_detect_collapse_uniform_clean(sphere3):
    out = detect_collapse(uniform_density(sphere3), sphere3)
    assert not out["flag"]


@pytest.mark.parametrize("density", ["uniform", "random"])
def test_detect_collapse_matches_all_pairs(sphere3, density):
    # V = 642: two source blocks
    mu = (uniform_density(sphere3) if density == "uniform"
          else random_density(sphere3, 5))
    d = _all_pairs(sphere3)
    diam = d[np.argmax(d[0])].max()  # the same double sweep, on the dense rows
    vmass = mu.values * sphere3.vertex_areas
    ref = {r: ((d <= r * diam) @ vmass).max() for r in (0.05, 0.1, 0.2)}
    out = detect_collapse(mu, sphere3)
    assert out["diameter"] == diam
    assert out["max_ball_mass"] == ref
    assert out["flag"] == (ref[0.05] > 0.5)


def test_double_sweep_diameter_exact_on_flat_torus(eq_torus16):
    out = detect_collapse(uniform_density(eq_torus16), eq_torus16)
    assert out["diameter"] == _all_pairs(eq_torus16).max()


def test_make_initial_density_variants(sphere2):
    cap = 4.0 / sphere2.area
    u = make_initial_density(sphere2, "uniform", 0.0, cap)
    r1 = make_initial_density(sphere2, "random:5", 0.0, cap)
    r2 = make_initial_density(sphere2, "random:5", 0.0, cap)
    assert np.array_equal(r1.values, r2.values)
    assert not np.array_equal(u.values, r1.values)
    with pytest.raises(ValueError):
        make_initial_density(sphere2, "banana", 0.0, cap)


def test_trace_csv_rows_shape(sphere3):
    cfg = AscentConfig(n_schedule=(4.0,), max_iters=5)
    _, _, _, trace = maximize(sphere3, "uniform", cfg)
    header, rows = trace_csv_rows(trace)
    assert header[0] == "iter" and len(rows) == len(trace.rows)
    assert all(len(r) == len(header) for r in rows)
