"""Randomized invariants, kept fast by using small fixed meshes."""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confmax.certify import moebius_map
from confmax.eigen import solve_pencil
from confmax.fem import assemble_mass, assemble_stiffness
from confmax.maximizer import project_density
from confmax.mesh import TriangleMesh, gen_icosphere

_MESH = gen_icosphere(1)
_FAST = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@given(scale=st.floats(min_value=0.1, max_value=10.0,
                       allow_nan=False, allow_infinity=False))
@_FAST
def test_stiffness_conformally_invariant(scale):
    # rescaling every edge length leaves the cotangent weights unchanged
    K0 = assemble_stiffness(_MESH).matrix
    scaled = TriangleMesh(
        _MESH.vertex_count, _MESH.triangles,
        np.column_stack([_MESH.edges, _MESH.edge_lengths * scale]))
    K1 = assemble_stiffness(scaled).matrix
    assert abs(K0 - K1).max() < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@_FAST
def test_projection_feasible_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(_MESH.vertex_count) * 3.0
    cap = 8.0 / _MESH.area
    mu = project_density(_MESH, vals, 0.0, cap)
    a = _MESH.vertex_areas
    assert abs(a @ mu.values - 1.0) < 1e-11
    assert mu.values.min() >= -1e-12 and mu.values.max() <= cap * (1 + 1e-12)
    again = project_density(_MESH, mu.values, 0.0, cap)
    assert np.abs(again.values - mu.values).max() < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@_FAST
def test_mass_matrix_total_is_density_mass(seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.2, 2.0, _MESH.vertex_count)
    M = assemble_mass(_MESH, mu).matrix
    total = float(M.sum())
    expected = float(_MESH.vertex_areas @ mu)
    assert abs(total - expected) < 1e-12 * max(1.0, expected)


@given(data=st.data())
@_FAST
def test_moebius_inverse(data):
    fl = st.floats(min_value=-0.5, max_value=0.5,
                   allow_nan=False, allow_infinity=False)
    e = np.array([data.draw(fl) for _ in range(3)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    x = rng.standard_normal((10, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    back = moebius_map(-e, moebius_map(e, x))
    assert np.abs(back - x).max() < 1e-12


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_solver_deflates_constants(seed):
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 1.5, _MESH.vertex_count)
    mu /= _MESH.vertex_areas @ mu
    M = assemble_mass(_MESH, mu)
    res = solve_pencil(M, k=4, seed=seed)
    # no zero eigenvalue leaks through, and every mode is M-orthogonal to 1
    assert res.eigenvalues.min() > 1e-6
    ones = np.ones(_MESH.vertex_count)
    overlap = np.abs(ones @ (M.matrix @ res.eigenvectors)).max()
    assert overlap < 1e-8
