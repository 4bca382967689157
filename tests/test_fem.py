import math

import numpy as np
import pytest

from confmax.eigen import solve_pencil
from confmax.fem import (DensityError, DensityField, _element_blocks_psd,
                         assemble_mass, assemble_stiffness, gradient_field,
                         random_density, uniform_density)
from confmax.mesh import TriangleMesh, gen_flat_torus
from conftest import SQUARE, polar_cap, vanishing_density
from test_mesh import regular_tetrahedron


def test_equilateral_cot_weights():
    # every edge of a regular tetrahedron takes -cot(60)/2 from each of its
    # two incident equilateral triangles
    m = regular_tetrahedron()
    K = assemble_stiffness(m).matrix.toarray()
    off = -2 * (1.0 / (2 * math.sqrt(3.0)))
    for i, j in m.edges:
        assert K[i, j] == pytest.approx(off, rel=1e-12)


def test_right_angle_edge_weight_zero(square_torus16):
    # the diagonal of each grid cell is opposite two right angles
    K = assemble_stiffness(square_torus16).matrix
    n = 16
    c00, c11 = 0, 1 * n + 1
    assert K[c00, c11] == pytest.approx(0.0, abs=1e-14)


def test_stiffness_row_sums(sphere3):
    K = assemble_stiffness(sphere3).matrix
    ones = np.ones(sphere3.vertex_count)
    assert np.abs(K @ ones).max() < 1e-12


def test_stiffness_psd(sphere2):
    K = assemble_stiffness(sphere2).matrix
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u = rng.standard_normal(sphere2.vertex_count)
        assert u @ (K @ u) >= 0
    c = np.full(sphere2.vertex_count, 3.7)
    assert abs(c @ (K @ c)) < 1e-10


def test_consistent_mass_uniform_element():
    m = regular_tetrahedron()
    A = m.areas[0]
    M = assemble_mass(m, np.ones(4)).matrix.toarray()
    # each edge is shared by two faces: off-diagonal 2 * A/12
    for i, j in m.edges:
        assert M[i, j] == pytest.approx(2 * A / 12, rel=1e-12)
    # each vertex sees three faces: diagonal 3 * A/6
    assert M[0, 0] == pytest.approx(3 * A / 6, rel=1e-12)


def test_mass_zero_density_zero_element():
    m = regular_tetrahedron()
    mu = np.array([0.0, 0.0, 0.0, 1.0])  # face (0,1,2) has zero density
    M = assemble_mass(m, mu).matrix.toarray()
    # build the same mesh minus the zero face's contribution by hand:
    # entry (0,1) should only carry the faces adjacent to vertex 3
    A = m.areas[0]
    # int phi_0 phi_1 mu over face (0,3,1): (A/60)(mu0+mu1+tot)=(A/60)(0+0+1)
    assert M[0, 1] == pytest.approx(A / 60, rel=1e-12)


def test_mass_total_random(sphere2):
    rng = np.random.default_rng(1)
    for _ in range(20):
        mu = rng.uniform(0.1, 3.0, sphere2.vertex_count)
        M = assemble_mass(sphere2, mu).matrix
        total = np.ones(sphere2.vertex_count) @ (M @ np.ones(sphere2.vertex_count))
        target = sphere2.vertex_areas @ mu
        assert abs(total - target) / target < 1e-12


def test_stiffness_conformal_invariance(sphere2):
    K1 = assemble_stiffness(sphere2).matrix
    scaled = TriangleMesh(
        sphere2.vertex_count, sphere2.triangles,
        [(int(i), int(j), 4.0 * l) for (i, j), l in
         zip(sphere2.edges, sphere2.edge_lengths)])
    K2 = assemble_stiffness(scaled).matrix
    assert abs(K1 - K2).max() == 0.0


def test_gradient_constant_is_zero(sphere2):
    tri, vert = gradient_field(sphere2, np.full(sphere2.vertex_count, 2.5))
    assert np.abs(tri).max() < 1e-20
    assert np.abs(vert).max() < 1e-20


def test_gradient_sine_on_square_torus():
    n = 64
    m = gen_flat_torus(SQUARE, n, n)
    x = (np.arange(m.vertex_count) // n) / n
    u = np.sin(2 * np.pi * x)
    tri, _ = gradient_field(m, u)
    mean = float((tri * m.areas).sum() / m.area)
    assert abs(mean - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 1e-2


def test_gradient_hat_function_exact():
    n = 16
    m = gen_flat_torus(SQUARE, n, n)
    h = 1.0 / n
    u = np.zeros(m.vertex_count)
    u[0] = 1.0
    tri, _ = gradient_field(m, u)
    support = np.nonzero(tri > 1e-14)[0]
    # hat gradients on right isoceles triangles: 2/h^2 at the right-angle
    # corner, 1/h^2 at the acute corners
    vals = sorted(set(np.round(tri[support] * h * h, 9)))
    assert vals == [1.0, 2.0]


def test_gradient_block_is_column_sum(sphere2):
    mu = uniform_density(sphere2)
    res = solve_pencil(assemble_stiffness(sphere2), assemble_mass(sphere2, mu), k=8)
    U = res.cluster_basis(0)
    assert U.shape[1] == 3
    block = gradient_field(sphere2, U)
    singles = [gradient_field(sphere2, U[:, i]) for i in range(U.shape[1])]
    for got, parts in zip(block, zip(*singles)):
        want = np.sum(parts, axis=0)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_density_field_constraints(sphere2):
    mu = uniform_density(sphere2)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DensityError):
        DensityField(sphere2, np.ones(sphere2.vertex_count))  # mass != 1
    with pytest.raises(DensityError):
        DensityField(sphere2, uniform_density(sphere2).values, floor=0.0,
                     cap=0.5 / sphere2.area)


def test_random_density_reproducible(sphere2):
    a = random_density(sphere2, seed=7)
    b = random_density(sphere2, seed=7)
    assert np.array_equal(a.values, b.values)
    assert a.mass() == pytest.approx(1.0, abs=1e-10)


def test_element_block_minors_match_eigenvalues():
    m = np.random.default_rng(0).uniform(-1.0, 2.0, (500, 3))
    tot = m.sum(axis=1)
    # consistent element block (up to A/60): m_a + m_b + sum(m), plus
    # 2 m_a + sum(m) on the diagonal
    B = m[:, :, None] + m[:, None, :] + tot[:, None, None]
    B[:, [0, 1, 2], [0, 1, 2]] += 2.0 * m + tot[:, None]
    lo = np.linalg.eigvalsh(B)[:, 0]
    assert 0 < (lo >= 0).sum() < len(m)
    assert [_element_blocks_psd(m[i:i + 1]) for i in range(len(m))] == list(lo >= -1e-12)


def _floor_density_with_zeros(mesh):
    # zero on a polar cap and its one-ring, -0.5 / A (the negative floor) on
    # every seventh of the other vertices: the mass matrix stores exact zeros
    # and negative entries
    mu = vanishing_density(mesh, polar_cap(mesh))
    low = np.flatnonzero(mu > 0.0)[::7]
    mu[low] = -0.5 / mesh.area
    return mu / (mesh.vertex_areas @ mu)


@pytest.mark.parametrize("density", ["random", "floor-with-zeros"])
def test_grounded_gather_is_fancy_indexing(sphere3, density):
    mu = (random_density(sphere3, 1).values if density == "random"
          else _floor_density_with_zeros(sphere3))
    K = assemble_stiffness(sphere3)
    M = assemble_mass(sphere3, mu).matrix
    order = K.grounded_factor[0]
    planned, ref = K.grounded(M), M[order][:, order]
    assert planned.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(planned, name), getattr(ref, name)), name
    if density == "floor-with-zeros":
        assert (ref.data == 0.0).any() and (ref.data < 0.0).any()
