import math

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

from confmax.eigen import solve_pencil
from confmax.fem import (DensityError, DensityField, assemble_mass, assemble_stiffness,
                         gradient_field, random_density, uniform_density, upper_band)
from confmax.mesh import TriangleMesh, gen_flat_torus, gen_icosphere
from conftest import EQUILATERAL, SQUARE, polar_cap, vanishing_density
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


def test_mass_refuses_a_malformed_raw_density():
    mesh = gen_icosphere(1)
    V = mesh.vertex_count
    for bad in (np.ones(V + 5), [math.nan] * V, [1.0] * (V - 1) + [math.inf]):
        with pytest.raises(DensityError, match=f"must hold {V} finite values, one per vertex"):
            assemble_mass(mesh, bad)
    # a raw array need not have unit mass
    M = assemble_mass(mesh, 2.0 * np.ones(V)).matrix
    assert M.sum() == pytest.approx(2.0 * mesh.area, rel=1e-12)


def test_random_density_reproducible(sphere2):
    a = random_density(sphere2, seed=7)
    b = random_density(sphere2, seed=7)
    assert np.array_equal(a.values, b.values)
    assert a.mass() == pytest.approx(1.0, abs=1e-10)


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


@pytest.mark.parametrize("mesh", ["sphere2", "sphere3", "sphere4", "square_torus16",
                                  "equilateral-24x12"])
def test_grounded_factor_is_the_factor_of_the_gathered_stiffness(request, mesh):
    # the reference is the grounding by fancy indexing that the gather replaced
    mesh = (gen_flat_torus(EQUILATERAL, 24, 12) if mesh == "equilateral-24x12"
            else request.getfixturevalue(mesh))
    K = assemble_stiffness(mesh)
    order, band = K.grounded_factor
    ref = cholesky_banded(upper_band(K.matrix[order][:, order]))
    assert band.shape == ref.shape
    assert np.array_equal(band, ref)


def _dense_element_sums(mesh, mu):
    """K and M(mu) summed triangle by triangle into dense V x V arrays.

    K's element is sum_c (cot_c / 2) (e_a - e_b)(e_a - e_b)^T over the edge
    (a, b) opposite corner c; M's entries integrate lam_a lam_b lam_c from the
    barycentric monomial rule int lam^alpha dA = 2 A alpha! / (|alpha| + 2)!.
    """
    V = mesh.vertex_count
    K, M = np.zeros((V, V)), np.zeros((V, V))
    for f, t in enumerate(mesh.triangles):
        for c, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
            d = np.zeros(V)
            d[t[a]], d[t[b]] = 1.0, -1.0
            K += 0.5 * mesh.cotangents[f, c] * np.outer(d, d)
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    alpha = np.bincount([a, b, c], minlength=3)
                    M[t[a], t[b]] += (mu[t[c]] * 2.0 * mesh.areas[f]
                                      * math.prod(math.factorial(k) for k in alpha) / 120.0)
    return K, M


@pytest.mark.parametrize("which", ["icosphere:1", "square torus n=4"])
def test_slot_assembly_matches_dense_element_sums(which):
    mesh = gen_icosphere(1) if which == "icosphere:1" else gen_flat_torus(SQUARE, 4, 4)
    assert "element_slots" not in vars(mesh)  # built on first assembly, not at construction
    K = assemble_stiffness(mesh)
    assert "element_slots" in vars(mesh)
    V, E = mesh.vertex_count, len(mesh.edges)
    # one stored entry per vertex and per directed edge, zero sums included
    # (the square torus's cell diagonals face two right angles)
    assert K.matrix.nnz == V + 2 * E
    # a unit-mass density and a signed raw array
    mus = [random_density(mesh, 4).values, np.random.default_rng(2).uniform(-0.5, 1.5, V)]
    for mu in mus:
        K_ref, M_ref = _dense_element_sums(mesh, mu)
        M = assemble_mass(mesh, mu).matrix
        assert np.abs(K.matrix.toarray() - K_ref).max() <= 1e-15 * np.abs(K_ref).max()
        assert np.abs(M.toarray() - M_ref).max() <= 1e-15 * np.abs(M_ref).max()
        assert K.grounded(M).shape == (V - 1, V - 1)
    # M is linear in mu
    a, b = 0.3, -1.7
    M1, M2 = (assemble_mass(mesh, mu).matrix for mu in mus)
    M12 = assemble_mass(mesh, a * mus[0] + b * mus[1]).matrix
    assert np.abs((M12 - (a * M1 + b * M2)).toarray()).max() <= 1e-15 * np.abs(M12.data).max()
