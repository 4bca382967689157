import itertools
import math

import numpy as np
import pytest

from confmax.eigen import solve_pencil
from confmax.fem import assemble_mass, assemble_stiffness, uniform_density
from confmax.frame import (FrameError, SphereFrame, _moments, _objective,
                           _quadrature_points, harmonic_residual,
                           recover_density, select_frame, with_eigenvalue)
from confmax.mesh import gen_flat_torus, gen_icosphere
from conftest import EQUILATERAL


def _first_cluster(mesh, k=9, seed=0, rel_gap=0.02):
    K = assemble_stiffness(mesh)
    mu = uniform_density(mesh)
    res = solve_pencil(K, assemble_mass(mesh, mu), k=k, seed=seed, rel_gap=rel_gap)
    return res, mu


@pytest.fixture(scope="module", params=["icosphere:2", "equilateral torus n=8"])
def lambda1_basis(request, sphere2):
    mesh = sphere2 if request.param == "icosphere:2" else gen_flat_torus(EQUILATERAL, 8, 8)
    res, mu = _first_cluster(mesh, k=8)
    return mesh, mu, res.cluster_basis(0)


def _random_symmetric(m, seed):
    X = np.random.default_rng(seed).standard_normal((m, m)) / m
    return 0.5 * (X + X.T)


def _quadrature_objective_and_gradient(basis, mesh, Q):
    f, g = 0.0, 0.0
    for v, wq in _quadrature_points(basis, mesh):
        s = np.einsum("fa,ab,fb->f", v, Q, v) - 1.0
        f += float(wq @ s ** 2)
        g = g + 2.0 * (v * (wq * s)[:, None]).T @ v
    return f, g


def _exact_misfit(basis, mesh, Q):
    """int (w - 1)^2 dA from the barycentric monomial integrals, no quadrature.

    On a triangle w - 1 = lam^T E lam with E = C Q C^T - 1 (C the corner
    values, lam the barycentric coordinates, sum lam = 1), and
    int lam^alpha dA = 2 A alpha! / (|alpha| + 2)!.
    """
    mono = np.zeros((3,) * 4)
    for idx in itertools.product(range(3), repeat=4):
        counts = np.bincount(idx, minlength=3)
        mono[idx] = 2.0 * math.prod(math.factorial(c) for c in counts) / math.factorial(6)
    C = basis[mesh.triangles]
    E = np.einsum("fia,ab,fjb->fij", C, Q, C) - 1.0
    return float(mesh.areas @ np.einsum("fij,fkl,ijkl->f", E, E, mono))


def test_moment_form_matches_quadrature(lambda1_basis):
    mesh, _, basis = lambda1_basis
    T, G = _moments(basis, mesh)
    for seed in range(3):
        Q = _random_symmetric(basis.shape[1], seed)
        q = Q.ravel()
        f_quad, g_quad = _quadrature_objective_and_gradient(basis, mesh, Q)
        assert abs(q @ T @ q - 2.0 * G @ q + mesh.area - f_quad) < 1e-12 * mesh.area
        g_mom = 2.0 * (T @ q - G)
        assert np.abs(g_mom - g_quad.ravel()).max() < 1e-12 * mesh.area


def test_moment_gradient_matches_finite_differences(lambda1_basis):
    mesh, _, basis = lambda1_basis
    T, G = _moments(basis, mesh)
    m = basis.shape[1]
    Q, E = _random_symmetric(m, 1), _random_symmetric(m, 2)
    h = 1e-4
    fd = (_objective(basis, mesh, Q + h * E) - _objective(basis, mesh, Q - h * E)) / (2 * h)
    directional = 2.0 * (T @ Q.ravel() - G) @ E.ravel()
    assert abs(fd - directional) < 1e-8 * max(abs(directional), 1.0)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_reported_objective_is_exact_misfit(lambda1_basis):
    mesh, mu, basis = lambda1_basis
    frame = select_frame(basis, mesh, mu)
    exact = _exact_misfit(basis, mesh, frame.Q)
    assert abs(frame.objective - exact) < 1e-12 * mesh.area
    assert frame.objective == _objective(basis, mesh, frame.Q)


def test_stop_reason_stagnated_on_sphere(sphere2):
    res, mu = _first_cluster(sphere2, k=8)
    frame = select_frame(res.cluster_basis(0), sphere2, mu)
    assert (frame.stop_reason, frame.iterations) == ("stagnated", 12)
    carried = with_eigenvalue(frame, res.lambda1)
    assert (carried.stop_reason, carried.iterations) == ("stagnated", 12)


def test_stop_reason_iteration_cap_on_merged_torus_cluster():
    # n=16 splits lambda1 4+2; a 15% gap merges the six into one cluster that
    # no PSD Q fits exactly, so the descent runs to its cap
    mesh = gen_flat_torus(EQUILATERAL, 16, 16)
    res, mu = _first_cluster(mesh, k=8, rel_gap=0.15)
    basis = res.cluster_basis(0)
    assert basis.shape[1] == 6
    frame = select_frame(basis, mesh, mu)
    assert (frame.stop_reason, frame.iterations) == ("iteration-cap", 2000)


def test_sphere_frame_recovers_coordinates(sphere4):
    res, mu = _first_cluster(sphere4)
    frame = select_frame(res.cluster_basis(0), sphere4, mu)
    assert frame.ell == 3
    assert np.abs(frame.w - 1.0).max() < 2e-2
    # Q is a scaled identity in any M-orthonormal basis of the cluster
    assert np.abs(frame.Q - np.eye(3) / 3.0).max() < 1e-3


def test_single_sign_changing_eigenfunction_warns(sphere3):
    res, mu = _first_cluster(sphere3)
    basis = res.eigenvectors[:, :1]
    with pytest.warns(RuntimeWarning, match="sphere constraint unattained"):
        frame = select_frame(basis, sphere3, mu)
    assert frame.objective > 1e-2


def test_equilateral_torus_frame():
    mesh = gen_flat_torus(EQUILATERAL, 48, 48)
    res, mu = _first_cluster(mesh, k=8)
    basis = res.cluster_basis(0)
    assert basis.shape[1] == 6
    frame = select_frame(basis, mesh, mu)
    assert np.abs(frame.w - 1.0).max() < 5e-2


def test_empty_basis_rejected(sphere2):
    with pytest.raises(FrameError):
        select_frame(np.empty((sphere2.vertex_count, 0)), sphere2,
                     uniform_density(sphere2))


def test_objective_invariant_under_basis_rotation(sphere2):
    res, mu = _first_cluster(sphere2, k=4)
    basis = res.cluster_basis(0)
    f1 = select_frame(basis, sphere2, mu).objective
    rng = np.random.default_rng(5)
    R = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))[0]
    f2 = select_frame(basis @ R, sphere2, mu).objective
    assert abs(f1 - f2) < 1e-10


def test_frame_mass_constraint(sphere3):
    res, mu = _first_cluster(sphere3)
    frame = select_frame(res.cluster_basis(0), sphere3, mu)
    M = assemble_mass(sphere3, mu).matrix
    mass_w = sum(frame.U[:, i] @ (M @ frame.U[:, i]) for i in range(frame.ell))
    assert mass_w <= 1.0 + 1e-5


def _identity_frame(mesh):
    # the identity map of the embedded round sphere, as a hand-built frame
    U = mesh.embedding / np.linalg.norm(mesh.embedding, axis=1)[:, None]
    w = np.einsum("vi,vi->v", U, U)
    return SphereFrame(ell=3, U=U, Q=np.eye(3), w=w, lam=2.0 * mesh.area,
                       objective=0.0, attained=True)


def test_identity_map_is_harmonic():
    residuals = []
    for s in (4, 5):
        mesh = gen_icosphere(s)
        frame = _identity_frame(mesh)
        r = harmonic_residual(mesh, frame, assemble_stiffness(mesh))
        residuals.append(r["weak_residual"])
    assert residuals[0] < 5e-2
    assert residuals[1] < residuals[0]


def test_twisted_map_not_harmonic(sphere4):
    # twist the sphere about the z axis by an angle depending on height
    X = sphere4.embedding / np.linalg.norm(sphere4.embedding, axis=1)[:, None]
    a = 1.5 * X[:, 2]
    U = np.stack([np.cos(a) * X[:, 0] - np.sin(a) * X[:, 1],
                  np.sin(a) * X[:, 0] + np.cos(a) * X[:, 1],
                  X[:, 2]], axis=1)
    frame = SphereFrame(3, U, np.eye(3), np.einsum("vi,vi->v", U, U),
                        2.0 * sphere4.area, 0.0, True)
    r = harmonic_residual(sphere4, frame, assemble_stiffness(sphere4))
    assert r["weak_residual"] > 0.3


def test_harmonic_residual_rotation_invariant(sphere3):
    res, mu = _first_cluster(sphere3)
    frame = with_eigenvalue(select_frame(res.cluster_basis(0), sphere3, mu),
                            res.lambda1)
    r1 = harmonic_residual(sphere3, frame, assemble_stiffness(sphere3))["weak_residual"]
    rng = np.random.default_rng(11)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = SphereFrame(frame.ell, frame.U @ R, frame.Q, frame.w, frame.lam,
                          frame.objective, frame.attained)
    r2 = harmonic_residual(sphere3, rotated, assemble_stiffness(sphere3))["weak_residual"]
    assert abs(r1 - r2) < 1e-10


def test_degenerate_map_rejected(sphere2):
    U = np.zeros((sphere2.vertex_count, 1))
    U[0, 0] = 1.0
    frame = SphereFrame(1, U, np.eye(1), U[:, 0] ** 2, 1.0, 1.0, False)
    with pytest.raises(FrameError, match="degenerate"):
        harmonic_residual(sphere2, frame, assemble_stiffness(sphere2))


def test_recover_density_sphere(sphere4):
    res, mu = _first_cluster(sphere4)
    frame = with_eigenvalue(select_frame(res.cluster_basis(0), sphere4, mu),
                            float(np.mean(res.eigenvalues[:3])))
    nu = recover_density(sphere4, frame)
    l1 = sphere4.vertex_areas @ np.abs(nu.values - mu.values)
    assert l1 < 2e-2


def test_recover_density_single_eigenfunction(sphere3):
    res, mu = _first_cluster(sphere3)
    basis = res.cluster_basis(0)[:, :1]
    with pytest.warns(RuntimeWarning):
        frame = with_eigenvalue(select_frame(basis, sphere3, mu), res.lambda1)
    nu = recover_density(sphere3, frame)
    l1 = sphere3.vertex_areas @ np.abs(nu.values - mu.values)
    assert l1 > 0.1  # |grad z|^2 = 1 - z^2 is far from constant


def test_recover_requires_positive_eigenvalue(sphere2):
    res, mu = _first_cluster(sphere2, k=4)
    frame = select_frame(res.cluster_basis(0), sphere2, mu)  # lam = nan
    with pytest.raises(FrameError):
        recover_density(sphere2, frame)
