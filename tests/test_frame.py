import itertools
import math

import numpy as np
import pytest

from confmax.eigen import solve_pencil
from confmax.fem import (assemble_mass, assemble_stiffness, random_density,
                         uniform_density)
from confmax.frame import (MAX_ITERS, FrameError, SphereFrame, _moments,
                           _objective, _quadrature, harmonic_residual,
                           recover_density, select_frame)
from confmax.maximizer import AscentConfig, maximize
from confmax.mesh import gen_flat_torus, gen_icosphere
from conftest import EQUILATERAL, SQUARE, tilted_density


def _first_cluster(mesh, k=9, seed=0, rel_gap=0.02):
    K = assemble_stiffness(mesh)
    mu = uniform_density(mesh)
    res = solve_pencil(K, assemble_mass(mesh, mu), k=k, seed=seed, rel_gap=rel_gap)
    return res, mu


@pytest.fixture(scope="module", params=["icosphere:2", "equilateral torus n=8"])
def lambda1_basis(request, sphere2):
    mesh = sphere2 if request.param == "icosphere:2" else gen_flat_torus(EQUILATERAL, 8, 8)
    res, _ = _first_cluster(mesh, k=8)
    return mesh, res.cluster_basis(0)


def _random_symmetric(m, seed):
    X = np.random.default_rng(seed).standard_normal((m, m)) / m
    return 0.5 * (X + X.T)


def _quadrature_objective_and_gradient(basis, mesh, Q):
    f, g = 0.0, 0.0
    values, weights = _quadrature(basis, mesh)
    for q, wq in enumerate(weights):
        v = values[:, q].T
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
    mesh, basis = lambda1_basis
    T, G = _moments(*_quadrature(basis, mesh))
    for seed in range(3):
        Q = _random_symmetric(basis.shape[1], seed)
        q = Q.ravel()
        f_quad, g_quad = _quadrature_objective_and_gradient(basis, mesh, Q)
        assert abs(q @ T @ q - 2.0 * G @ q + mesh.area - f_quad) < 1e-12 * mesh.area
        g_mom = 2.0 * (T @ q - G)
        assert np.abs(g_mom - g_quad.ravel()).max() < 1e-12 * mesh.area


def test_moment_gradient_matches_finite_differences(lambda1_basis):
    mesh, basis = lambda1_basis
    quadrature = _quadrature(basis, mesh)
    T, G = _moments(*quadrature)
    m = basis.shape[1]
    Q, E = _random_symmetric(m, 1), _random_symmetric(m, 2)
    h = 1e-4
    fd = (_objective(*quadrature, Q + h * E) - _objective(*quadrature, Q - h * E)) / (2 * h)
    directional = 2.0 * (T @ Q.ravel() - G) @ E.ravel()
    assert abs(fd - directional) < 1e-8 * max(abs(directional), 1.0)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_reported_objective_is_exact_misfit(lambda1_basis):
    mesh, basis = lambda1_basis
    frame = select_frame(basis, mesh)
    exact = _exact_misfit(basis, mesh, frame.Q)
    assert abs(frame.objective - exact) < 1e-12 * mesh.area
    assert frame.objective == _objective(*_quadrature(basis, mesh), frame.Q)


def test_stop_reason_converged_on_sphere(sphere2):
    res, _ = _first_cluster(sphere2, k=8)
    frame = select_frame(res.cluster_basis(0), sphere2)
    # T^+ G is PSD here, so the start is the optimum and step 1 confirms it
    assert (frame.stop_reason, frame.iterations) == ("converged", 1)
    # c I with c from an Armijo projected-gradient run on the same cluster
    assert np.abs(frame.Q - 0.33331984000865 * np.eye(3)).max() < 1e-10


def _long_run_frame_q(basis, mesh, steps=20000):
    """Plain FISTA without restart or stop: a reference minimizer of f."""
    T, G = _moments(*_quadrature(basis, mesh))
    m = basis.shape[1]
    L = 2.0 * np.linalg.eigvalsh(T)[-1]
    q = y = np.eye(m).ravel() / m
    t = 1.0
    for _ in range(steps):
        w, P = np.linalg.eigh((y - 2.0 / L * (T @ y - G)).reshape(m, m))
        qn = ((P * np.clip(w, 0.0, None)) @ P.T).ravel()
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = qn + (t - 1.0) / t_next * (qn - q)
        q, t = qn, t_next
    return q.reshape(m, m)


def test_stop_reason_criterion_on_merged_torus_cluster():
    # n=16 splits lambda1 4+2; a 15% gap merges the six into one cluster that
    # no PSD Q fits exactly, so the solve must end on a criterion at the optimum
    mesh = gen_flat_torus(EQUILATERAL, 16, 16)
    res, _ = _first_cluster(mesh, k=8, rel_gap=0.15)
    basis = res.cluster_basis(0)
    assert basis.shape[1] == 6
    frame = select_frame(basis, mesh)
    assert frame.stop_reason in ("converged", "stagnated")
    assert frame.iterations <= 400
    # f after 2000 Armijo projected-gradient steps
    assert frame.objective <= 6.5821824309e-05
    reference = _objective(*_quadrature(basis, mesh), _long_run_frame_q(basis, mesh))
    assert abs(frame.objective - reference) <= 1e-9 * reference


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_stop_reason_stagnated():
    # four simple eigenfunctions of a random density on the square n=12 torus:
    # T^+ G has a negative eigenvalue and no PSD Q fits the four, so the loop
    # ends on the stagnation stop, at the minimizer
    mesh = gen_flat_torus(SQUARE, 12, 12)
    K, M = assemble_stiffness(mesh), assemble_mass(mesh, random_density(mesh, 1))
    basis = solve_pencil(K, M, k=8).eigenvectors[:, [2, 4, 6, 7]]
    frame = select_frame(basis, mesh)
    assert frame.stop_reason == "stagnated"
    reference = _objective(*_quadrature(basis, mesh), _long_run_frame_q(basis, mesh))
    assert abs(frame.objective - reference) <= 1e-9 * reference


def test_ill_conditioned_torus_cluster_converges():
    # equilateral n=48 at random_density(mesh, 7): a 6-dim cluster with
    # cond(T) ~ 3e5 on symmetric matrices, where a start at I/m ran into the
    # step cap at f = 1.30781e-4
    mesh = gen_flat_torus(EQUILATERAL, 48, 48)
    K, M = assemble_stiffness(mesh), assemble_mass(mesh, random_density(mesh, 7))
    basis = solve_pencil(K, M, k=8).cluster_basis(0)
    assert basis.shape[1] == 6
    frame = select_frame(basis, mesh)
    assert frame.stop_reason == "converged" and frame.iterations < MAX_ITERS
    assert frame.objective < 1.3075e-4

    # reference: Q* = X X^T with X (6 x rank) fitted by Gauss-Newton to the
    # quadrature residuals sqrt(w) (|X^T v|^2 - 1), started from frame.Q and
    # proven the minimizer over the whole cone by its KKT conditions
    # (gradient PSD and zero on the range of X); 20000 plain FISTA steps
    # from I/m still leave f 3e-7 above it
    d, P = np.linalg.eigh(frame.Q)
    keep = d > 1e-8 * d.max()
    x = (P[:, keep] * np.sqrt(d[keep])).ravel()
    values, weights = _quadrature(basis, mesh)
    v, wq = values.reshape(len(values), -1).T, weights.ravel()
    sw = np.sqrt(wq)
    for _ in range(5):
        y = v @ x.reshape(6, -1)
        jacobian = (2.0 * sw[:, None, None] * v[:, :, None] * y[:, None, :]).reshape(len(v), -1)
        x = x - np.linalg.lstsq(jacobian, sw * ((y * y).sum(axis=1) - 1.0))[0]
    X = x.reshape(6, -1)
    ref = X @ X.T
    T, G = _moments(values, weights)
    grad = (T @ ref.ravel() - G).reshape(6, 6)
    assert np.abs(grad @ X).max() <= 1e-12 * np.linalg.norm(G)
    assert np.linalg.eigvalsh(grad)[0] >= -1e-12 * np.linalg.norm(G)
    # select_frame rescales its minimizer to unit trace (tr Q* = 1.0007 here),
    # which moves f along a valley too flat to pin the rescaled value to 1e-9
    # (3e-9 apart), so the minimizers are compared before that rescale
    f_star = _objective(values, weights, ref)
    assert np.trace(ref) > 1.0 + 1e-6
    assert abs(_objective(values, weights, np.trace(ref) * frame.Q) - f_star) <= 1e-9 * f_star


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_tilted_sphere_frames_stop_early():
    # every frame of this ascent starts at its optimum, T^+ G being PSD, so
    # each ends "converged" on its first step
    mesh = gen_icosphere(3)
    trace = maximize(mesh, tilted_density(mesh, 43000), AscentConfig(seed=43000))[3]
    assert len(trace.rows) > 10
    assert {row.frame_stop for row in trace.rows} == {"converged"}
    assert all(row.frame_steps == 1 for row in trace.rows)


def test_sphere_frame_recovers_coordinates(sphere4):
    res, _ = _first_cluster(sphere4)
    frame = select_frame(res.cluster_basis(0), sphere4)
    assert frame.ell == 3
    assert np.abs(frame.w - 1.0).max() < 2e-2
    # Q is a scaled identity in any M-orthonormal basis of the cluster
    assert np.abs(frame.Q - np.eye(3) / 3.0).max() < 1e-3


def test_single_sign_changing_eigenfunction_warns(sphere3):
    res, _ = _first_cluster(sphere3)
    basis = res.eigenvectors[:, :1]
    with pytest.warns(RuntimeWarning, match="sphere constraint unattained"):
        frame = select_frame(basis, sphere3)
    assert frame.objective > 1e-2


def test_equilateral_torus_frame():
    mesh = gen_flat_torus(EQUILATERAL, 48, 48)
    res, _ = _first_cluster(mesh, k=8)
    basis = res.cluster_basis(0)
    assert basis.shape[1] == 6
    frame = select_frame(basis, mesh)
    assert np.abs(frame.w - 1.0).max() < 5e-2


def test_empty_basis_rejected(sphere2):
    with pytest.raises(FrameError):
        select_frame(np.empty((sphere2.vertex_count, 0)), sphere2)


def test_objective_invariant_under_basis_rotation(sphere2):
    res, _ = _first_cluster(sphere2, k=4)
    basis = res.cluster_basis(0)
    f1 = select_frame(basis, sphere2).objective
    rng = np.random.default_rng(5)
    R = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))[0]
    f2 = select_frame(basis @ R, sphere2).objective
    assert abs(f1 - f2) < 1e-10


def _uniform(mesh):
    return uniform_density(mesh).values


def _zero_star(mesh):
    # density killed on the star of vertex 0: solve_pencil Schur-reduces it
    mu = _uniform(mesh).copy()
    mu[np.unique(mesh.triangles[np.any(mesh.triangles == 0, axis=1)])] = 0.0
    return mu


def _signed(mesh):
    mu = _uniform(mesh).copy()
    mu[::7] *= -0.2
    return mu


MASS_CASES = {
    "uniform": (lambda: gen_icosphere(3), _uniform, 9, 0.02),
    "random": (lambda: gen_icosphere(3), lambda m: random_density(m, 1).values, 9, 0.02),
    "zero-star": (lambda: gen_icosphere(3), _zero_star, 9, 0.02),
    "signed": (lambda: gen_icosphere(3), _signed, 9, 0.02),
    "merged-torus": (lambda: gen_flat_torus(EQUILATERAL, 16, 16), _uniform, 8, 0.15),
}


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_frame_mass_constraint():
    # select_frame reads the mass int w mu dA off tr Q, which is exact for the
    # M_mu-orthonormal basis solve_pencil returns
    for case, (make_mesh, make_mu, k, rel_gap) in MASS_CASES.items():
        mesh = make_mesh()
        M = assemble_mass(mesh, make_mu(mesh))
        res = solve_pencil(assemble_stiffness(mesh), M, k=k, rel_gap=rel_gap)
        frame = select_frame(res.cluster_basis(0), mesh)
        mass_w = sum(frame.U[:, i] @ (M.matrix @ frame.U[:, i]) for i in range(frame.ell))
        assert abs(mass_w - np.trace(frame.Q)) <= 1e-12, case
        assert mass_w <= 1.0 + 1e-5, case


def _identity_frame(mesh):
    # the identity map of the embedded round sphere, as a hand-built frame
    U = mesh.embedding / np.linalg.norm(mesh.embedding, axis=1)[:, None]
    w = np.einsum("vi,vi->v", U, U)
    return SphereFrame(ell=3, U=U, Q=np.eye(3), w=w, objective=0.0, attained=True)


def test_identity_map_is_harmonic():
    residuals = []
    for s in (4, 5):
        mesh = gen_icosphere(s)
        frame = _identity_frame(mesh)
        r = harmonic_residual(mesh, frame, assemble_stiffness(mesh))
        residuals.append(r)
    assert residuals[0] < 5e-2
    assert residuals[1] < residuals[0]


def test_twisted_map_not_harmonic(sphere4):
    # twist the sphere about the z axis by an angle depending on height
    X = sphere4.embedding / np.linalg.norm(sphere4.embedding, axis=1)[:, None]
    a = 1.5 * X[:, 2]
    U = np.stack([np.cos(a) * X[:, 0] - np.sin(a) * X[:, 1],
                  np.sin(a) * X[:, 0] + np.cos(a) * X[:, 1],
                  X[:, 2]], axis=1)
    frame = SphereFrame(3, U, np.eye(3), np.einsum("vi,vi->v", U, U), 0.0, True)
    r = harmonic_residual(sphere4, frame, assemble_stiffness(sphere4))
    assert r > 0.3


def test_harmonic_residual_rotation_invariant(sphere3):
    res, _ = _first_cluster(sphere3)
    frame = select_frame(res.cluster_basis(0), sphere3)
    r1 = harmonic_residual(sphere3, frame, assemble_stiffness(sphere3))
    rng = np.random.default_rng(11)
    R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rotated = SphereFrame(frame.ell, frame.U @ R, frame.Q, frame.w,
                          frame.objective, frame.attained)
    r2 = harmonic_residual(sphere3, rotated, assemble_stiffness(sphere3))
    assert abs(r1 - r2) < 1e-10


def test_degenerate_map_rejected(sphere2):
    U = np.zeros((sphere2.vertex_count, 1))
    U[0, 0] = 1.0
    frame = SphereFrame(1, U, np.eye(1), U[:, 0] ** 2, 1.0, False)
    with pytest.raises(FrameError, match="degenerate"):
        harmonic_residual(sphere2, frame, assemble_stiffness(sphere2))


def test_recover_density_sphere(sphere4):
    res, mu = _first_cluster(sphere4)
    frame = select_frame(res.cluster_basis(0), sphere4)
    nu = recover_density(sphere4, frame)
    l1 = sphere4.vertex_areas @ np.abs(nu.values - mu.values)
    assert l1 < 2e-2


def test_recover_density_single_eigenfunction(sphere3):
    res, mu = _first_cluster(sphere3)
    basis = res.cluster_basis(0)[:, :1]
    with pytest.warns(RuntimeWarning):
        frame = select_frame(basis, sphere3)
    nu = recover_density(sphere3, frame)
    l1 = sphere3.vertex_areas @ np.abs(nu.values - mu.values)
    assert l1 > 0.1  # |grad z|^2 = 1 - z^2 is far from constant

