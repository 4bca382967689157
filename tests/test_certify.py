import json
import math

import numpy as np
import pytest

from confmax.certify import (CenteringError, certificate, moebius_center,
                             moebius_center_mesh, moebius_map, save_certificate,
                             yang_yau_bound)
from confmax.eigen import solve_pencil
from confmax.fem import assemble_mass, assemble_stiffness, uniform_density
from confmax.frame import select_frame, with_eigenvalue
from confmax.maximizer import project_density
from confmax.mesh import gen_flat_torus
from conftest import EQUILATERAL


def _sphere_inputs(mesh):
    cap = 4.0 / mesh.area
    mu = project_density(mesh, uniform_density(mesh).values, 0.0, cap)
    K = assemble_stiffness(mesh)
    spectral = solve_pencil(K, assemble_mass(mesh, mu), k=8)
    lam = float(np.mean(spectral.eigenvalues[list(spectral.clusters[0])]))
    frame = with_eigenvalue(select_frame(spectral.cluster_basis(0), mesh, mu), lam)
    return mu, spectral, frame


def test_yang_yau_values():
    assert yang_yau_bound(0) == pytest.approx(8 * math.pi)
    assert yang_yau_bound(1) == pytest.approx(16 * math.pi)
    assert yang_yau_bound(2) == pytest.approx(16 * math.pi)
    assert yang_yau_bound(3) == pytest.approx(24 * math.pi)


def test_certificate_round_sphere(sphere4):
    mu, spectral, frame = _sphere_inputs(sphere4)
    cert = certificate(sphere4, mu, spectral, frame, assemble_stiffness(sphere4))
    assert cert["schema"] == "confspec-cert-1"
    assert abs(cert["lambda1_area"] - 8 * math.pi) / (8 * math.pi) < 1e-2
    assert cert["sphere_residual"] < 5e-2
    assert cert["density_recovery_L1"] < 2e-2
    assert cert["harmonic_weak_residual"] < 5e-2
    assert cert["identity_residual"] < 1e-3
    assert cert["neg_set_measure"] == 0.0
    assert cert["sat_set_measure_times_N"] == 0.0
    assert cert["singular_vertices"] == []
    assert cert["bounds"] == {"genus": 0,
                              "bound_value": pytest.approx(8 * math.pi),
                              "yang_yau_ok": True, "hersch_floor_ok": True}
    assert not cert["collapse"]["flag"]


def test_certificate_flat_equilateral_torus():
    mesh = gen_flat_torus(EQUILATERAL, 32, 32)
    cap = 4.0 / mesh.area
    mu = project_density(mesh, uniform_density(mesh).values, 0.0, cap)
    spectral = solve_pencil(assemble_stiffness(mesh), assemble_mass(mesh, mu), k=8)
    lam = float(np.mean(spectral.eigenvalues[list(spectral.clusters[0])]))
    frame = with_eigenvalue(select_frame(spectral.cluster_basis(0), mesh, mu), lam)
    cert = certificate(mesh, mu, spectral, frame, assemble_stiffness(mesh))
    assert cert["bounds"]["genus"] == 1
    assert cert["bounds"]["bound_value"] == pytest.approx(16 * math.pi)
    assert cert["bounds"]["yang_yau_ok"]
    target = 8 * math.pi ** 2 / math.sqrt(3)
    assert abs(cert["lambda1_area"] - target) / target < 1e-2


def test_certificate_rejects_mismatched_mesh(sphere3, sphere2):
    mu, spectral, frame = _sphere_inputs(sphere3)
    with pytest.raises(ValueError):
        certificate(sphere2, mu, spectral, frame, assemble_stiffness(sphere2))


def test_save_certificate_roundtrip(sphere3, tmp_path):
    mu, spectral, frame = _sphere_inputs(sphere3)
    cert = certificate(sphere3, mu, spectral, frame, assemble_stiffness(sphere3))
    p = tmp_path / "cert.json"
    save_certificate(cert, p)
    loaded = json.loads(p.read_text())
    assert loaded["schema"] == cert["schema"]
    assert loaded["lambda1_area"] == pytest.approx(cert["lambda1_area"])


def test_moebius_identity_at_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    assert np.abs(moebius_map(np.zeros(3), x) - x).max() < 1e-15


def test_moebius_preserves_sphere_and_inverts():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    e = np.array([0.3, -0.5, 0.6])
    y = moebius_map(e, x)
    assert np.abs(np.linalg.norm(y, axis=1) - 1.0).max() < 1e-12
    back = moebius_map(-e, y)
    assert np.abs(back - x).max() < 1e-12


def test_moebius_fixes_poles_along_e():
    e = np.array([0.0, 0.0, 0.7])
    p = np.array([0.0, 0.0, 1.0])
    assert np.abs(moebius_map(e, p) - p).max() < 1e-14
    assert np.abs(moebius_map(e, -p) + p).max() < 1e-14


def test_moebius_rejects_bad_parameter():
    x = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        moebius_map(np.array([0.0, 0.0, 1.0]), x)


def test_moebius_center_recovers_displacement():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((400, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    e_true = np.array([0.2, 0.1, -0.3])
    # push a symmetric cloud off-center, then ask for the centering parameter
    y = moebius_map(e_true, x)
    w = np.full(len(y), 1.0 / len(y))
    e = moebius_center(w, y)
    centered = moebius_map(e, y)
    assert np.abs(w @ centered).max() < 1e-9


def test_moebius_center_mesh_uniform(sphere3):
    e = moebius_center_mesh(sphere3, uniform_density(sphere3))
    assert np.linalg.norm(e) < 1e-8


def test_moebius_center_atomic_measure_fails():
    pts = np.tile([[0.0, 0.0, 1.0]], (5, 1))
    w = np.full(5, 0.2)
    with pytest.raises(CenteringError):
        moebius_center(w, pts)


def test_moebius_center_requires_unit_weights():
    pts = np.eye(3)
    with pytest.raises(ValueError):
        moebius_center(np.ones(3), pts)
