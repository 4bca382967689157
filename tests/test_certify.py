import itertools
import json
import math

import numpy as np
import pytest

from confmax.certify import (certificate, moebius_map, save_certificate,
                             yang_yau_bound)
from confmax.eigen import solve_pencil
from confmax.fem import assemble_mass, random_density, uniform_density
from confmax.frame import recover_density, select_frame
from confmax.maximizer import project_density
from confmax.mesh import gen_flat_torus
from conftest import EQUILATERAL, SQUARE


def _sphere_inputs(mesh):
    cap = 4.0 / mesh.area
    mu = project_density(mesh, uniform_density(mesh).values, 0.0, cap)
    spectral = solve_pencil(assemble_mass(mesh, mu), k=8)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    return mu, spectral, frame


def test_yang_yau_values():
    assert yang_yau_bound(0) == pytest.approx(8 * math.pi)
    assert yang_yau_bound(1) == pytest.approx(16 * math.pi)
    assert yang_yau_bound(2) == pytest.approx(16 * math.pi)
    assert yang_yau_bound(3) == pytest.approx(24 * math.pi)


def test_certificate_round_sphere(sphere4):
    mu, spectral, frame = _sphere_inputs(sphere4)
    cert = certificate(mu, spectral, frame)
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
    spectral = solve_pencil(assemble_mass(mesh, mu), k=8)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    cert = certificate(mu, spectral, frame)
    assert cert["bounds"]["genus"] == 1
    assert cert["bounds"]["bound_value"] == pytest.approx(16 * math.pi)
    assert cert["bounds"]["yang_yau_ok"]
    target = 8 * math.pi ** 2 / math.sqrt(3)
    assert abs(cert["lambda1_area"] - target) / target < 1e-2


@pytest.mark.parametrize("case", ["sphere3-uniform", "square12-random"])
def test_certificate_recovery_reads_the_recovered_density(sphere3, case):
    # the certificate divides its own gradient field; recover_density, which
    # the ascent reads, must give bitwise the same nu
    if case == "sphere3-uniform":
        mesh, mu0 = sphere3, uniform_density(sphere3)
    else:
        mesh = gen_flat_torus(SQUARE, 12, 12)
        mu0 = random_density(mesh, 1)
    mu = project_density(mesh, mu0.values, 0.0, 4.0 / mesh.area)
    spectral = solve_pencil(assemble_mass(mesh, mu), k=8)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    cert = certificate(mu, spectral, frame)
    nu = recover_density(frame)
    assert cert["density_recovery_L1"] == float(
        mesh.vertex_areas @ np.abs(nu.values - mu.values))


def test_certificate_rejects_mismatched_mesh(sphere3, sphere2):
    _, spectral, frame = _sphere_inputs(sphere3)
    with pytest.raises(ValueError, match="another mesh"):
        certificate(uniform_density(sphere2), spectral, frame)


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
def test_certificate_refuses_every_mixed_triple(sphere2):
    # icosphere:2 and the 9 x 18 square torus both have V = 162, so only the
    # mesh each input names tells them apart
    torus = gen_flat_torus(SQUARE, 9, 18)
    assert torus.vertex_count == sphere2.vertex_count
    inputs = [_sphere_inputs(mesh) for mesh in (sphere2, torus)]
    for picks in itertools.product((0, 1), repeat=3):
        triple = [inputs[m][slot] for slot, m in enumerate(picks)]
        if len(set(picks)) == 1:
            assert certificate(*triple)["schema"] == "confspec-cert-1"
        else:
            with pytest.raises(ValueError, match="another mesh"):
                certificate(*triple)


def test_save_certificate_roundtrip(sphere3, tmp_path):
    mu, spectral, frame = _sphere_inputs(sphere3)
    cert = certificate(mu, spectral, frame)
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

