"""Extremality certificates and the Moebius automorphisms of the sphere.

Everything numerically checkable about a candidate maximizer is gathered in
one report: sphere constraint, density recovery, harmonic-map residual,
saturated/negative set measures, genus-dependent bounds and collapse data.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fem import gradient_field
from .frame import harmonic_residual, recover_density
from .maximizer import detect_collapse, negative_measure, saturated_measure

CERT_SCHEMA = "confspec-cert-1"
_TOL_MESH = 0.02
_SINGULAR_REL = 1e-3  # singular vertex: grad_sum below this fraction of its mean


def yang_yau_bound(genus):
    """Genus-dependent upper bound 8*pi*floor((genus + 3) / 2)."""
    return 8.0 * np.pi * ((genus + 3) // 2)


def certificate(mesh, mu, spectral, frame, K):
    """Full diagnostic record for one (mesh, density, frame) triple.

    K is the mesh's StiffnessMatrix, for the harmonic-map residual.

    ``collapse`` is the ``detect_collapse`` record; its ``diameter`` is the
    double-sweep edge-path diameter of which the ``max_ball_mass`` radii
    (0.05, 0.1, 0.2) are fractions.
    """
    if mu.mesh is not mesh or frame.U.shape[0] != mesh.vertex_count:
        raise ValueError("inconsistent mesh references across inputs")
    lam_area = spectral.lambda1

    # sphere constraint off the saturated set
    if mu.cap is not None:
        off_sat = mu.values < mu.cap * (1.0 - 1e-6)
    else:
        off_sat = np.ones(mesh.vertex_count, dtype=bool)
    sphere_residual = float(np.abs(frame.w[off_sat] - 1.0).max())

    nu = recover_density(mesh, frame)
    recovery_l1 = float(mesh.vertex_areas @ np.abs(nu.values - mu.values))

    harmonic = harmonic_residual(mesh, frame, K)

    grad_sum = gradient_field(mesh, frame.U)[1]
    mean_grad = float(mesh.vertex_areas @ grad_sum / mesh.area)
    singular = np.nonzero(grad_sum < _SINGULAR_REL * mean_grad)[0]
    singular_vertices = [
        {"vertex": int(v), "w": float(frame.w[v]), "grad_sum": float(grad_sum[v])}
        for v in singular]

    genus = mesh.genus
    bound = yang_yau_bound(genus)
    cert = {
        "schema": CERT_SCHEMA,
        "lambda1_area": float(lam_area),
        "sphere_residual": sphere_residual,
        "density_recovery_L1": recovery_l1,
        "harmonic_weak_residual": float(harmonic["weak_residual"]),
        "identity_residual": float(harmonic["identity_residual"]),
        "neg_set_measure": negative_measure(mesh, mu),
        "sat_set_measure_times_N": (
            saturated_measure(mesh, mu) * mu.cap if mu.cap is not None else 0.0),
        "singular_vertices": singular_vertices,
        "bounds": {
            "genus": int(genus),
            "bound_value": float(bound),
            "yang_yau_ok": bool(lam_area <= bound * (1.0 + _TOL_MESH)),
            "hersch_floor_ok": bool(lam_area >= 8.0 * np.pi * (1.0 - _TOL_MESH)),
        },
        "collapse": detect_collapse(mu, mesh),
    }
    return cert


def save_certificate(cert, path):
    Path(path).write_text(json.dumps(cert, indent=2, sort_keys=True))


# -- Moebius machinery on the round sphere ---------------------------------------

def moebius_map(e, x):
    """Conformal automorphism of S^2 with parameter |e| < 1, applied to x.

    Accepts a single 3-vector or an (n, 3) stack of unit vectors.
    """
    e = np.asarray(e, dtype=float)
    if e.shape != (3,):
        raise ValueError("e must be a 3-vector")
    if np.dot(e, e) >= 1.0:
        raise ValueError("|e| must be < 1")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    e2 = float(np.dot(e, e))
    x2 = np.einsum("ij,ij->i", pts, pts)
    ex = pts @ e
    num = (1.0 - e2) * pts - (1.0 - 2.0 * ex + x2)[:, None] * e
    den = 1.0 - 2.0 * ex + e2 * x2
    out = num / den[:, None]
    return out[0] if single else out
