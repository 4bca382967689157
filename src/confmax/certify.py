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
from .frame import harmonic_residual
from .maximizer import _at_cap, detect_collapse, negative_measure, saturated_measure
from .mesh import SURFACES

CERT_SCHEMA = "confspec-cert-1"
_TOL_MESH = 0.02
_SINGULAR_REL = 1e-3  # singular vertex: grad_sum below this fraction of its mean


def yang_yau_bound(genus):
    """Genus-dependent upper bound 8*pi*floor((genus + 3) / 2); 8*pi at genus 0."""
    return SURFACES["icosphere"].lambda1_area * ((genus + 3) // 2)


def certificate(mu, spectral, frame):
    """Full diagnostic record for one (density, spectrum, frame) triple on one mesh.

    A spectrum or frame of another mesh than the density's is a ValueError.

    One sum_i |grad u_i|^2 evaluation serves the density recovery (nu is
    bitwise recover_density's), the singular vertices and identity_residual,
    the L^1 weak form of sum_i u_i (-Delta u_i) = sum_i |grad u_i|^2.

    ``collapse`` is the ``detect_collapse`` record. ``max_ball_mass`` and
    ``max_ball_mass_upper`` bracket the heaviest ball of radius 0.05 x
    ``diameter``, the double-sweep edge-path diameter; ``centres`` counts the
    balls searched; ``flag``, that ball holding more than half the mass, is
    the all-pairs test's exactly. The search runs afresh on each call, in
    memory linear in V, and stores nothing on the mesh.
    """
    mesh = mu.mesh
    if not (spectral.mesh is frame.mesh is mesh):
        raise ValueError("spectrum or frame lives on another mesh than the density")
    lam_area = spectral.lambda1

    # sphere constraint off the saturated set; a fully saturated density has none
    sphere_residual = float(np.abs(frame.w[~_at_cap(mu)] - 1.0).max(initial=0.0))

    grad_sum = gradient_field(mesh, frame.U)[1]
    nu = grad_sum / (mesh.vertex_areas @ grad_sum)
    recovery_l1 = float(mesh.vertex_areas @ np.abs(nu - mu.values))

    # identity residual on the raw (unnormalized) frame
    a = np.einsum("vi,vi->v", frame.U, mesh.stiffness.matrix @ frame.U)
    b = grad_sum * mesh.vertex_areas
    identity = float(np.abs(a - b).sum() / np.abs(b).sum())

    mean_grad = float(mesh.vertex_areas @ grad_sum / mesh.area)
    singular = np.nonzero(grad_sum < _SINGULAR_REL * mean_grad)[0]
    singular_vertices = [
        {"vertex": int(v), "w": float(frame.w[v]), "grad_sum": float(grad_sum[v])}
        for v in singular]

    bound = yang_yau_bound(mesh.genus)
    cert = {
        "schema": CERT_SCHEMA,
        "lambda1_area": float(lam_area),
        "sphere_residual": sphere_residual,
        "density_recovery_L1": recovery_l1,
        "harmonic_weak_residual": harmonic_residual(frame),
        "identity_residual": identity,
        "neg_set_measure": negative_measure(mu),
        "sat_set_measure_times_N": (
            saturated_measure(mu) * mu.cap if mu.cap is not None else 0.0),
        "singular_vertices": singular_vertices,
        "bounds": {
            "genus": int(mesh.genus),
            "bound_value": float(bound),
            "yang_yau_ok": bool(lam_area <= bound * (1.0 + _TOL_MESH)),
            "hersch_floor_ok": bool(lam_area >= yang_yau_bound(0) * (1.0 - _TOL_MESH)),
        },
        "collapse": detect_collapse(mu),
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
