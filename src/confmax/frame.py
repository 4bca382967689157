"""Sphere frames: eigenfunction families with pointwise squared sum ~ 1.

Selecting the family reduces to a tiny PSD least-squares problem over the
Gram coefficient matrix Q on the eigenspace basis. Its objective is the exact
quadratic form f(Q) = <Q, T Q> - 2 <G, Q> + A in the moments
T_ab,cd = int v_a v_b v_c v_d and G_ab = int v_a v_b, built once per call, so
each projected-gradient step costs O(m^4) whatever the mesh size. The
resulting map phi = (u_1, ..., u_l) is tested for harmonicity via its
discrete tension field.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .fem import DensityField, assemble_mass, assemble_stiffness, gradient_field

# Dunavant 6-point rule, exact for quartics on the reference triangle.
_QP = np.array([
    [0.816847572980459, 0.091576213509771, 0.091576213509771],
    [0.091576213509771, 0.816847572980459, 0.091576213509771],
    [0.091576213509771, 0.091576213509771, 0.816847572980459],
    [0.108103018168070, 0.445948490915965, 0.445948490915965],
    [0.445948490915965, 0.108103018168070, 0.445948490915965],
    [0.445948490915965, 0.445948490915965, 0.108103018168070],
])
_QW = np.array([0.109951743655322] * 3 + [0.223381589678011] * 3)


class FrameError(RuntimeError):
    pass


@dataclass(frozen=True)
class SphereFrame:
    """Selected eigenfunctions and the candidate sphere map they define."""
    ell: int                  # numerical rank of Q
    U: np.ndarray             # (V, ell) selected eigenfunctions
    Q: np.ndarray             # (m, m) PSD coefficient matrix on the input basis
    w: np.ndarray             # (V,) pointwise sum of squares
    lam: float                # cluster eigenvalue
    objective: float          # final value of the sphere-constraint least squares
    attained: bool            # False when the objective stagnated above threshold
    iterations: int = 0       # accepted projected-gradient steps
    stop_reason: str | None = None  # "stagnated" | "no-descent" | "iteration-cap"


def _quadrature_points(basis, mesh):
    """Per Dunavant point: basis values (F, m) and area-scaled weights (F,)."""
    corner = basis[mesh.triangles]                 # (F, 3, m)
    for bary, weight in zip(_QP, _QW):
        yield np.einsum("c,fcm->fm", bary, corner), weight * mesh.areas


def _moments(basis, mesh):
    """T = sum_q w_q k_q k_q^T and G = sum_q w_q k_q with k_q = vec(v_q v_q^T).

    Accumulated one quadrature point at a time, so the largest temporary is
    one (F, m^2) slab.
    """
    m = basis.shape[1]
    T = np.zeros((m * m, m * m))
    G = np.zeros(m * m)
    for v, wq in _quadrature_points(basis, mesh):
        k = (v[:, :, None] * v[:, None, :]).reshape(len(v), m * m)
        T += k.T @ (k * wq[:, None])
        G += wq @ k
    return T, G


def _objective(basis, mesh, Q):
    """Exact quadrature of (sum Q_ab v_a v_b - 1)^2 over the mesh."""
    return sum(float(wq @ (np.einsum("fa,ab,fb->f", v, Q, v) - 1.0) ** 2)
               for v, wq in _quadrature_points(basis, mesh))


def _psd_clip(Q):
    w, P = np.linalg.eigh(0.5 * (Q + Q.T))
    w = np.clip(w, 0.0, None)
    return (P * w) @ P.T


def select_frame(basis, mesh, density, max_iters=2000, stagnation_tol=1e-3):
    """Pick Q >= 0 minimizing the exact integral of (sum Q_ab v_a v_b - 1)^2.

    Projected gradient on the PSD cone with Armijo backtracking, run on the
    moment form f(Q) = <Q, T Q> - 2 <G, Q> + A: the gradient is 2 (T q - G)
    and a trial step D is judged by its exact decrease <D, T D> + <grad, D>,
    so a step costs O(m^4) after the O(F m^4) moment build. The returned
    objective is a fresh quadrature at the final Q. The soft mass constraint
    int w mu dA <= 1 + 1e-6 is enforced by rescaling.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] == 0:
        raise FrameError("empty eigenbasis")
    m = basis.shape[1]
    T, G = _moments(basis, mesh)

    Q = np.eye(m) / m
    f = _objective(basis, mesh, Q)
    alpha = 1.0 / max(f, 1.0)
    iterations, stop_reason = 0, "iteration-cap"
    for _ in range(max_iters):
        grad = 2.0 * (T @ Q.ravel() - G)
        accepted = False
        for _ in range(40):
            Qn = _psd_clip(Q - alpha * grad.reshape(m, m))
            d = (Qn - Q).ravel()
            step2 = float(d @ d)
            if step2 == 0.0:
                break
            decrease = float(d @ (T @ d) + grad @ d)
            if decrease <= -1e-4 / alpha * step2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stop_reason = "no-descent"
            break
        rel_drop = -decrease / max(f, 1e-300)
        Q, f = Qn, f + decrease
        iterations += 1
        alpha *= 1.5
        if rel_drop < 1e-15:
            stop_reason = "stagnated"
            break

    mu = density.values if isinstance(density, DensityField) else np.asarray(density, float)
    Mmu = assemble_mass(mesh, mu).matrix
    Gm = basis.T @ (Mmu @ basis)
    mass_w = float(np.sum(Q * Gm))
    if mass_w > 1.0 + 1e-6:
        Q = Q / mass_w
    f = _objective(basis, mesh, Q)

    attained = f <= stagnation_tol * mesh.area
    if not attained:
        warnings.warn("sphere constraint unattained", RuntimeWarning)

    d, P = np.linalg.eigh(Q)
    keep = d > 1e-8 * max(d.max(), 0.0)
    if not np.any(keep):
        raise FrameError("coefficient matrix vanished")
    U = basis @ (P[:, keep] * np.sqrt(d[keep]))
    w = np.einsum("va,ab,vb->v", basis, Q, basis)
    return SphereFrame(ell=int(keep.sum()), U=U, Q=Q, w=w,
                       lam=float("nan"), objective=f, attained=attained,
                       iterations=iterations, stop_reason=stop_reason)


def with_eigenvalue(frame, lam):
    return dataclasses.replace(frame, lam=float(lam))


def harmonic_residual(mesh, frame, density, w_floor=1e-6):
    """Discrete tension-field test of the normalized map phi / sqrt(w).

    weak_residual aggregates all components in the Frobenius norm (this makes
    the figure invariant under global rotations of the frame, which the
    per-component maximum is not). identity_residual checks the weak form of
    sum_i u_i (-Delta u_i) = sum_i |grad u_i|^2 in L^1.
    """
    w = frame.w
    degenerate = w <= w_floor * max(w.max(), 1.0)
    if degenerate.mean() > 0.01:
        raise FrameError("map degenerate: w = 0 on more than 1% of vertices")
    good = ~degenerate
    phi = np.zeros_like(frame.U)
    phi[good] = frame.U[good] / np.sqrt(w[good])[:, None]

    K = assemble_stiffness(mesh).matrix
    rho = np.zeros(mesh.vertex_count)
    for j in range(frame.ell):
        rho += gradient_field(mesh, phi[:, j])[1]
    Mplain = assemble_mass(mesh, np.ones(mesh.vertex_count)).matrix

    Kphi = K @ phi
    R = Kphi - rho[:, None] * (Mplain @ phi)
    weak = float(np.linalg.norm(R[good]) / np.linalg.norm(Kphi[good]))

    # identity residual on the raw (unnormalized) frame
    a = np.einsum("vi,vi->v", frame.U, K @ frame.U)
    b = np.zeros(mesh.vertex_count)
    for i in range(frame.ell):
        b += gradient_field(mesh, frame.U[:, i])[1]
    b *= mesh.vertex_areas
    identity = float(np.abs(a - b).sum() / np.abs(b).sum())
    return {"weak_residual": weak, "identity_residual": identity}


def recover_density(mesh, frame):
    """Raw density candidate: sum of squared gradients over the eigenvalue.

    Area-renormalized to unit mass; deliberately not box-clipped.
    """
    if not frame.lam > 0:
        raise FrameError("frame carries no positive eigenvalue")
    vert = np.zeros(mesh.vertex_count)
    for i in range(frame.ell):
        vert += gradient_field(mesh, frame.U[:, i])[1]
    vert /= frame.lam
    vert /= mesh.vertex_areas @ vert
    return DensityField(mesh, vert)


def export_frame_json(frame, path):
    import json
    from pathlib import Path
    Path(path).write_text(json.dumps({
        "ell": frame.ell,
        "eigenvalue": frame.lam,
        "Q": frame.Q.tolist(),
        "U": frame.U.tolist(),
        "w": frame.w.tolist(),
        "objective": frame.objective,
    }))
