"""Sphere frames: eigenfunction families with pointwise squared sum ~ 1.

Selecting the family reduces to a tiny PSD least-squares problem over the
Gram coefficient matrix Q on the eigenspace basis. Its objective is the exact
quadratic form f(Q) = <Q, T Q> - 2 <G, Q> + A in the moments
T_ab,cd = int v_a v_b v_c v_d and G_ab = int v_a v_b, built once per call, so
each solver step costs O(m^4) whatever the mesh size. The solver is an
accelerated projected gradient (FISTA) on the PSD cone with the fixed step
1/L, L = 2 lambda_max(T), and function-value restart. It starts at the PSD
part of the unconstrained minimizer T^+ G, one m^2 x m^2 least-squares
solve: where T^+ G is PSD it is the answer and the first step confirms it,
and otherwise the clipped start lies near the optimum's face. It stops when
the gradient mapping vanishes to a relative 1e-9 ("converged") or when a plain
projected step right after a restart no longer lowers f by a relative 1e-15
("stagnated"), so a cluster that no PSD Q fits exactly still ends on a
criterion rather than on the step cap. The resulting map
phi = (u_1, ..., u_l) is tested for harmonicity via its discrete tension
field.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fem import DensityField, assemble_mass, gradient_field
from .mesh import TriangleMesh

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

MAX_ITERS = 2000        # projected steps before select_frame gives up
CONVERGED_RTOL = 1e-9   # gradient-mapping stop, relative to ||2 G||
STAGNATED_RTOL = 1e-15  # stop when a plain step lowers f by less than this * f
ATTAINED_RTOL = 1e-3    # sphere constraint attained: final f <= this * area
DEGENERATE_W_REL = 1e-6  # harmonic_residual: w at or below this * max(w, 1) is degenerate


class FrameError(RuntimeError):
    pass


@dataclass(frozen=True)
class SphereFrame:
    """Selected eigenfunctions on a mesh and the candidate sphere map they define."""
    mesh: TriangleMesh        # the mesh the eigenfunctions live on
    ell: int                  # numerical rank of Q
    U: np.ndarray             # (V, ell) selected eigenfunctions
    Q: np.ndarray             # (m, m) PSD coefficient matrix on the input basis
    w: np.ndarray             # (V,) pointwise sum of squares
    objective: float          # final value of the sphere-constraint least squares
    attained: bool            # False when the objective exceeds ATTAINED_RTOL * area
    iterations: int = 0       # projected-gradient steps taken
    stop_reason: str | None = None  # "converged" | "stagnated" | "iteration-cap"


def _quadrature(basis, mesh):
    """Basis values at the six Dunavant points of every triangle, and weights.

    Returns the (m, 6, F) value table, one product of the barycentric
    coordinates with the (m, 3, F) corner values, and the (6, F) area-scaled
    weights. The table holds 6 m F values, no more than one (m^2, F) slab
    once m >= 6.
    """
    corner = np.ascontiguousarray(basis.T)[:, mesh.triangles.T]
    return _QP @ corner, _QW[:, None] * mesh.areas


def _moments(values, weights):
    """T = sum_q w_q k_q k_q^T and G = sum_q w_q k_q with k_q = vec(v_q v_q^T).

    values, weights as _quadrature returns them. Accumulated one Dunavant
    point at a time from (m^2, F) slabs, so besides the table the largest
    temporaries are two such slabs.
    """
    m = len(values)
    T = np.zeros((m * m, m * m))
    G = np.zeros(m * m)
    for q, wq in enumerate(weights):
        v = values[:, q]
        k = (v[:, None] * v[None, :]).reshape(m * m, -1)
        kw = k * wq
        T += kw @ k.T
        G += kw.sum(axis=1)
    return T, G


def _objective(values, weights, Q):
    """Exact quadrature of (sum Q_ab v_a v_b - 1)^2 over the mesh."""
    v = values.reshape(len(values), -1)
    s = np.einsum("ax,ax->x", Q @ v, v) - 1.0
    return float(weights.ravel() @ (s * s))


def _psd_clip(Q):
    w, P = np.linalg.eigh(0.5 * (Q + Q.T))
    w = np.clip(w, 0.0, None)
    return (P * w) @ P.T


def select_frame(basis, mesh):
    """Pick Q >= 0 minimizing the exact integral of (sum Q_ab v_a v_b - 1)^2.

    Accelerated projected gradient (FISTA, Beck-Teboulle 2009) on the PSD
    cone, run on the moment form f(Q) = <Q, T Q> - 2 <G, Q> + A whose
    gradient is 2 (T q - G). The step is the fixed 1/L with L = 2 lambda_max(T),
    the Lipschitz constant of the gradient. When a step raises f the step is
    discarded, Q goes back to the last accepted iterate and the momentum is
    reset (function-value restart, O'Donoghue-Candes 2015). f is tracked
    through exact differences <D, T D> + <grad, D>, so a change far below
    round-off of f itself still has a sign.

    The loop starts at the PSD part of T^+ G, the minimum-norm solution of
    the normal equations T q = G. It is symmetric: T = sum_q w_q k_q k_q^T
    with every k_q = vec(v_q v_q^T) symmetric, so the range of T, where
    the minimum-norm solution lies, holds only symmetric matrices, and G is
    in it. T^+ G minimizes f over all symmetric Q, so when it is PSD it is
    the constrained minimizer: the gradient vanishes there, and the first
    step ends "converged". A first-step "converged" thus says the start was
    optimal to the test's tolerance: T^+ G was PSD, or clipping its
    negative eigenvalues landed on the optimum. Otherwise the clipped start
    lies on or near the face of the cone that holds the optimum, and the
    loop refines it there. The loop stops on:

    - "converged": the gradient mapping L ||Q+ - Y|| falls to
      CONVERGED_RTOL ||2 G||;
    - "stagnated": the plain projected step that follows a restart lowers f
      by less than STAGNATED_RTOL f, so momentum has nothing left to add;
    - "iteration-cap": MAX_ITERS projected steps, neither of the above.

    A step costs O(m^4) after the O(F m^4) moment build, which evaluates
    the basis once at the six Dunavant points of every triangle, one
    (m, 6, F) table, and sums T and G from one (m^2, F) slab per point. The
    returned objective is a fresh quadrature of that table at the final Q;
    the constraint counts as attained when that objective is at most
    ATTAINED_RTOL times the area.

    The basis must be M_mu-orthonormal, as solve_pencil returns it. Then
    int w mu dA = sum_ab Q_ab (V^T M_mu V)_ab = tr Q, so the soft mass
    constraint int w mu dA <= 1 + 1e-6 is enforced by rescaling Q by its
    trace.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[1] == 0:
        raise FrameError("empty eigenbasis")
    m = basis.shape[1]
    values, weights = _quadrature(basis, mesh)
    T, G = _moments(values, weights)
    L = 2.0 * float(np.linalg.eigvalsh(T)[-1])
    tol = CONVERGED_RTOL * 2.0 * float(np.linalg.norm(G))

    q = _psd_clip(np.linalg.lstsq(T, G)[0].reshape(m, m)).ravel()
    r = T @ q - G                        # half the gradient at q
    f = float(q @ (r - G)) + mesh.area
    q_prev, y, t = q, q, 1.0
    restarted = False
    iterations, stop_reason = 0, "iteration-cap"
    while iterations < MAX_ITERS:
        iterations += 1
        qn = _psd_clip((y - (2.0 / L) * (T @ y - G)).reshape(m, m)).ravel()
        d = qn - q
        rn = T @ qn - G
        drop = -float(d @ (rn - r) + 2.0 * (r @ d))   # f(q) - f(qn)
        stalled = restarted and drop < STAGNATED_RTOL * f
        if drop >= 0.0:
            q_prev, q, r, f = q, qn, rn, f - drop
        if L * float(np.linalg.norm(qn - y)) <= tol:
            stop_reason = "converged"
            break
        if stalled:
            stop_reason = "stagnated"
            break
        restarted = drop < 0.0
        if restarted:
            q_prev, y, t = q, q, 1.0
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = q + ((t - 1.0) / t_next) * (q - q_prev)
            t = t_next
    Q = q.reshape(m, m)

    mass_w = float(np.trace(Q))
    if mass_w > 1.0 + 1e-6:
        Q = Q / mass_w
    f = _objective(values, weights, Q)

    attained = f <= ATTAINED_RTOL * mesh.area
    if not attained:
        warnings.warn("sphere constraint unattained", RuntimeWarning)

    d, P = np.linalg.eigh(Q)
    keep = d > 1e-8 * max(d.max(), 0.0)
    if not np.any(keep):
        raise FrameError("coefficient matrix vanished")
    U = basis @ (P[:, keep] * np.sqrt(d[keep]))
    w = np.einsum("va,ab,vb->v", basis, Q, basis)
    return SphereFrame(mesh=mesh, ell=int(keep.sum()), U=U, Q=Q, w=w, objective=f,
                       attained=attained, iterations=iterations,
                       stop_reason=stop_reason)


def harmonic_residual(frame):
    """Discrete tension-field test of the normalized map phi / sqrt(w).

    Returns the weak residual, the float ||K phi - rho M phi|| / ||K phi||
    over the non-degenerate vertices, with K the stiffness of the frame's
    mesh, rho = |grad phi|^2 per vertex and M the plain mass. It aggregates all
    components in the Frobenius norm (this makes the figure invariant under
    global rotations of the frame, which the per-component maximum is not).
    """
    mesh, w = frame.mesh, frame.w
    degenerate = w <= DEGENERATE_W_REL * max(w.max(), 1.0)
    if degenerate.mean() > 0.01:
        raise FrameError("map degenerate: w = 0 on more than 1% of vertices")
    good = ~degenerate
    phi = np.zeros_like(frame.U)
    phi[good] = frame.U[good] / np.sqrt(w[good])[:, None]

    K = mesh.stiffness.matrix
    rho = gradient_field(mesh, phi)[1]
    Mplain = assemble_mass(mesh, np.ones(mesh.vertex_count)).matrix

    Kphi = K @ phi
    R = Kphi - rho[:, None] * (Mplain @ phi)
    return float(np.linalg.norm(R[good]) / np.linalg.norm(Kphi[good]))


def recover_density(frame):
    """Raw density candidate sum_i |grad u_i|^2 on the frame's mesh, renormalized to unit mass.

    The extremality identity reads mu = sum_i |grad u_i|^2 / lambda_1, but
    lambda_1 is one constant factor: the unit-mass renormalization divides it
    out again, so the frame needs no eigenvalue. Deliberately not box-clipped.
    """
    vert = gradient_field(frame.mesh, frame.U)[1]
    vert /= frame.mesh.vertex_areas @ vert
    return DensityField(frame.mesh, vert)
