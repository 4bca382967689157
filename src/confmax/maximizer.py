"""Box-and-simplex ascent over conformal densities with continuation in N.

The update is the damped fixed point of the extremality identity
mu = sum |grad u_i|^2 / lambda, safeguarded so the accepted iterates never
decrease the normalized eigenvalue (beyond the tolerance).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .eigen import DEFAULT_REL_GAP, solve_pencil
from .fem import (DensityField, assemble_mass, assemble_stiffness,
                  random_density, uniform_density)
from .frame import recover_density, select_frame


COLLAPSE_RADII = (0.05, 0.1, 0.2)  # ball radii as fractions of the diameter
_SOURCE_BLOCK = 512  # Dijkstra sources per block in detect_collapse


class ProjectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for one maximization run.

    n_schedule entries and the floor are multiples of the mean density 1/A
    (the continuum normalization puts unit mass on the surface, so on a
    unit-area surface these coincide with the absolute bounds). k_eigen sizes
    the solves at each iterate and the final solve, whose leading cluster
    feeds the frame and the certificate; line-search trials solve for the
    first eigenpair only.
    """
    n_schedule: tuple = (4.0, 16.0, 64.0)
    damping: float = 0.5
    max_iters: int = 500
    lam_tol: float = 1e-7
    floor: float = 0.0
    seed: int = 0
    k_eigen: int = 8
    rel_gap: float = DEFAULT_REL_GAP

    def __post_init__(self):
        if not self.n_schedule or self.n_schedule[0] < 1.0:
            raise ValueError("n_schedule must be non-empty and start at >= 1 "
                             "(a cap below the mean density cannot carry unit mass)")
        if not all(b > a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.floor not in (0.0, -0.5):
            raise ValueError("floor must be 0 or -0.5")


@dataclass
class TraceRow:
    iter: int
    N: float
    lambda1_area: float
    EN_measure: float
    ENeg_measure: float
    step: float
    frame_obj: float
    frame_steps: int   # select_frame steps at this iterate
    frame_stop: str    # select_frame stop reason at this iterate
    trials: int        # line-search pencil solves at this iterate
    wall_ms: float


@dataclass
class AscentTrace:
    rows: list = field(default_factory=list)
    status: str = "converged"
    saturation_constant: float = 0.0  # max over schedule of A(E_N) * N
    skipped_stages: list = field(default_factory=list)  # N values run without iterations
    certificate: dict | None = None


def project_density(mesh, values, floor, cap):
    """Project onto the box [floor, cap] intersected with the unit-mass slice.

    Alternating box clip and scalar shift; the mass is piecewise linear and
    monotone in the shift, so a bracketed root plus linear polish converges
    to 1e-12 within a few passes.
    """
    values = np.asarray(values, dtype=float)
    a = mesh.vertex_areas
    if cap * a.sum() < 1.0 - 1e-12:
        raise ProjectionError("cap too small: box cannot carry unit mass")
    if floor * a.sum() > 1.0 + 1e-12:
        raise ProjectionError("floor too large: box cannot carry unit mass")

    def mass_of(c):
        return a @ np.clip(values + c, floor, cap) - 1.0

    lo = float(np.min(floor - values)) - 1.0
    hi = float(np.max(cap - values)) + 1.0
    c = brentq(mass_of, lo, hi, xtol=1e-14)
    out = np.clip(values + c, floor, cap)
    for _ in range(50):
        gap = 1.0 - a @ out
        if abs(gap) <= 1e-12:
            break
        free = (out > floor) & (out < cap)
        wfree = a[free].sum()
        if wfree == 0:
            raise ProjectionError(f"projection stalled; mass residual {gap}")
        out[free] += gap / wfree
        out = np.clip(out, floor, cap)
    else:
        raise ProjectionError(f"projection did not reach mass tolerance: {gap}")
    return DensityField(mesh, out, floor, cap)


def _solve(K, mesh, density, config, k):
    # k = config.k_eigen where the leading cluster is used (frame, certificate):
    # ARPACK resolves a degenerate lambda_1 cluster far better when the requested
    # block spans it. A line-search trial reads lambda_1 alone, so it asks for
    # k = 1 and stays clear of the slowly converging higher clusters.
    return solve_pencil(K, assemble_mass(mesh, density), k=k,
                        rel_gap=config.rel_gap, seed=config.seed)


def ascent_step(mesh, mu_k, config, K=None):
    """One damped fixed-point step with the eigenvalue-ascent safeguard.

    Returns (mu_next, spectral_at_mu_k, frame_at_mu_k, info). info records the
    accepted step size (0.0 when every trial decreased lambda and the iterate
    was kept), the eigenvalue at the accepted density, the number of
    line-search trials and "capped": whether any trial candidate reached the
    cap. The solve at mu_k asks for config.k_eigen eigenpairs; each trial asks
    for lambda_1 alone, the only value the safeguard compares.
    """
    if K is None:
        K = assemble_stiffness(mesh)
    floor, cap = mu_k.floor, mu_k.cap
    spectral = _solve(K, mesh, mu_k, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    lam_k = spectral.lambda1
    nu = recover_density(mesh, frame)

    # accept only non-decreasing moves (tiny slack for eigensolver jitter);
    # anything looser breaks both the monotone-trace invariant and the exact
    # fixed-point behaviour at symmetric optima
    tol_abs = 1e-12 * lam_k
    t = config.damping
    accepted = (lam_k, mu_k, 0.0)  # kept when every trial decreases lambda
    capped = False
    for trials in range(1, 8):  # initial step plus six halvings
        cand = project_density(mesh, (1.0 - t) * mu_k.values + t * nu.values,
                               floor, cap)
        capped = capped or bool(cand.values.max() >= cap)
        lam_c = _solve(K, mesh, cand, config, 1).lambda1
        if lam_c >= lam_k - tol_abs:
            accepted = (lam_c, cand, t)
            break
        t *= 0.5
    lam_next, mu_next, t_used = accepted
    info = {"step": t_used, "lambda_next": lam_next, "lambda_k": lam_k,
            "frame_obj": frame.objective, "trials": trials, "capped": capped}
    return mu_next, spectral, frame, info


def saturated_measure(mesh, mu):
    """Area of the set where the density sits at its cap."""
    if mu.cap is None:
        return 0.0
    return float(mesh.vertex_areas[mu.values >= mu.cap * (1.0 - 1e-6)].sum())


def negative_measure(mesh, mu):
    """Area of E_- : density at or below zero (strictly below in floor-0 mode)."""
    if mu.floor is not None and mu.floor < 0:
        mask = mu.values <= 0.0
    else:
        mask = mu.values < 0.0
    return float(mesh.vertex_areas[mask].sum())


def detect_collapse(mu, mesh):
    """Mass of the heaviest intrinsic ball at each of COLLAPSE_RADII * diam(M).

    Distances are edge paths from Dijkstra truncated at the largest radius, a
    block of sources at a time (exact up to the limit; no V x V matrix). diam(M)
    is a double sweep: a lower bound on the all-pairs maximum.
    """
    v = mesh.vertex_count
    g = csr_matrix((mesh.edge_lengths, mesh.edges.T), shape=(v, v))  # i < j; undirected search
    far = int(np.argmax(dijkstra(g, directed=False, indices=0)))
    diam = float(dijkstra(g, directed=False, indices=far).max())
    vmass = mu.values * mesh.vertex_areas
    record = dict.fromkeys(COLLAPSE_RADII, 0.0)
    for s in range(0, v, _SOURCE_BLOCK):
        d = dijkstra(g, directed=False, indices=np.arange(s, min(s + _SOURCE_BLOCK, v)),
                     limit=max(COLLAPSE_RADII) * diam)
        for r in COLLAPSE_RADII:
            record[r] = max(record[r], float(((d <= r * diam) @ vmass).max()))
    return {"max_ball_mass": record, "flag": record[0.05] > 0.5, "diameter": diam}


def make_initial_density(mesh, init, floor, cap, seed=0):
    """Resolve 'uniform' | 'random' | DensityField | array into the S_N box."""
    if isinstance(init, DensityField):
        vals = init.values
    elif isinstance(init, str):
        if init == "uniform":
            vals = uniform_density(mesh).values
        elif init.startswith("random"):
            s = int(init.split(":", 1)[1]) if ":" in init else seed
            vals = random_density(mesh, s).values
        else:
            raise ValueError(f"unknown density init {init!r}")
    else:
        vals = np.asarray(init, dtype=float)
    return project_density(mesh, vals, floor, cap)


def maximize(mesh, mu0, config=AscentConfig()):
    """Continuation over the N schedule; returns (mu*, spectral, frame, trace).

    Each stage projects mu into the box [floor, N/A] and iterates ascent_step
    until a step is rejected or lambda stops moving. Once a stage ends on a
    rejected step none of whose trials reached the cap, every later stage only
    re-projects mu and runs no iterations; its N goes to trace.skipped_stages.
    This is exact: no trial was clipped at the cap and the floor is fixed, so a
    larger cap gives the same trial projections, the stage would repeat the
    same rejected step, and by induction so would every later one. A skipped
    stage inherits the ending of the stage it repeats, so any status that
    describes how a stage ended applies to it unchanged.
    """
    from .certify import certificate  # local import: certify depends on this module

    K = assemble_stiffness(mesh)
    A = mesh.area
    floor = config.floor / A
    trace = AscentTrace()
    sat_constant = 0.0
    mu = None
    spectral = frame = None
    it_global = 0
    status = "converged"
    settled = False  # a stage ended on a rejected step that no cap could bind

    for n_rel in config.n_schedule:
        cap = n_rel / A
        if mu is None:
            mu = make_initial_density(mesh, mu0, floor, cap, seed=config.seed)
        else:
            mu = project_density(mesh, mu.values, floor, cap)
        if settled:
            trace.skipped_stages.append(n_rel)
        converged = settled
        for _ in range(0 if settled else config.max_iters):
            t0 = time.perf_counter()
            mu_next, spectral, frame, info = ascent_step(mesh, mu, config, K=K)
            wall = (time.perf_counter() - t0) * 1e3
            trace.rows.append(TraceRow(
                iter=it_global, N=n_rel,
                lambda1_area=info["lambda_next"],
                EN_measure=saturated_measure(mesh, mu_next),
                ENeg_measure=negative_measure(mesh, mu_next),
                step=info["step"], frame_obj=info["frame_obj"],
                frame_steps=frame.iterations, frame_stop=frame.stop_reason,
                trials=info["trials"], wall_ms=wall))
            it_global += 1
            moved = info["step"] > 0.0
            lam_change = abs(info["lambda_next"] - info["lambda_k"])
            mu = mu_next
            if not moved or lam_change <= config.lam_tol * info["lambda_k"]:
                converged = True
                settled = not moved and not info["capped"]
                break
        if not converged:
            status = "iteration-cap"
        sat_constant = max(sat_constant, saturated_measure(mesh, mu) * cap)

    spectral = _solve(K, mesh, mu, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    collapse = detect_collapse(mu, mesh)
    if collapse["flag"]:
        status = "collapse"
    trace.status = status
    trace.saturation_constant = sat_constant
    trace.certificate = certificate(mesh, mu, spectral, frame, K)
    return mu, spectral, frame, trace


def trace_csv_rows(trace):
    header = [f.name for f in fields(TraceRow)]
    return header, [[getattr(r, name) for name in header] for r in trace.rows]
