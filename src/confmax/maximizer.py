"""Box-and-simplex ascent over conformal densities with continuation in N.

The update is the damped fixed point of the extremality identity
mu = sum |grad u_i|^2 / lambda, safeguarded so the accepted iterates never
decrease the normalized eigenvalue (beyond the tolerance).
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .eigen import DEFAULT_REL_GAP, solve_pencil
from .fem import (DensityField, assemble_mass, assemble_stiffness,
                  random_density, uniform_density)
from .frame import recover_density, select_frame


COLLAPSE_RADIUS = 0.05  # collapse ball radius, a fraction of the diameter
RANDOM_SPEC = re.compile(r"random(?::(\d+))?")  # a seeded random initial density
_SLAB = 2 ** 18  # entries in one block's (sources, V) float64 distance slab: 2 MB


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
    applications: int  # Lanczos operator applications of the iterate's solve and its trials
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

    The result is clip(v + c, floor, cap) with sum_i a_i clip(v_i + c, ...) = 1.
    That mass is piecewise linear and non-decreasing in the shift c, with knots
    at floor - v_i and cap - v_i; c is solved exactly on the segment of the
    sorted knots where it crosses 1 (a breakpoint search, as for the continuous
    quadratic knapsack). A zero-slope segment gives its end, so a box holding
    exactly unit mass returns its bound. Raising a cap no value reaches changes
    no bit: its knots all lie past the crossing.
    """
    values = np.asarray(values, dtype=float)
    a = mesh.vertex_areas
    if cap * a.sum() < 1.0 - 1e-12:
        raise ProjectionError("cap too small: box cannot carry unit mass")
    if floor * a.sum() > 1.0 + 1e-12:
        raise ProjectionError("floor too large: box cannot carry unit mass")

    knots = np.concatenate([floor - values, cap - values])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    slope = np.cumsum(np.concatenate([a, -a])[order])[:-1]  # on [knots[j], knots[j + 1]]
    mass = floor * a.sum() + np.concatenate([[0.0], np.cumsum(slope * np.diff(knots))])
    j = min(max(int(np.searchsorted(mass, 1.0, side="right")) - 1, 0), slope.size - 1)
    c = knots[j] + (1.0 - mass[j]) / slope[j] if slope[j] > 0 else knots[j + 1]
    return DensityField(mesh, np.clip(values + c, floor, cap), floor, cap)


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
    line-search trials, "applications": the Lanczos operator applications of
    the solve at mu_k and of the trials, and "capped": whether any trial
    candidate reached the cap. The solve at mu_k asks for config.k_eigen
    eigenpairs; each trial asks for lambda_1 alone, the only value the
    safeguard compares.
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
    applications = spectral.applications
    for trials in range(1, 8):  # initial step plus six halvings
        cand = project_density(mesh, (1.0 - t) * mu_k.values + t * nu.values,
                               floor, cap)
        capped = capped or bool(cand.values.max() >= cap)
        trial = _solve(K, mesh, cand, config, 1)
        applications += trial.applications
        lam_c = trial.lambda1
        if lam_c >= lam_k - tol_abs:
            accepted = (lam_c, cand, t)
            break
        t *= 0.5
    lam_next, mu_next, t_used = accepted
    info = {"step": t_used, "lambda_next": lam_next, "lambda_k": lam_k,
            "frame_obj": frame.objective, "trials": trials,
            "applications": applications, "capped": capped}
    return mu_next, spectral, frame, info


def _at_cap(mu):
    """Mask of the vertices where the density sits at its cap; none without a cap."""
    if mu.cap is None:
        return np.zeros(mu.values.shape, dtype=bool)
    return mu.values >= mu.cap * (1.0 - 1e-6)


def saturated_measure(mesh, mu):
    """Area of the set where the density sits at its cap."""
    return float(mesh.vertex_areas[_at_cap(mu)].sum())


def negative_measure(mesh, mu):
    """Area of E_- : density at or below zero (strictly below in floor-0 mode)."""
    if mu.floor is not None and mu.floor < 0:
        mask = mu.values <= 0.0
    else:
        mask = mu.values < 0.0
    return float(mesh.vertex_areas[mask].sum())


def detect_collapse(mu, mesh):
    """Mass of the heaviest intrinsic ball of radius COLLAPSE_RADIUS * diam(M).

    diam(M) is the double-sweep edge-path diameter (the eccentricity of the
    vertex farthest from vertex 0), a lower bound on the all-pairs maximum.
    The balls come from Dijkstra from every vertex truncated at the radius, in
    blocks of sources whose distances fill one slab of _SLAB entries. Nothing
    is kept between calls, so memory is O(V + _SLAB).
    """
    v = mesh.vertex_count
    g = csr_matrix((mesh.edge_lengths, mesh.edges.T), shape=(v, v))  # i < j; undirected search
    far = int(np.argmax(dijkstra(g, directed=False, indices=0)))
    diam = float(dijkstra(g, directed=False, indices=far).max())
    limit = COLLAPSE_RADIUS * diam
    vmass = mu.values * mesh.vertex_areas
    block = max(1, _SLAB // v)
    heaviest = -np.inf
    for s in range(0, v, block):
        d = dijkstra(g, directed=False, indices=np.arange(s, min(s + block, v)), limit=limit)
        hit = np.flatnonzero(d <= limit)  # row-major: by source, then by vertex
        indptr = np.concatenate([[0], np.cumsum(np.bincount(hit // v, minlength=len(d)))])
        ball = csr_matrix((np.ones(len(hit), dtype=bool), (hit % v).astype(np.int32), indptr),
                          shape=(len(d), v))
        heaviest = max(heaviest, float((ball @ vmass).max()))
    return {"max_ball_mass": {COLLAPSE_RADIUS: heaviest}, "flag": heaviest > 0.5,
            "diameter": diam}


def make_initial_density(mesh, init, floor, cap, seed=0):
    """Resolve 'uniform' | 'random[:seed]' | DensityField | array into the S_N box."""
    if isinstance(init, DensityField):
        vals = init.values
    elif isinstance(init, str):
        if init == "uniform":
            vals = uniform_density(mesh).values
        elif m := RANDOM_SPEC.fullmatch(init):
            vals = random_density(mesh, seed if m[1] is None else int(m[1])).values
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
    This is exact to the bit: no trial was clipped at the cap and the floor is
    fixed, so a larger cap gives bitwise the same trial projections, the stage
    would repeat the same rejected step, and by induction so would every later
    one. A skipped stage inherits the ending of the stage it repeats, so any
    status that describes how a stage ended applies to it unchanged.
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
                trials=info["trials"], applications=info["applications"],
                wall_ms=wall))
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
