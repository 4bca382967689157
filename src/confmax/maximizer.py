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
from .fem import (DensityField, _vertex_values, assemble_mass, assemble_stiffness,
                  random_density, uniform_density)
from .frame import recover_density, select_frame


COLLAPSE_RADIUS = 0.05  # collapse ball radius, a fraction of the diameter
RANDOM_SPEC = re.compile(r"random(?::(\d+))?")  # a seeded random initial density
_SLAB = 2 ** 18  # entries in one block's (sources, V) float64 distance slab: 2 MB
# relative slack of the ascent safeguard: a trial within SAFEGUARD_SLACK * lambda
# below the iterate is accepted, so a move of lambda this small is eigensolver
# jitter the safeguard cannot tell from standing still
SAFEGUARD_SLACK = 1e-12
DAMPING = 0.5  # the first line-search trial's step; each later trial halves it


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
    first eigenpair only. The line search starts at the module constant
    DAMPING.
    """
    n_schedule: tuple = (4.0, 16.0, 64.0)
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
        if not np.all(np.isfinite(self.n_schedule)):
            raise ValueError("n_schedule entries must be finite")
        if not all(b > a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("n_schedule must be strictly increasing")
        if self.floor not in (0.0, -0.5):
            raise ValueError("floor must be 0 or -0.5")
        if not 0.0 <= self.lam_tol < np.inf:
            raise ValueError("lam_tol must be finite and >= 0")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        # at rel_gap <= 0 no two eigenvalues share a cluster, so a multiple
        # lambda_1 would feed the frame a single eigenvector
        if not 0.0 < self.rel_gap < np.inf:
            raise ValueError("rel_gap must be finite and > 0")


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
    # N values run without iterations: a stage before them ended on a step no
    # trial capped that moved lambda by at most SAFEGUARD_SLACK (rejected: exact
    # to the bit; accepted: exact to the safeguard's resolution)
    skipped_stages: list = field(default_factory=list)
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


def ascent_step(mesh, mu_k, config, K):
    """One damped fixed-point step with the eigenvalue-ascent safeguard.

    K is the run's StiffnessMatrix. Returns (mu_next, spectral_at_mu_k,
    frame_at_mu_k, info). info records the accepted step size (0.0 when every
    trial decreased lambda and the iterate was kept), the eigenvalue at the
    accepted density, the number of line-search trials, "applications": the
    Lanczos operator applications of the solve at mu_k and of the trials, and
    "capped": whether any trial candidate reached the cap. The first trial
    steps DAMPING of the way to the recovered density, each later one half
    as far as the one before. The solve at mu_k asks for config.k_eigen
    eigenpairs; each trial asks for lambda_1 alone, the only value the
    safeguard compares.
    """
    floor, cap = mu_k.floor, mu_k.cap
    spectral = _solve(K, mesh, mu_k, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    lam_k = spectral.lambda1
    nu = recover_density(mesh, frame)

    # accept only non-decreasing moves (tiny slack for eigensolver jitter);
    # anything looser breaks both the monotone-trace invariant and the exact
    # fixed-point behaviour at symmetric optima
    tol_abs = SAFEGUARD_SLACK * lam_k
    t = DAMPING
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
    info = {"step": t_used, "lambda_next": lam_next, "trials": trials,
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
    g = csr_matrix((mesh.edge_lengths, mesh.edges.T), shape=(v, v))  # i < j
    g = (g + g.T).tocsr()  # both directions once: a directed search is cheaper per call
    far = int(np.argmax(dijkstra(g, indices=0)))
    diam = float(dijkstra(g, indices=far).max())
    limit = COLLAPSE_RADIUS * diam
    vmass = mu.values * mesh.vertex_areas
    block = max(1, _SLAB // v)
    heaviest = -np.inf
    for s in range(0, v, block):
        d = dijkstra(g, indices=np.arange(s, min(s + block, v)), limit=limit)
        hit = np.flatnonzero(d <= limit)  # row-major: by source, then by vertex
        heaviest = max(heaviest, float(np.bincount(hit // v, weights=vmass[hit % v]).max()))
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
        vals = init
    return project_density(mesh, _vertex_values(mesh, vals), floor, cap)


def maximize(mesh, mu0, config=AscentConfig()):
    """Continuation over the N schedule; returns (mu*, spectral, frame, trace).

    Each stage projects mu into the box [floor, N/A] and iterates ascent_step
    until a step is rejected or lambda stops moving. A stage settles the run
    when it ends on a step that moved lambda by at most SAFEGUARD_SLACK * lambda
    and none of whose trials reached the cap: a rejected step (lambda does not
    move) or an accepted one the safeguard cannot resolve. Every later stage
    then only re-projects mu and runs no iterations; its N goes to
    trace.skipped_stages. Skipping is exact in this sense:
    - a rejected step is exact to the bit: the floor is fixed and no trial was
      clipped at the cap, so a larger cap gives bitwise the same trial
      projections, the stage would repeat the same rejected step, and by
      induction so would every later one;
    - an accepted step is exact to the safeguard's resolution: with the cap not
      binding, each skipped stage would retake a step of the same map, one the
      safeguard cannot tell from standing still (on a flat torus from uniform,
      the round-off step off an exact fixed point).
    A skipped stage inherits the ending of the stage it repeats, so any status
    that describes how a stage ended applies to it unchanged.
    """
    from .certify import certificate  # local import: certify depends on this module

    K = assemble_stiffness(mesh)
    floor = config.floor / mesh.area
    trace = AscentTrace()
    mu = mu0
    settled = False  # a stage ended on a step no cap bound and the safeguard cannot resolve

    for n_rel in config.n_schedule:
        cap = n_rel / mesh.area
        mu = make_initial_density(mesh, mu, floor, cap, seed=config.seed)
        if settled:
            trace.skipped_stages.append(n_rel)
        converged = settled
        for _ in range(0 if settled else config.max_iters):
            t0 = time.perf_counter()
            mu_next, spectral, frame, info = ascent_step(mesh, mu, config, K)
            wall = (time.perf_counter() - t0) * 1e3
            trace.rows.append(TraceRow(
                iter=len(trace.rows), N=n_rel,
                lambda1_area=info["lambda_next"],
                EN_measure=saturated_measure(mesh, mu_next),
                ENeg_measure=negative_measure(mesh, mu_next),
                step=info["step"], frame_obj=frame.objective,
                frame_steps=frame.iterations, frame_stop=frame.stop_reason,
                trials=info["trials"], applications=info["applications"],
                wall_ms=wall))
            lam_change = abs(info["lambda_next"] - spectral.lambda1)  # 0 on a rejected step
            mu = mu_next
            if lam_change <= config.lam_tol * spectral.lambda1:
                converged = True
                settled = (lam_change <= SAFEGUARD_SLACK * spectral.lambda1
                           and not info["capped"])
                break
        if not converged:
            trace.status = "iteration-cap"
        trace.saturation_constant = max(trace.saturation_constant,
                                        saturated_measure(mesh, mu) * cap)

    spectral = _solve(K, mesh, mu, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    if detect_collapse(mu, mesh)["flag"]:
        trace.status = "collapse"
    trace.certificate = certificate(mesh, mu, spectral, frame, K)
    return mu, spectral, frame, trace


def trace_csv_rows(trace):
    header = [f.name for f in fields(TraceRow)]
    return header, [[getattr(r, name) for name in header] for r in trace.rows]
