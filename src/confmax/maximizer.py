"""Box-and-simplex ascent over conformal densities with continuation in N.

The update is the damped fixed point of the extremality identity
mu = sum |grad u_i|^2 / lambda, Anderson-accelerated over the stage's last
iterates and safeguarded so the accepted iterates never decrease the
normalized eigenvalue (beyond the tolerance).
"""
from __future__ import annotations

import re
import time
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .eigen import DEFAULT_REL_GAP, solve_pencil
from .fem import (DensityField, _vertex_values, assemble_mass, random_density,
                  uniform_density)
from .frame import recover_density, select_frame


COLLAPSE_RADIUS = 0.05  # collapse ball radius, a fraction of the diameter
RANDOM_SPEC = re.compile(r"random(?::(\d+))?")  # a seeded random initial density
_SLAB = 2 ** 18  # entries in one block's (sources, V) float64 distance slab: 2 MB
# relative slack of the ascent safeguard: a trial within SAFEGUARD_SLACK * lambda
# below the iterate is accepted, so a move of lambda this small is eigensolver
# jitter the safeguard cannot tell from standing still
SAFEGUARD_SLACK = 1e-12
DAMPING = 0.5  # the first line-search trial's step; each later trial halves it
ANDERSON_MEMORY = 2  # earlier iterates of a stage mixed with the current one


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
    DAMPING. A stage ends on a step that moves lambda by at most lam_tol
    (relative), and a line search at a rejected trial within lam_tol of the
    iterate's lambda.
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
    trials: int        # line-search pencil solves at this iterate, the mixed trial included
    applications: int  # Lanczos operator applications of the iterate's solve and its trials
    wall_ms: float
    mixed: bool        # the accepted step is the Anderson candidate
    search: str        # why the line search ended: "accepted", "flat" or "exhausted"


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


def _solve(density, config, k):
    # k = config.k_eigen where the leading cluster is used (frame, certificate):
    # ARPACK resolves a degenerate lambda_1 cluster far better when the requested
    # block spans it. A line-search trial reads lambda_1 alone, so it asks for
    # k = 1 and stays clear of the slowly converging higher clusters.
    return solve_pencil(assemble_mass(density.mesh, density), k=k,
                        rel_gap=config.rel_gap, seed=config.seed)


def _anderson_mix(pairs, weights):
    """Type-II Anderson mix of (iterate, image) pairs of a fixed-point map, oldest first.

    With residuals f_j = g_j - x_j and dF, dG the differences of consecutive
    residuals and images, gamma minimizes |weights * (f_k - dF gamma)| and the
    mix is g_k - dG gamma (Walker and Ni 2011). On an affine map whose last
    residual lies in the span of dF, the mix is the fixed point.
    """
    x, g = (np.array(side) for side in zip(*pairs))
    f = g - x
    gamma = np.linalg.lstsq(weights[:, None] * np.diff(f, axis=0).T,
                            weights * f[-1], rcond=None)[0]
    return g[-1] - np.diff(g, axis=0).T @ gamma


def ascent_step(mu_k, config, history):
    """One damped fixed-point step, Anderson-mixed, with the eigenvalue-ascent safeguard.

    The step runs on the density's mesh, with its stiffness. The map is
    G(mu) = (1 - DAMPING) mu + DAMPING nu, nu the recovered density, taken
    before projection. history holds the stage's earlier (iterate, image)
    pairs of G, oldest first and at most ANDERSON_MEMORY of them. When it is
    full, the first trial is their Anderson mix with mu_k's pair (residuals
    weighted by sqrt(vertex area)), projected into the box; if the safeguard
    rejects it, the history empties. Otherwise, or after a rejected mix, the
    plain line search runs: its first trial steps DAMPING of the way to nu,
    each later one half as far as the one before. So a stage's first
    ANDERSON_MEMORY steps are plain, and so are the ANDERSON_MEMORY steps
    after a rejected mix.

    The plain search ends at its first rejected trial whose lambda lies within
    config.lam_tol of lambda at mu_k: a step that cannot move lambda by the
    stage's own resolution is rejected as when every halving is, and the
    remaining halvings are not solved. A rejected mix never ends the search (it
    says nothing about the plain segment), and lam_tol = 0 turns the stop off.

    Returns (mu_next, spectral_at_mu_k, frame_at_mu_k, info). info records the
    accepted step size (DAMPING for the mixed candidate, 0.0 when the step was
    rejected and the iterate kept), "mixed": whether the mixed candidate was
    accepted, the eigenvalue at the accepted density, the number of trials,
    "applications": the Lanczos operator applications of the solve at mu_k
    and of the trials, "capped": whether any trial candidate reached the cap,
    "search": why the line search ended ("accepted", "flat": the stop above,
    or "exhausted": every halving rejected), and "history": the pairs for the
    next step. The solve at mu_k asks for config.k_eigen eigenpairs; each
    trial asks for lambda_1 alone, the only value the safeguard compares.
    """
    mesh, floor, cap = mu_k.mesh, mu_k.floor, mu_k.cap
    spectral = _solve(mu_k, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    lam_k = spectral.lambda1
    nu = recover_density(frame)
    pairs = history + ((mu_k.values, (1.0 - DAMPING) * mu_k.values + DAMPING * nu.values),)

    # accept only non-decreasing moves (tiny slack for eigensolver jitter);
    # anything looser breaks both the monotone-trace invariant and the exact
    # fixed-point behaviour at symmetric optima
    tol_abs = SAFEGUARD_SLACK * lam_k
    flat = lam_k * (1.0 - config.lam_tol)  # a rejected plain trial this high ends the search
    accepted = (lam_k, mu_k, 0.0, False)  # kept when the step is rejected
    capped, search = False, "exhausted"
    applications = spectral.applications
    mix = ([(_anderson_mix(pairs, np.sqrt(mesh.vertex_areas)), DAMPING, True)]
           if len(history) == ANDERSON_MEMORY else [])
    # the initial plain step plus six halvings
    plain = (((1.0 - t) * mu_k.values + t * nu.values, t, False)
             for t in (DAMPING * 0.5 ** i for i in range(7)))
    for trials, (values, t, is_mix) in enumerate(chain(mix, plain), start=1):
        cand = project_density(mesh, values, floor, cap)
        capped = capped or bool(cand.values.max() >= cap)
        trial = _solve(cand, config, 1)
        applications += trial.applications
        lam_c = trial.lambda1
        if lam_c >= lam_k - tol_abs:
            accepted, search = (lam_c, cand, t, is_mix), "accepted"
            break
        if not is_mix and lam_c >= flat:
            search = "flat"
            break
    lam_next, mu_next, t_used, mixed = accepted
    info = {"step": t_used, "mixed": mixed, "lambda_next": lam_next,
            "trials": trials, "applications": applications, "capped": capped,
            "search": search,
            "history": () if mix and not mixed else pairs[-ANDERSON_MEMORY:]}
    return mu_next, spectral, frame, info


def _at_cap(mu):
    """Mask of the vertices where the density sits at its cap; none without a cap."""
    if mu.cap is None:
        return np.zeros(mu.values.shape, dtype=bool)
    return mu.values >= mu.cap * (1.0 - 1e-6)


def saturated_measure(mu):
    """Area, on the density's mesh, of the set where the density sits at its cap."""
    return float(mu.mesh.vertex_areas[_at_cap(mu)].sum())


def negative_measure(mu):
    """Area, on the density's mesh, of E_-: density at or below zero (below it at floor 0)."""
    if mu.floor is not None and mu.floor < 0:
        mask = mu.values <= 0.0
    else:
        mask = mu.values < 0.0
    return float(mu.mesh.vertex_areas[mask].sum())


def _ball_rows(g, sources, limit):
    """Distance rows of `sources` truncated at `limit`, by blocks that fill one slab."""
    block = max(1, _SLAB // g.shape[0])
    for s in range(0, len(sources), block):
        yield slice(s, s + block), dijkstra(g, indices=sources[s:s + block], limit=limit)


def _row_sums(inside, weights):
    """Per row of a (sources, V) ball mask, the sum of weights over its vertices in vertex order.

    Every row holds its own source, so no row is empty.
    """
    hit = np.flatnonzero(inside)  # row-major: by source, then by vertex
    v = inside.shape[1]
    return np.bincount(hit // v, weights=weights[hit % v])


def _incidence(hits, shape):
    """0/1 CSR matrix of the ascending flat (row * columns + column) indices `hits`."""
    indptr = np.searchsorted(hits, shape[1] * np.arange(shape[0] + 1))
    return csr_matrix((np.ones(hits.size), hits % shape[1], indptr), shape=shape)


class CollapseNet(NamedTuple):
    """The density-free half of detect_collapse on one mesh; ``mesh.collapse_net`` holds it.

    graph is the edge graph stored in both directions (a directed search is
    cheaper per call), diameter its double-sweep estimate and radius
    COLLAPSE_RADIUS of it. centres are every s-th vertex in order of distance
    from far, the vertex farthest from vertex 0, where s is the vertex count
    of B(far, radius); cell maps each vertex to the row of its nearest centre,
    and delta holds each centre's covering radius. ball and wide are 0/1
    (centres, V) incidences of B(c, radius) and B(c, radius + delta_c). Where
    s = 1 every vertex is a centre covering only itself: the covering search is
    skipped and wide is ball. Everything is linear in V.
    """
    graph: csr_matrix
    diameter: float
    radius: float
    centres: np.ndarray
    cell: np.ndarray
    delta: np.ndarray
    ball: csr_matrix
    wide: csr_matrix

    @classmethod
    def build(cls, mesh):
        """Search the mesh's balls once, in blocks of sources filling one slab of _SLAB entries."""
        v = mesh.vertex_count
        g = csr_matrix((mesh.edge_lengths, mesh.edges.T), shape=(v, v))  # i < j
        g = (g + g.T).tocsr()
        far = int(np.argmax(dijkstra(g, indices=0)))
        dfar = dijkstra(g, indices=far)
        diam = float(dfar.max())
        radius = COLLAPSE_RADIUS * diam
        spacing = int(np.count_nonzero(dfar <= radius))
        if spacing > 1:
            centres = np.sort(np.argsort(dfar, kind="stable")[::spacing])
            reach, _, nearest = dijkstra(g, indices=centres, min_only=True,
                                         return_predecessors=True)
            cell = np.searchsorted(centres, nearest)  # each vertex's centre, as a row of centres
            delta = np.zeros(len(centres))
            np.maximum.at(delta, cell, reach)
        else:  # every ball holds one vertex: each vertex is a centre covering only itself
            centres = cell = np.arange(v)
            delta = np.zeros(v)
        # widened by far more than an edge-path sum's rounding, so the cover holds in floats
        outer = (radius + delta) * (1.0 + 1e-9)
        ball, wide = [], []
        for rows, d in _ball_rows(g, centres, outer.max()):
            ball.append(np.flatnonzero(d <= radius) + rows.start * v)
            if spacing > 1:  # at s = 1 every bound is its centre's own ball
                wide.append(np.flatnonzero(d <= outer[rows, None]) + rows.start * v)
        ball = _incidence(np.concatenate(ball), (len(centres), v))
        wide = _incidence(np.concatenate(wide), ball.shape) if wide else ball
        return cls(g, diam, radius, centres, cell, delta, ball, wide)


def detect_collapse(mu):
    """Mass of the heaviest intrinsic ball of radius r = COLLAPSE_RADIUS * diam(M), bracketed.

    M is the density's mesh, and diam(M) its double-sweep edge-path diameter
    (the eccentricity of far, the vertex farthest from vertex 0), a lower
    bound on the all-pairs maximum. The balls are searched from a net of
    centres: every s-th vertex in order of distance from far, where s is the
    vertex count of B(far, r). One multi-source Dijkstra gives each vertex its
    nearest centre c, hence c's covering radius delta_c, and every ball B(x, r)
    lies in B(c, r + delta_c) of x's centre. So
    - ``max_ball_mass`` (lower) is the heaviest B(c, r), a ball the density has;
    - ``max_ball_mass_upper`` is the heaviest positive mass of B(c, r + delta_c),
      or B(c, r)'s own mass where delta_c = 0 (c covers only itself);
    - ``flag``, a ball holding more than half the mass, is the all-pairs test
      exactly: False when upper <= 0.5, True when lower > 0.5, and otherwise
      decided by the exact balls of every vertex whose centre's bound exceeds
      0.5. Those balls join lower and replace their centre's bound;
    - ``centres`` counts the balls searched.
    Where every ball holds one vertex (s = 1), each vertex is a centre and the
    search is the all-pairs one, with upper = lower. The net, its radii and
    both ball incidences depend on the mesh alone: the first call builds them
    into ``mesh.collapse_net`` (a CollapseNet, linear in V), and every call
    takes the bounds as two sparse products, each ball summed in vertex order.
    Only the exact balls are searched per call, on the held graph, in blocks
    of sources filling one slab of _SLAB entries: O(V + _SLAB) memory.
    """
    mesh = mu.mesh
    net = mesh.collapse_net
    vmass = mu.values * mesh.vertex_areas
    lower = net.ball @ vmass
    # a floor below 0 gives balls negative annuli, so the widened balls sum the positive part
    upper = np.where(net.delta > 0.0, net.wide @ np.maximum(vmass, 0.0), lower)
    heaviest, searched = lower.max(), len(net.centres)
    if heaviest <= 0.5 < upper.max():
        open_ = upper > 0.5
        sources = np.flatnonzero(open_[net.cell])
        exact = np.empty(len(sources))
        for rows, d in _ball_rows(net.graph, sources, net.radius):
            exact[rows] = _row_sums(d <= net.radius, vmass)
        best = np.full(len(net.centres), -np.inf)
        np.maximum.at(best, net.cell[sources], exact)
        upper[open_] = best[open_]
        heaviest, searched = max(heaviest, exact.max()), searched + len(sources)
    return {"max_ball_mass": {COLLAPSE_RADIUS: float(heaviest)},
            "max_ball_mass_upper": {COLLAPSE_RADIUS: float(upper.max())},
            "flag": bool(heaviest > 0.5), "diameter": net.diameter, "centres": int(searched)}


def make_initial_density(mesh, init, floor, cap, seed=0):
    """Resolve 'uniform' | 'random[:seed]' | this mesh's DensityField | array into the S_N box."""
    if isinstance(init, str):
        if init == "uniform":
            vals = uniform_density(mesh)
        elif m := RANDOM_SPEC.fullmatch(init):
            vals = random_density(mesh, seed if m[1] is None else int(m[1]))
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
    - a rejected step is exact to the bit: the floor is fixed and none of the
      trials that ran was clipped at the cap, so a larger cap gives bitwise the
      same trial projections, the same lambda values and the same end of the
      line search (flat or exhausted); the stage would repeat the same rejected
      step, and by induction so would every later one;
    - an accepted step is exact to the safeguard's resolution: with the cap not
      binding, each skipped stage would retake a step of the same map, one the
      safeguard cannot tell from standing still (on a flat torus from uniform,
      the round-off step off an exact fixed point).
    A skipped stage inherits the ending of the stage it repeats, so any status
    that describes how a stage ended applies to it unchanged.
    """
    from .certify import certificate  # local import: certify depends on this module

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
        history = ()  # each stage starts with a plain step
        for _ in range(0 if settled else config.max_iters):
            t0 = time.perf_counter()
            mu_next, spectral, frame, info = ascent_step(mu, config, history)
            history = info["history"]
            wall = (time.perf_counter() - t0) * 1e3
            trace.rows.append(TraceRow(
                iter=len(trace.rows), N=n_rel,
                lambda1_area=info["lambda_next"],
                EN_measure=saturated_measure(mu_next),
                ENeg_measure=negative_measure(mu_next),
                step=info["step"], frame_obj=frame.objective,
                frame_steps=frame.iterations, frame_stop=frame.stop_reason,
                trials=info["trials"], applications=info["applications"],
                wall_ms=wall, mixed=info["mixed"], search=info["search"]))
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
                                        saturated_measure(mu) * cap)

    spectral = _solve(mu, config, config.k_eigen)
    frame = select_frame(spectral.cluster_basis(0), mesh)
    if detect_collapse(mu)["flag"]:
        trace.status = "collapse"
    trace.certificate = certificate(mu, spectral, frame)
    return mu, spectral, frame, trace


def trace_csv_rows(trace):
    header = [f.name for f in fields(TraceRow)]
    return header, [[getattr(r, name) for name in header] for r in trace.rows]
