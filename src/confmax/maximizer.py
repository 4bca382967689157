"""Box-and-simplex ascent over conformal densities with continuation in N.

The update is the damped fixed point of the extremality identity
mu = sum |grad u_i|^2 / lambda, safeguarded so the accepted iterates never
decrease the normalized eigenvalue (beyond the tolerance).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .eigen import DEFAULT_REL_GAP, solve_pencil
from .fem import (DensityField, assemble_mass, assemble_stiffness,
                  random_density, uniform_density)
from .frame import recover_density, select_frame, with_eigenvalue


class ProjectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class AscentConfig:
    """Knobs for one maximization run.

    n_schedule entries and the floor are multiples of the mean density 1/A
    (the continuum normalization puts unit mass on the surface, so on a
    unit-area surface these coincide with the absolute bounds).
    """
    n_schedule: tuple = (4.0, 16.0, 64.0)
    damping: float = 0.5
    max_iters: int = 500
    lam_tol: float = 1e-7
    floor: float = 0.0
    seed: int = 0
    k_eigen: int = 8
    rel_gap: float = DEFAULT_REL_GAP
    eig_tol: float = 1e-10
    radius_fractions: tuple = (0.05, 0.1, 0.2)

    def __post_init__(self):
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
    wall_ms: float


@dataclass
class AscentTrace:
    rows: list = field(default_factory=list)
    status: str = "converged"
    saturation_constant: float = 0.0  # max over schedule of A(E_N) * N
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


def _lambda1_at(K, mesh, values, config):
    # solve for the whole leading block: ARPACK handles degenerate lambda_1
    # clusters far better when the requested subspace spans them
    M = assemble_mass(mesh, values)
    res = solve_pencil(K, M, k=config.k_eigen, tol=config.eig_tol,
                       rel_gap=config.rel_gap, seed=config.seed)
    return res.lambda1


def _solve_and_frame(K, mesh, mu, config):
    M = assemble_mass(mesh, mu)
    spectral = solve_pencil(K, M, k=config.k_eigen, tol=config.eig_tol,
                            rel_gap=config.rel_gap, seed=config.seed)
    basis = spectral.cluster_basis(0)
    lam_cluster = float(np.mean(spectral.eigenvalues[list(spectral.clusters[0])]))
    frame = with_eigenvalue(select_frame(basis, mesh, mu), lam_cluster)
    return spectral, frame


def ascent_step(mesh, mu_k, config, K=None):
    """One damped fixed-point step with the eigenvalue-ascent safeguard.

    Returns (mu_next, spectral_at_mu_k, frame_at_mu_k, info). info records the
    accepted step size (0.0 when every trial decreased lambda and the iterate
    was kept) and the eigenvalue at the accepted density.
    """
    if K is None:
        K = assemble_stiffness(mesh)
    floor, cap = mu_k.floor, mu_k.cap
    spectral, frame = _solve_and_frame(K, mesh, mu_k, config)
    lam_k = spectral.lambda1
    nu = recover_density(mesh, frame)

    # accept only non-decreasing moves (tiny slack for eigensolver jitter);
    # anything looser breaks both the monotone-trace invariant and the exact
    # fixed-point behaviour at symmetric optima
    tol_abs = 1e-12 * lam_k
    best = (lam_k, mu_k, 0.0)
    t = config.damping
    accepted = None
    for _ in range(7):  # initial step plus six halvings
        cand = project_density(mesh, (1.0 - t) * mu_k.values + t * nu.values,
                               floor, cap)
        lam_c = _lambda1_at(K, mesh, cand.values, config)
        if lam_c > best[0]:
            best = (lam_c, cand, t)
        if lam_c >= lam_k - tol_abs:
            accepted = (lam_c, cand, t)
            break
        t *= 0.5
    if accepted is None:
        # fall back to the best trial only if it improves; else keep mu_k
        accepted = best
    lam_next, mu_next, t_used = accepted
    info = {"step": t_used, "lambda_next": lam_next, "lambda_k": lam_k,
            "frame_obj": frame.objective}
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


def detect_collapse(mu, mesh, radius_fractions=(0.05, 0.1, 0.2)):
    """Mass of the heaviest intrinsic ball at each radius fraction of diam(M)."""
    vmass = mu.values * mesh.vertex_areas
    record = {float(r): 0.0 for r in radius_fractions}
    if mesh.vertex_count <= 6000:
        chunks = [mesh.graph_distances()]
        diam = float(chunks[0].max())
    else:
        # avoid caching the full V x V matrix on refined meshes
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import dijkstra
        i, j = mesh.edges[:, 0], mesh.edges[:, 1]
        g = coo_matrix(
            (np.concatenate([mesh.edge_lengths] * 2),
             (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(mesh.vertex_count, mesh.vertex_count)).tocsr()
        step = 2000
        chunks = (dijkstra(g, directed=False,
                           indices=np.arange(s, min(s + step, mesh.vertex_count)))
                  for s in range(0, mesh.vertex_count, step))
        chunks = list(chunks)
        diam = float(max(c.max() for c in chunks))
    for c in chunks:
        for r in radius_fractions:
            ball = (c <= r * diam) @ vmass
            record[float(r)] = max(record[float(r)], float(ball.max()))
    flag = record.get(0.05, 0.0) > 0.5
    return {"max_ball_mass": record, "flag": bool(flag)}


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
    """Continuation over the N schedule; returns (mu*, spectral, frame, trace)."""
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

    for n_rel in config.n_schedule:
        cap = n_rel / A
        if mu is None:
            mu = make_initial_density(mesh, mu0, floor, cap, seed=config.seed)
        else:
            mu = project_density(mesh, mu.values, floor, cap)
        converged = False
        for _ in range(config.max_iters):
            t0 = time.perf_counter()
            mu_next, spectral, frame, info = ascent_step(mesh, mu, config, K=K)
            wall = (time.perf_counter() - t0) * 1e3
            trace.rows.append(TraceRow(
                iter=it_global, N=n_rel,
                lambda1_area=info["lambda_next"],
                EN_measure=saturated_measure(mesh, mu_next),
                ENeg_measure=negative_measure(mesh, mu_next),
                step=info["step"], frame_obj=info["frame_obj"], wall_ms=wall))
            it_global += 1
            moved = info["step"] > 0.0
            lam_change = abs(info["lambda_next"] - info["lambda_k"])
            mu = mu_next
            if not moved or lam_change <= config.lam_tol * info["lambda_k"]:
                converged = True
                break
        if not converged:
            status = "iteration-cap"
        sat_constant = max(sat_constant, saturated_measure(mesh, mu) * cap)

    spectral, frame = _solve_and_frame(K, mesh, mu, config)
    collapse = detect_collapse(mu, mesh, config.radius_fractions)
    if collapse["flag"]:
        status = "collapse"
    trace.status = status
    trace.saturation_constant = sat_constant
    trace.certificate = certificate(mesh, mu, spectral, frame,
                                    radius_fractions=config.radius_fractions)
    return mu, spectral, frame, trace


def trace_csv_rows(trace):
    header = ["iter", "N", "lambda1_area", "EN_measure", "ENeg_measure",
              "step", "frame_obj", "wall_ms"]
    rows = [[r.iter, r.N, r.lambda1_area, r.EN_measure, r.ENeg_measure,
             r.step, r.frame_obj, r.wall_ms] for r in trace.rows]
    return header, rows
