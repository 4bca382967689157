"""Acceptance matrix: closed-form extremal values plus property spot checks.

Each check returns a BenchResult; `run_all` shares the expensive maximizer
runs across checks. `--quick` switches to coarse meshes with doubled
tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import solve_pencil
from .fem import DensityField, assemble_mass, uniform_density
from .frame import select_frame
from .maximizer import AscentConfig, ascent_step, maximize
from .mesh import EQUILATERAL, SQUARE, SURFACES, mesh_from_spec  # noqa: F401
from .certify import moebius_map
from .oracle import brute_force_torus_max

# perfbench/workloads.py reads EIGHT_PI, TORUS_MAX, EQUILATERAL and SQUARE from here
EIGHT_PI = SURFACES["icosphere"].lambda1_area
TORUS_MAX = SURFACES["flat-torus:equilateral"].lambda1_area
ORDER_FLOOR = 1.8  # least convergence order of the uniform sphere's lambda_1


@dataclass
class BenchResult:
    name: str
    passed: bool
    value: float
    target: str
    detail: str


def _result(name, passed, value, target, detail=""):
    return BenchResult(name, bool(passed), float(value), target, detail)


def _uniform_spectrum(spec, k, seed, **solver):
    """The uniform-density pencil solve on the generator spec's mesh."""
    mesh = mesh_from_spec(spec)
    return solve_pencil(assemble_mass(mesh, uniform_density(mesh)), k=k, seed=seed, **solver)


def _clusters_check(name, res, sizes, targets, rel_tol):
    """The first two eigenvalue clusters against their sizes and closed-form values."""
    got = [(len(c), float(np.mean(res.eigenvalues[list(c)]))) for c in res.clusters[:2]]
    ok = all(n == m and abs(v - t) < rel_tol * t for (n, v), m, t in zip(got, sizes, targets))
    (n0, v0), (n1, v1) = got
    target = ", ".join(f"{m} @ {t:.3f}" for m, t in zip(sizes, targets)) + f" ({rel_tol:.0%})"
    return _result(name, ok, v0, target, f"sizes {n0},{n1}; values {v0:.4f}, {v1:.4f}")


def sphere_spectrum_check(subdivs=(3, 4, 5), rel_tol=0.01, seed=0):
    """Uniform-density sphere spectrum vs l(l+1) harmonics, plus mesh order."""
    lams, results = [], []
    for s in subdivs:
        res = _uniform_spectrum(f"icosphere:{s}", 9, seed)
        lams.append(res.lambda1)
        if s == subdivs[-2]:  # l (l + 1) 4 pi at l = 1, 2
            results.append(_clusters_check("sphere spectrum clusters", res, (3, 5),
                                           (EIGHT_PI, 3 * EIGHT_PI), rel_tol))
    errs = [abs(l - EIGHT_PI) for l in lams]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    results.append(_result(
        "sphere eigenvalue convergence order", min(orders) >= ORDER_FLOOR,
        min(orders), f">= {ORDER_FLOOR}", f"orders {['%.2f' % o for o in orders]}"))
    return results


def torus_spectrum_check(n=48, rel_tol=0.01, seed=0, rel_gap=0.02):
    """Square-torus spectrum vs 4 pi^2 |m|^2 Fourier values and multiplicities.

    rel_gap must track the mesh: the diagonal edge direction splits the
    4-fold second eigenvalue by O(h^2), about 2.3% at n = 24.
    """
    res = _uniform_spectrum(f"flat-torus:square:{n}", 10, seed, rel_gap=rel_gap)
    t0 = SURFACES["flat-torus:square"].lambda1_area
    return _clusters_check("square torus spectrum", res, (4, 4), (t0, 2 * t0), rel_tol)


def _maximize(spec, init, seed):
    """(mesh, lambda1*A, trace) of one maximize run on the generator spec."""
    mesh = mesh_from_spec(spec)
    _, spectral, _, trace = maximize(mesh, init, AscentConfig(seed=seed))
    return mesh, spectral.lambda1, trace


def fixed_point_check(mesh, name, tol=1e-6, seed=0):
    """Uniform density should be (numerically) stationary for ascent_step."""
    cfg = AscentConfig(seed=seed)
    cap = cfg.n_schedule[-1] / mesh.area
    mu = DensityField(mesh, uniform_density(mesh).values, 0.0, cap)
    mu_next, _, _, info = ascent_step(mu, cfg, ())
    dist = float(mesh.vertex_areas @ np.abs(mu_next.values - mu.values))
    return _result(f"{name} uniform fixed point", dist <= tol, dist,
                   f"L1 move <= {tol}", f"L1 move {dist:.3e}, step {info['step']}")


def certificate_check(cert, name, sphere_tol=5e-2, recovery_tol=2e-2,
                      harmonic_tol=5e-2):
    checks = [
        ("sphere_residual", cert["sphere_residual"], sphere_tol),
        ("density_recovery_L1", cert["density_recovery_L1"], recovery_tol),
        ("harmonic_weak_residual", cert["harmonic_weak_residual"], harmonic_tol),
    ]
    worst = max(v / t for _, v, t in checks)
    detail = ", ".join(f"{k}={v:.3e}" for k, v, _ in checks)
    return _result(f"{name} certificate", worst <= 1.0, worst,
                   "all residuals under tolerance", detail)


def bounds_check(runs):
    """Yang-Yau cap on every output; Hersch floor at converged optima.

    runs are (name, trace) pairs; each verdict is the one its certificate made.
    """
    details = []
    for name, trace in runs:
        bounds, lam = trace.certificate["bounds"], trace.certificate["lambda1_area"]
        if not bounds["yang_yau_ok"]:
            details.append(f"{name}: {lam:.3f} over the Yang-Yau bound")
        if trace.status == "converged" and not bounds["hersch_floor_ok"]:
            details.append(f"{name}: {lam:.3f} < Hersch floor")
    return _result("genus bounds on all outputs", not details, len(runs),
                   "lam*A <= 8pi*floor((g+3)/2)*1.02; >= 8pi*0.98 at optima",
                   "; ".join(details) or f"{len(runs)} runs checked")


def property_checks(seed=0):
    rng = np.random.default_rng(seed)
    out = []

    # stiffness conformal invariance, exact for power-of-two scalings
    mesh = mesh_from_spec("icosphere:2")
    scaled = type(mesh)(mesh.vertex_count, mesh.triangles,
                        [(int(i), int(j), 2.0 * l) for (i, j), l in
                         zip(mesh.edges, mesh.edge_lengths)])
    diff = abs(mesh.stiffness.matrix - scaled.stiffness.matrix).max()
    out.append(_result("stiffness conformal invariance", diff == 0.0, diff,
                       "exact", f"max entry diff {diff}"))

    # mass total equals the density integral
    mu = rng.uniform(0.2, 2.0, mesh.vertex_count)
    M = assemble_mass(mesh, mu).matrix
    total = float(np.ones(mesh.vertex_count) @ (M @ np.ones(mesh.vertex_count)))
    target = float(mesh.vertex_areas @ mu)
    rel = abs(total - target) / target
    out.append(_result("mass matrix total", rel < 1e-12, rel, "< 1e-12 relative",
                       f"relative error {rel:.2e}"))

    # Moebius inverse identity
    worst = 0.0
    for _ in range(1000):
        e = rng.uniform(-1, 1, 3)
        e *= rng.uniform(0, 0.9) / np.linalg.norm(e)
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        back = moebius_map(-e, moebius_map(e, x))
        worst = max(worst, float(np.linalg.norm(back - x)))
    out.append(_result("Moebius inverse identity", worst < 1e-12, worst,
                       "< 1e-12", f"max deviation {worst:.2e}"))

    # frame objective invariance under orthogonal basis change
    M = assemble_mass(mesh, uniform_density(mesh))
    res = solve_pencil(M, k=4, seed=seed)
    basis = res.cluster_basis(0)
    f1 = select_frame(basis, mesh).objective
    R = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))[0]
    f2 = select_frame(basis @ R, mesh).objective
    drel = abs(f1 - f2)
    out.append(_result("frame basis-rotation invariance", drel < 1e-10, drel,
                       "< 1e-10", f"objective diff {drel:.2e}"))

    # deflation constraint on returned eigenvectors
    cons = abs(np.ones(mesh.vertex_count) @ (M.matrix @ res.eigenvectors)).max()
    out.append(_result("deflation constraint", cons < 1e-10, cons, "< 1e-10",
                       f"max |1^T M u| = {cons:.2e}"))
    return out


def monotonicity_check(trace, name):
    lams = [r.lambda1_area for r in trace.rows]
    ok = all(b >= a * (1.0 - 10 * AscentConfig.lam_tol) for a, b in zip(lams, lams[1:]))
    steps = [b - a for a, b in zip(lams, lams[1:])]
    rows = f"{len(lams)} row{'' if len(lams) == 1 else 's'}"
    detail = f"{rows}, min step {min(steps):.2e}" if steps else f"{rows}, no step to compare"
    return _result(f"{name} accepted-step monotonicity", ok, min(steps, default=0.0),
                   "non-decreasing within tolerance", detail)


def saturation_check(trace, name):
    per_n = dict.fromkeys(trace.skipped_stages, 0.0)  # such a stage never reached its cap
    for r in trace.rows:
        per_n[r.N] = r.EN_measure  # last iterate per N wins
    ns = sorted(per_n)
    measures = [per_n[n] for n in ns]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(measures, measures[1:]))
    return _result(f"{name} saturated-set decay", nonincreasing,
                   trace.saturation_constant,
                   "A(E_N) non-increasing in N; constant reported",
                   f"A(E_N)*N <= {trace.saturation_constant:.4f}; "
                   f"measures {['%.3e' % m for m in measures]}")


def run_all(quick=False, seed=0):
    results = []
    tol_mul = 2.0 if quick else 1.0
    s_main = 3 if quick else 4
    n_torus = 24 if quick else 48
    restarts = 5 if quick else 20

    # 1. sphere maximizer from a random start
    mesh_s, lam_s, trace_s = _maximize(f"icosphere:{s_main}", f"random:{seed}", seed)
    rel = abs(lam_s - EIGHT_PI) / EIGHT_PI
    results.append(_result("sphere maximizer value", rel <= 0.02 * tol_mul, lam_s,
                           f"8pi = {EIGHT_PI:.4f} (2%)", f"lambda1*A = {lam_s:.4f}"))

    # 2. sphere fixed point
    results.append(fixed_point_check(mesh_s, "sphere", tol=1e-6 * tol_mul, seed=seed))

    # 3. equilateral torus value + fixed point
    mesh_t, lam_t, trace_t = _maximize(f"flat-torus:equilateral:{n_torus}", "uniform", seed)
    rel_t = abs(lam_t - TORUS_MAX) / TORUS_MAX
    results.append(_result("equilateral torus maximizer value", rel_t <= 0.02 * tol_mul, lam_t,
                           f"8pi^2/sqrt3 = {TORUS_MAX:.4f} (2%)", f"lambda1*A = {lam_t:.4f}"))
    results.append(fixed_point_check(mesh_t, "equilateral torus", tol=1e-6 * tol_mul, seed=seed))

    # 4. eigensolver oracles
    subdivs = (2, 3, 4) if quick else (3, 4, 5)
    results.extend(sphere_spectrum_check(subdivs, rel_tol=0.01 * tol_mul, seed=seed))
    results.append(torus_spectrum_check(n_torus, rel_tol=0.01 * tol_mul, seed=seed,
                                        rel_gap=0.02 * tol_mul))

    # 5. certificates at the converged runs + refinement decrease
    for trace, name in ((trace_s, "sphere"), (trace_t, "equilateral torus")):
        results.append(certificate_check(trace.certificate, name,
                                         5e-2 * tol_mul, 2e-2 * tol_mul, 5e-2 * tol_mul))
    _, _, trace_coarse = _maximize(f"icosphere:{s_main - 1}", f"random:{seed}", seed)
    h_fine = trace_s.certificate["harmonic_weak_residual"]
    h_coarse = trace_coarse.certificate["harmonic_weak_residual"]
    results.append(_result("harmonic residual mesh refinement", h_fine < h_coarse,
                           h_fine, "decreasing under refinement",
                           f"coarse {h_coarse:.3e} -> fine {h_fine:.3e}"))
    results.append(_result("negative set measure (floor 0)",
                           trace_s.certificate["neg_set_measure"] == 0.0,
                           trace_s.certificate["neg_set_measure"], "= 0", ""))
    results.append(saturation_check(trace_s, "sphere"))

    # 6. square torus vs brute-force oracle
    _, lam_q, trace_q = _maximize(f"flat-torus:square:{n_torus}", "uniform", seed)
    oracle = brute_force_torus_max(n=12, restarts=restarts, seed=seed)
    rel_q = abs(lam_q - oracle) / oracle
    results.append(_result("square torus vs brute-force oracle", rel_q <= 0.03,
                           lam_q, f"oracle {oracle:.4f} (3%)",
                           f"main {lam_q:.4f}, oracle {oracle:.4f}, rel {rel_q:.3%}"))

    # 7. bounds on everything this run produced
    results.append(bounds_check([("sphere max", trace_s), ("equilateral torus max", trace_t),
                                 ("coarse sphere max", trace_coarse),
                                 ("square torus max", trace_q)]))

    # 8. property suites; from a random start the torus ascent takes several
    # steps, where the uniform run above settles on its first
    results.extend(property_checks(seed=seed))
    results.append(monotonicity_check(trace_s, "sphere"))
    results.append(monotonicity_check(trace_t, "equilateral torus"))
    _, _, trace_a = _maximize("flat-torus:equilateral:24", "random:2", seed)
    results.append(monotonicity_check(trace_a, "equilateral torus ascent"))
    return results
