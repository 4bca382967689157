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
from .fem import assemble_mass, assemble_stiffness, uniform_density
from .frame import select_frame
from .maximizer import AscentConfig, ascent_step, maximize
from .mesh import gen_flat_torus, gen_icosphere
from .certify import moebius_map, yang_yau_bound
from .oracle import brute_force_torus_max

EIGHT_PI = 8.0 * math.pi
TORUS_MAX = 8.0 * math.pi ** 2 / math.sqrt(3.0)

EQUILATERAL = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
SQUARE = np.array([[1.0, 0.0], [0.0, 1.0]])


@dataclass
class BenchResult:
    name: str
    passed: bool
    value: float
    target: str
    detail: str


def _result(name, passed, value, target, detail=""):
    return BenchResult(name, bool(passed), float(value), target, detail)


def sphere_spectrum_check(subdivs=(3, 4, 5), rel_tol=0.01, order_floor=1.8, seed=0):
    """Uniform-density sphere spectrum vs l(l+1) harmonics, plus mesh order."""
    lams = []
    results = []
    for s in subdivs:
        mesh = gen_icosphere(s)
        K = assemble_stiffness(mesh)
        M = assemble_mass(mesh, uniform_density(mesh))
        res = solve_pencil(K, M, k=9, seed=seed)
        lams.append(res.lambda1)
        if s == subdivs[-2]:
            c0, c1 = res.clusters[0], res.clusters[1]
            v0 = float(np.mean(res.eigenvalues[list(c0)]))
            v1 = float(np.mean(res.eigenvalues[list(c1)]))
            ok = (len(c0) == 3 and len(c1) == 5
                  and abs(v0 - 2 * 4 * math.pi) < rel_tol * 2 * 4 * math.pi
                  and abs(v1 - 6 * 4 * math.pi) < rel_tol * 6 * 4 * math.pi)
            results.append(_result(
                "sphere spectrum clusters", ok, v0,
                f"3 @ {2 * 4 * math.pi:.3f}, 5 @ {6 * 4 * math.pi:.3f} (1%)",
                f"sizes {len(c0)},{len(c1)}; values {v0:.4f}, {v1:.4f}"))
    errs = [abs(l - EIGHT_PI) for l in lams]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    results.append(_result(
        "sphere eigenvalue convergence order", min(orders) >= order_floor,
        min(orders), f">= {order_floor}", f"orders {['%.2f' % o for o in orders]}"))
    return results


def torus_spectrum_check(n=48, rel_tol=0.01, seed=0, rel_gap=0.02):
    """Square-torus spectrum vs 4 pi^2 |m|^2 Fourier values and multiplicities.

    rel_gap must track the mesh: the diagonal edge direction splits the
    4-fold second eigenvalue by O(h^2), about 2.3% at n = 24.
    """
    mesh = gen_flat_torus(SQUARE, n, n)
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh, uniform_density(mesh))
    res = solve_pencil(K, M, k=10, seed=seed, rel_gap=rel_gap)
    c0, c1 = res.clusters[0], res.clusters[1]
    v0 = float(np.mean(res.eigenvalues[list(c0)]))
    v1 = float(np.mean(res.eigenvalues[list(c1)]))
    t0, t1 = 4 * math.pi ** 2, 8 * math.pi ** 2
    ok = (len(c0) == 4 and len(c1) == 4
          and abs(v0 - t0) < rel_tol * t0 and abs(v1 - t1) < rel_tol * t1)
    return _result("square torus spectrum", ok, v0,
                   f"4 @ {t0:.3f}, 4 @ {t1:.3f} (1%)",
                   f"sizes {len(c0)},{len(c1)}; values {v0:.4f}, {v1:.4f}")


def run_sphere_max(s=4, seed=0):
    mesh = gen_icosphere(s)
    return (mesh,) + maximize(mesh, f"random:{seed}", AscentConfig(seed=seed))


def run_torus_max(lattice, n, seed=0):
    mesh = gen_flat_torus(lattice, n, n)
    return (mesh,) + maximize(mesh, "uniform", AscentConfig(seed=seed))


def fixed_point_check(mesh, name, tol=1e-6, seed=0):
    """Uniform density should be (numerically) stationary for ascent_step."""
    A = mesh.area
    cfg = AscentConfig(seed=seed)
    cap = cfg.n_schedule[-1] / A
    mu = uniform_density(mesh, floor=0.0, cap=cap)
    mu_next, _, _, info = ascent_step(mesh, mu, cfg, assemble_stiffness(mesh))
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


def bounds_check(records):
    """Yang-Yau cap on every output; Hersch floor at converged optima."""
    ok = True
    details = []
    for name, lam, genus, converged in records:
        cap = yang_yau_bound(genus) * 1.02
        if lam > cap:
            ok = False
            details.append(f"{name}: {lam:.3f} > {cap:.3f}")
        if converged and lam < EIGHT_PI * 0.98:
            ok = False
            details.append(f"{name}: {lam:.3f} < Hersch floor")
    return _result("genus bounds on all outputs", ok, len(records),
                   "lam*A <= 8pi*floor((g+3)/2)*1.02; >= 8pi*0.98 at optima",
                   "; ".join(details) or f"{len(records)} runs checked")


def property_checks(seed=0):
    rng = np.random.default_rng(seed)
    out = []

    # stiffness conformal invariance, exact for power-of-two scalings
    mesh = gen_icosphere(2)
    K1 = assemble_stiffness(mesh).matrix
    scaled = type(mesh)(mesh.vertex_count, mesh.triangles,
                        [(int(i), int(j), 2.0 * l) for (i, j), l in
                         zip(mesh.edges, mesh.edge_lengths)])
    K2 = assemble_stiffness(scaled).matrix
    diff = abs(K1 - K2).max()
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
    K = assemble_stiffness(mesh)
    md = uniform_density(mesh)
    res = solve_pencil(K, assemble_mass(mesh, md), k=4, seed=seed)
    basis = res.cluster_basis(0)
    f1 = select_frame(basis, mesh).objective
    R = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))[0]
    f2 = select_frame(basis @ R, mesh).objective
    drel = abs(f1 - f2)
    out.append(_result("frame basis-rotation invariance", drel < 1e-10, drel,
                       "< 1e-10", f"objective diff {drel:.2e}"))

    # deflation constraint on returned eigenvectors
    M = assemble_mass(mesh, md)
    cons = abs(np.ones(mesh.vertex_count) @ (M.matrix @ res.eigenvectors)).max()
    out.append(_result("deflation constraint", cons < 1e-10, cons, "< 1e-10",
                       f"max |1^T M u| = {cons:.2e}"))
    return out


def monotonicity_check(trace, name, lam_tol=AscentConfig.lam_tol):
    lams = [r.lambda1_area for r in trace.rows]
    ok = all(b >= a * (1.0 - 10 * lam_tol) for a, b in zip(lams, lams[1:]))
    worst = min(b - a for a, b in zip(lams, lams[1:])) if len(lams) > 1 else 0.0
    return _result(f"{name} accepted-step monotonicity", ok, worst,
                   "non-decreasing within tolerance", f"min step {worst:.2e}")


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
    mesh_s, mu_s, spec_s, frame_s, trace_s = run_sphere_max(s=s_main, seed=seed)
    lam_s = spec_s.lambda1
    rel = abs(lam_s - EIGHT_PI) / EIGHT_PI
    results.append(_result("sphere maximizer value", rel <= 0.02 * tol_mul, lam_s,
                           f"8pi = {EIGHT_PI:.4f} (2%)", f"lambda1*A = {lam_s:.4f}"))

    # 2. sphere fixed point
    results.append(fixed_point_check(mesh_s, "sphere", tol=1e-6 * tol_mul, seed=seed))

    # 3. equilateral torus value + fixed point
    mesh_t, mu_t, spec_t, frame_t, trace_t = run_torus_max(EQUILATERAL, n_torus,
                                                           seed=seed)
    lam_t = spec_t.lambda1
    rel_t = abs(lam_t - TORUS_MAX) / TORUS_MAX
    results.append(_result("equilateral torus maximizer value",
                           rel_t <= 0.02 * tol_mul, lam_t,
                           f"8pi^2/sqrt3 = {TORUS_MAX:.4f} (2%)",
                           f"lambda1*A = {lam_t:.4f}"))
    results.append(fixed_point_check(mesh_t, "equilateral torus",
                                     tol=1e-6 * tol_mul, seed=seed))

    # 4. eigensolver oracles
    subdivs = (2, 3, 4) if quick else (3, 4, 5)
    results.extend(sphere_spectrum_check(subdivs, rel_tol=0.01 * tol_mul, seed=seed))
    results.append(torus_spectrum_check(n_torus, rel_tol=0.01 * tol_mul, seed=seed,
                                        rel_gap=0.02 * tol_mul))

    # 5. certificates at the converged runs + refinement decrease
    results.append(certificate_check(trace_s.certificate, "sphere",
                                     5e-2 * tol_mul, 2e-2 * tol_mul, 5e-2 * tol_mul))
    results.append(certificate_check(trace_t.certificate, "equilateral torus",
                                     5e-2 * tol_mul, 2e-2 * tol_mul, 5e-2 * tol_mul))
    _, _, _, _, trace_coarse = run_sphere_max(s=s_main - 1, seed=seed)
    h_fine = trace_s.certificate["harmonic_weak_residual"]
    h_coarse = trace_coarse.certificate["harmonic_weak_residual"]
    results.append(_result("harmonic residual mesh refinement", h_fine < h_coarse,
                           h_fine, "decreasing under refinement",
                           f"coarse {h_coarse:.3e} -> fine {h_fine:.3e}"))
    results.append(_result("negative set measure (floor 0)",
                           trace_s.certificate["neg_set_measure"] == 0.0,
                           trace_s.certificate["neg_set_measure"], "= 0", ""))
    results.append(saturation_check(trace_s, "sphere"))

    # 6. bounds on everything this run produced
    records = [
        ("sphere max", lam_s, mesh_s.genus, trace_s.status == "converged"),
        ("equilateral torus max", lam_t, mesh_t.genus, trace_t.status == "converged"),
        ("coarse sphere max", trace_coarse.certificate["lambda1_area"], 0,
         trace_coarse.status == "converged"),
    ]

    # 7. square torus vs brute-force oracle
    mesh_q, mu_q, spec_q, frame_q, trace_q = run_torus_max(SQUARE, n_torus, seed=seed)
    lam_q = spec_q.lambda1
    oracle = brute_force_torus_max(n=12, restarts=restarts, seed=seed)
    rel_q = abs(lam_q - oracle) / oracle
    results.append(_result("square torus vs brute-force oracle", rel_q <= 0.03,
                           lam_q, f"oracle {oracle:.4f} (3%)",
                           f"main {lam_q:.4f}, oracle {oracle:.4f}, rel {rel_q:.3%}"))
    records.append(("square torus max", lam_q, mesh_q.genus,
                    trace_q.status == "converged"))
    results.append(bounds_check(records))

    # 8. property suites
    results.extend(property_checks(seed=seed))
    results.append(monotonicity_check(trace_s, "sphere"))
    results.append(monotonicity_check(trace_t, "equilateral torus"))
    return results
