"""The four benchmark workloads and the work one operation does.

One operation is the set-up (mesh and start density) followed by the timed
work: ``maximize`` with its final solve, frame and certificate, and on
``square-crosscheck`` the brute-force oracle. Every call into confmax goes
through a module attribute (``cm_maximizer.maximize``, not a name bound at
import), so the tracer's wrappers see the benchmark's own calls too.

Why each workload was chosen is in ``perfbench/NOTES.md``.
"""
from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

import confmax.bench as cm_bench
import confmax.fem as cm_fem
import confmax.maximizer as cm_maximizer
import confmax.mesh as cm_mesh
import confmax.oracle as cm_oracle

from tracer import Tracer, aggregate

EIGHT_PI, TORUS_MAX = cm_bench.EIGHT_PI, cm_bench.TORUS_MAX
FLAT_SQUARE = 4.0 * math.pi ** 2  # lambda1 * area of the flat unit square torus
LATTICES = {"equilateral": cm_bench.EQUILATERAL, "square": cm_bench.SQUARE}
VALUE_TOL = 0.02   # acceptance gate: maximizer value within 2% of closed form
ORACLE_TOL = 0.03  # acceptance gate: main and oracle agree within 3%
UNATTAINED = "sphere constraint unattained"


@dataclass(frozen=True)
class Workload:
    name: str
    mesh: str                 # generator spec, as the CLI's --gen
    start: str                # "uniform" or "tilt" (see start_density)
    reference: float          # closed-form lambda1 * area the gate checks
    loads: tuple              # (per-layer metric, least share of traced wall)
    config: dict = field(default_factory=dict)  # AscentConfig overrides
    oracle: dict | None = None  # brute_force_torus_max kwargs, seed excluded


WORKLOADS = {w.name: w for w in (
    Workload("sphere-ascent", "icosphere:3", "tilt", EIGHT_PI,
             ("eigen.solve_pencil.s", 0.4)),
    Workload("torus-degenerate", "flat-torus:equilateral:16", "uniform",
             TORUS_MAX, ("frame.select_frame.s", 0.8),
             config={"rel_gap": 0.15, "n_schedule": (64.0,)}),
    Workload("sphere-certify", "icosphere:4", "uniform", EIGHT_PI,
             ("maximizer.detect_collapse.s", 0.6), config={"n_schedule": (64.0,)}),
    Workload("square-crosscheck", "flat-torus:square:24", "uniform",
             FLAT_SQUARE, ("oracle.brute_force_torus_max.s", 0.8),
             oracle={"n": 12, "restarts": 2}),
)}


def generate_mesh(spec):
    kind, _, rest = spec.partition(":")
    if kind == "icosphere":
        return cm_mesh.gen_icosphere(int(rest))
    if kind == "flat-torus":
        lattice, n = rest.split(":")
        return cm_mesh.gen_flat_torus(LATTICES[lattice], int(n), int(n))
    raise ValueError(f"unknown mesh spec {spec!r}")


def start_density(mesh, start, seed):
    """Uniform, or a smooth tilt 1 + (x . a)/2 about a seeded axis a.

    The tilt needs the same number of ascent iterations whatever the axis,
    so the seed changes the input without changing the amount of work.
    """
    if start == "uniform":
        return cm_fem.uniform_density(mesh)
    if start == "tilt":
        axis = np.random.default_rng(seed).standard_normal(3)
        x = mesh.embedding / np.linalg.norm(mesh.embedding, axis=1)[:, None]
        vals = 1.0 + 0.5 * (x @ (axis / np.linalg.norm(axis)))
        return cm_fem.DensityField(mesh, vals / (mesh.vertex_areas @ vals))
    raise ValueError(f"unknown start {start!r}")


def setup(w, seed):
    mesh = generate_mesh(w.mesh)
    return mesh, start_density(mesh, w.start, seed)


def _select_frame_fields(args, kwargs, frame):
    return {"cluster": int(np.shape(args[0])[1]), "attained": bool(frame.attained)}


def _ascent_step_fields(args, kwargs, result):
    return {"step": float(result[3]["step"])}


OBSERVERS = {"frame.select_frame": _select_frame_fields,
             "maximizer.ascent_step": _ascent_step_fields}


@dataclass
class OpResult:
    seed: int
    setup_s: float
    wall_s: float
    passed: bool
    lambda1_area: float
    lambda1_rel_err: float
    cert_worst_ratio: float
    detail: str
    layers: dict | None = None   # per-layer metrics, traced operations only
    spans: list | None = None
    speed: float = 1.0           # host-speed factor applied to the timings


def run_op(w, seed, traced=False):
    """One operation: set-up, then maximize (+ oracle), then the gate."""
    with warnings.catch_warnings(record=True) as caught, \
            (Tracer(OBSERVERS) if traced else contextlib.nullcontext()) as tracer:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        mesh, mu0 = setup(w, seed)
        t1 = time.perf_counter()
        config = cm_maximizer.AscentConfig(seed=seed, **w.config)
        mu, spectral, frame, trace = cm_maximizer.maximize(mesh, mu0, config)
        oracle = (cm_oracle.brute_force_torus_max(seed=seed, **w.oracle)
                  if w.oracle is not None else None)
        t2 = time.perf_counter()
    unattained = sum(1 for c in caught if str(c.message) == UNATTAINED)

    lam = spectral.lambda1
    rel_err = abs(lam - w.reference) / w.reference
    worst = cm_bench.certificate_check(trace.certificate, w.name).value
    checks = {"converged": trace.status == "converged",
              "value": rel_err <= VALUE_TOL,
              "certificate": worst <= 1.0}
    detail = f"status={trace.status} lambda1*A={lam:.6f} cert={worst:.4f}"
    if oracle is not None:
        agree = abs(lam - oracle) / oracle
        checks["oracle"] = agree <= ORACLE_TOL
        detail += f" oracle={oracle:.6f} agree={agree:.4%}"
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        detail += " FAILED " + ",".join(failed)
    res = OpResult(seed, t1 - t0, t2 - t1, not failed, lam, rel_err, worst, detail)
    if tracer is not None:
        res.spans = tracer.spans
        res.layers = {**layer_metrics(tracer.spans, mesh, unattained),
                      "trace.wall_s": t2 - t1}
    return res


def layer_metrics(spans, mesh, unattained):
    """Per-layer metrics of one traced operation, derived from its spans."""
    agg = aggregate(spans)
    by_id = {s.id: s for s in spans}

    def stat(name, key):
        return agg.get(name, {}).get(key, 0)

    def timed(name, keys=("calls", "s")):
        return {f"{name}.{k}": stat(name, k) for k in keys}

    steps = [s for s in spans if s.name == "maximizer.ascent_step"]
    trials = sum(1 for s in spans if s.name == "maximizer.project_density"
                 and s.parent is not None
                 and by_id[s.parent].name == "maximizer.ascent_step")
    accepted = sum(1 for s in steps if s.fields.get("step", 0.0) > 0.0)
    frames = [s for s in spans if s.name == "frame.select_frame" and s.fields]
    K = cm_fem.assemble_stiffness(mesh).matrix.tocoo()

    return {
        "mesh.generate.s": sum(v["s"] for k, v in agg.items()
                               if k.startswith("mesh.gen_")),
        "mesh.V": mesh.vertex_count,
        **timed("fem.assemble_stiffness"),
        **timed("fem.assemble_mass"),
        **timed("fem.gradient_field"),
        "fem.positive_offdiag": int(((K.row != K.col) & (K.data > 0)).sum()),
        **timed("eigen.solve_pencil", ("calls", "s", "self_s")),
        "eigen.arpack_runs": stat("eigen.eigsh", "calls"),
        "eigen.eigsh.s": stat("eigen.eigsh", "s"),
        **timed("frame.select_frame", ("calls", "s", "self_s")),
        "frame.cluster_size_max": max((s.fields["cluster"] for s in frames),
                                      default=0),
        "frame.unattained": unattained,
        **timed("frame.recover_density", ("calls", "s", "self_s")),
        **timed("frame.harmonic_residual", ("calls", "s", "self_s")),
        **timed("maximizer.maximize", ("s", "self_s")),
        "maximizer.iterations": len(steps),
        "maximizer.linesearch_trials": trials,
        "maximizer.accept_ratio": accepted / trials if trials else 0.0,
        **timed("maximizer.ascent_step", ("s", "self_s")),
        **timed("maximizer.project_density"),
        **timed("maximizer.detect_collapse"),
        **timed("certify.certificate", ("calls", "s", "self_s")),
        **timed("oracle.brute_force_torus_max", ("s", "self_s")),
        **timed("oracle.square_torus_matrices"),
        "trace.spans": len(spans),
    }
