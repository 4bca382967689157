"""confmax benchmark: a closed loop with one client, one workload per process.

    python3 perfbench/run.py --workload sphere-ascent --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table

A run warms up on a toy mesh, then times the workload's set-up (the median
of SETUP_SAMPLES samples, each long enough to be timed well), then runs
operations (set-up + maximize + certificate, + oracle) back to back for
--seconds and reports medians. Operation k uses the input seed
1000 * seed + k. Timings are rescaled by a calibration run between them
(see Calibration). With --trace 1 every input runs twice, untraced and then
traced; the per-layer metrics come from the traced runs and
trace.overhead_ratio compares the two. The last line of standard output is
the result as JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one client on one thread: a second BLAS thread only adds contention noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7  # setup_s is the median of this many samples ...
SETUP_SAMPLE_S = 0.25  # ... each the mean of enough set-ups to last this long
MIN_OPS = 3        # untraced runs finish at least this many operations
MIN_PAIRS = 1      # traced runs finish at least this many pairs

# calibrate() time on the reference machine in a quiet phase; see NOTES.md
CAL_REF_S = 0.11

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "lambda1_rel_err": "1", "cert_worst_ratio": "1"}
# exception class -> layer whose <layer>.errors counts it
ERROR_LAYERS = {"EigenError": "eigen", "IndefiniteMassError": "eigen",
                "FrameError": "frame", "ProjectionError": "maximizer"}


def import_confmax():
    """Put this checkout's src/ first on the path; refuse any other confmax."""
    if not (SRC / "confmax" / "__init__.py").is_file():
        sys.exit(f"perfbench: confmax sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import confmax
    if Path(confmax.__file__).resolve().parent != SRC / "confmax":
        sys.exit(f"perfbench: imported confmax from {confmax.__file__}, not {SRC}")


def layer_unit(name):
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Calibration:
    """Times a fixed mix of the kinds of work confmax does.

    A pure-Python loop, a sparse LU factor-and-solve and small NumPy array
    operations, about CAL_REF_S in all. The host's speed drifts by up to 2x
    over minutes, and this mix drifts with it; timings are rescaled by
    CAL_REF_S / (calibration time around them).
    """

    def __init__(self):
        import numpy as np
        from scipy import sparse
        n = 60
        lap1 = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.identity(n)
        self.lap = (sparse.kron(lap1, eye) + sparse.kron(eye, lap1)
                    + 0.1 * sparse.identity(n * n)).tocsc()
        self.rhs = np.ones(n * n)
        self.block = np.random.default_rng(0).standard_normal((3000, 6))

    def __call__(self):
        import numpy as np
        from scipy.sparse.linalg import splu
        t0 = time.perf_counter()
        acc = 0
        for i in range(120000):
            acc += i * i % 7
        for _ in range(4):
            splu(self.lap).solve(self.rhs)
        for _ in range(80):
            q = np.einsum("qa,ab,qb->q", self.block, np.eye(6), self.block)
            self.block.T @ (self.block * q[:, None])
        return time.perf_counter() - t0


def toy(w):
    """A tiny variant of w, run once untimed so lazy imports finish first."""
    mesh = "icosphere:1" if w.mesh.startswith("icosphere") else \
        w.mesh.rsplit(":", 1)[0] + ":6"
    oracle = {"n": 4, "restarts": 1, "iters": 2} if w.oracle else None
    return dataclasses.replace(w, mesh=mesh, oracle=oracle)


def measure(w, seed, seconds, traced):
    from workloads import run_op, setup

    calibrate = Calibration()
    try:
        run_op(toy(w), seed)
    except Exception:
        traceback.print_exc()
    t0 = time.perf_counter()
    setup(w, 1000 * seed)
    reps = math.ceil(SETUP_SAMPLE_S / (time.perf_counter() - t0))
    setups = []
    cal = calibrate()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        for k in range(reps):
            setup(w, 1000 * seed + k)
        took = (time.perf_counter() - t0) / reps
        cal, before = calibrate(), cal
        setups.append(took * CAL_REF_S * 2.0 / (before + cal))

    variants = (False, True) if traced else (False,)
    min_units = MIN_PAIRS if traced else MIN_OPS
    done, errors, attempted = [], {}, 0
    unit_times = []
    start = time.perf_counter()
    k = 0
    while (k < min_units or time.perf_counter() - start
           + statistics.median(unit_times) <= seconds):
        u0 = time.perf_counter()
        pair = []
        for tr in variants:
            attempted += 1
            try:
                res = run_op(w, 1000 * seed + k, traced=tr)
            except Exception as exc:
                traceback.print_exc()
                layer = ERROR_LAYERS.get(type(exc).__name__)
                if layer:
                    errors[layer] = errors.get(layer, 0) + 1
                pair.append(None)
                continue
            finally:
                cal, before = calibrate(), cal
            res.speed = CAL_REF_S * 2.0 / (before + cal)
            print(f"op {k}{' traced' if tr else ''}: seed={res.seed} "
                  f"setup={res.setup_s:.4f}s wall={res.wall_s:.4f}s "
                  f"speed={res.speed:.3f} {res.detail}", flush=True)
            pair.append(res)
        done.append(pair)
        unit_times.append(time.perf_counter() - u0)
        k += 1
    return setups, done, errors, attempted


def result(w, seed, seconds, traced):
    setups, done, errors, attempted = measure(w, seed, seconds, traced)
    plain = [p[0] for p in done if p[0] is not None]
    ok = [r for p in done for r in p if r is not None]
    failed = attempted - sum(r.passed for r in ok)
    if not plain:
        sys.exit("perfbench: no operation completed")
    med = statistics.median
    if not traced:
        metrics = {
            "wall_s": med(r.wall_s * r.speed for r in plain),
            "setup_s": med(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "lambda1_rel_err": med(r.lambda1_rel_err for r in plain),
            "cert_worst_ratio": med(r.cert_worst_ratio for r in plain),
        }
        units = END_TO_END
    else:
        pairs = [p for p in done if None not in p]
        if not pairs:
            sys.exit("perfbench: no traced operation completed")
        layers = [p[1].layers for p in pairs]
        metrics = {name: med(l[name] for l in layers) for name in layers[0]}
        for layer in ("eigen", "frame", "maximizer"):
            metrics[f"{layer}.errors"] = errors.get(layer, 0)
        metrics["trace.overhead_ratio"] = med(t.wall_s * t.speed / (u.wall_s * u.speed)
                                              for u, t in pairs)
        units = {name: layer_unit(name) for name in metrics}
        write_spans(w, seed, pairs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}


def write_spans(w, seed, pairs):
    out = ROOT / ".perfbench" / f"spans-{w.name}-{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as f:
        for k, (_, traced) in enumerate(pairs):
            for s in traced.spans:
                f.write(json.dumps({"op": k, **dataclasses.asdict(s)}) + "\n")


def run_all(args):
    """Every workload in its own process (so peak RSS is per workload)."""
    from workloads import WORKLOADS
    ok, loads = True, []
    print(f"{'workload':<20} {'metric':<36} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"{name:<20} failed with exit code {proc.returncode}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and res["correct"]
        rows = dict(res["metrics"])
        rows["fail_ratio"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
        for metric, m in rows.items():
            print(f"{name:<20} {metric:<36} {m['value']:>14.6g}  {m['unit']}")
        if args.trace:
            layer, least = WORKLOADS[name].loads
            share = rows[layer]["value"] / rows["trace.wall_s"]["value"]
            loads.append(f"{name}: {layer} is {share:.0%} of the traced wall time "
                         f"({'meets' if share >= least else 'BELOW'} {least:.0%})")
    print("\n".join(loads))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_confmax()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace}), flush=True)
    res = result(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
