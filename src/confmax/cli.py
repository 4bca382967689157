"""Command-line front end.

Exit codes: 0 success (including a reported collapse), 1 acceptance failure,
2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .certify import save_certificate
from .eigen import EigenError, solve_pencil, spectrum_rows
from .fem import DensityError, assemble_mass, assemble_stiffness, export_matrix_market
from .frame import FrameError
from .maximizer import (AscentConfig, ProjectionError, make_initial_density,
                        maximize, trace_csv_rows)
from .mesh import (MeshError, gen_flat_torus, gen_icosphere, load_mesh,
                   save_intrinsic_json)

EXIT_OK = 0
EXIT_ACCEPT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_DEFAULTS = {
    "density": "uniform",
    "floor": 0.0,
    "n_schedule": "4,16,64",
    "damping": 0.5,
    "tol": 1e-7,
    "max_iters": 500,
    "seed": 0,
    "k": 8,
    "out": "out",
}

_LATTICES = {
    "square": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "equilateral": np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]),
}


def _read_config_file(path):
    """Flat TOML-style key = value file; '#' comments, strings unquoted or quoted."""
    values = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key.replace("-", "_")] = val.strip("\"'")
    return values


def _resolve(args, cfg_file, key, cast=str):
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if key in cfg_file:
        return cast(cfg_file[key])
    return _DEFAULTS.get(key)


def _build_mesh(gen, mesh_path):
    if gen and mesh_path:
        raise MeshError("give either --gen or --mesh, not both")
    if gen:
        parts = gen.split(":")
        if parts[0] == "icosphere":
            return gen_icosphere(int(parts[1]))
        if parts[0] == "flat-torus":
            lattice = _LATTICES.get(parts[1])
            if lattice is None:
                raise MeshError(f"unknown lattice {parts[1]!r}")
            nx = int(parts[2])
            ny = int(parts[3]) if len(parts) > 3 else nx
            return gen_flat_torus(lattice, nx, ny)
        raise MeshError(f"unknown generator {parts[0]!r}")
    if mesh_path:
        return load_mesh(mesh_path)
    raise MeshError("a mesh source is required (--gen or --mesh)")


def _density_init(spec, mesh):
    if spec in ("uniform",) or spec.startswith("random"):
        return spec
    # otherwise a file containing a JSON array or intrinsic-JSON with "density"
    data = json.loads(Path(spec).read_text())
    vals = data["density"] if isinstance(data, dict) else data
    return np.asarray(vals, dtype=float)


def _ascent_config(args, cfg):
    sched = tuple(float(x) for x in str(_resolve(args, cfg, "n_schedule")).split(","))
    return AscentConfig(
        n_schedule=sched,
        damping=float(_resolve(args, cfg, "damping", float)),
        max_iters=int(_resolve(args, cfg, "max_iters", int)),
        lam_tol=float(_resolve(args, cfg, "tol", float)),
        floor=float(_resolve(args, cfg, "floor", float)),
        seed=int(_resolve(args, cfg, "seed", int)),
        k_eigen=int(_resolve(args, cfg, "k", int)),
    )


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_spectrum(args, cfg):
    mesh = _build_mesh(args.gen or cfg.get("gen"), args.mesh or cfg.get("mesh"))
    config = _ascent_config(args, cfg)
    floor = config.floor / mesh.area
    cap = config.n_schedule[-1] / mesh.area
    init = _density_init(str(_resolve(args, cfg, "density")), mesh)
    mu = make_initial_density(mesh, init, floor, cap, seed=config.seed)
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh, mu)
    result = solve_pencil(K, M, k=config.k_eigen, seed=config.seed)
    out = Path(_resolve(args, cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "spectrum.csv", ["index", "lambda", "residual", "cluster"],
               spectrum_rows(result))
    summary = {
        "lambda1_area": result.lambda1,
        "eigenvalues": result.eigenvalues.tolist(),
        "clusters": [list(c) for c in result.clusters],
        "area": mesh.area,
        "genus": mesh.genus,
    }
    (out / "spectrum.json").write_text(json.dumps(summary, indent=2))
    if args.dump_matrices:
        export_matrix_market(K.matrix, out / "stiffness.mtx")
        export_matrix_market(M.matrix, out / "mass.mtx")
    print(f"lambda1_area = {result.lambda1:.6f}  "
          f"(first cluster size {len(result.clusters[0])})")
    return EXIT_OK


def cmd_maximize(args, cfg):
    mesh = _build_mesh(args.gen or cfg.get("gen"), args.mesh or cfg.get("mesh"))
    config = _ascent_config(args, cfg)
    init = _density_init(str(_resolve(args, cfg, "density")), mesh)
    mu, spectral, frame, trace = maximize(mesh, init, config)
    out = Path(_resolve(args, cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    header, rows = trace_csv_rows(trace)
    _write_csv(out / "trace.csv", header, rows)
    save_intrinsic_json(mesh, out / "density.json",
                        extra={"density": mu.values.tolist()})
    save_certificate(trace.certificate, out / "certificate.json")
    state = {
        "status": trace.status,
        "lambda1_area": spectral.lambda1,
        "iterations": len(trace.rows),
        "saturation_constant": trace.saturation_constant,
    }
    (out / "final.json").write_text(json.dumps(state, indent=2))
    if args.dump_matrices:
        export_matrix_market(assemble_stiffness(mesh).matrix, out / "stiffness.mtx")
        export_matrix_market(assemble_mass(mesh, mu).matrix, out / "mass.mtx")
    print(f"status = {trace.status}  lambda1_area = {spectral.lambda1:.6f}")
    return EXIT_OK


def cmd_bench(args, cfg):
    out = Path(_resolve(args, cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    quick = bool(args.quick)
    results = bench_mod.run_all(quick=quick, seed=int(_resolve(args, cfg, "seed", int)))
    header = ["criterion", "pass", "value", "target", "detail"]
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.value, r.target, r.detail]
            for r in results]
    _write_csv(out / "bench.csv", header, rows)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPT_FAIL


def build_parser():
    p = argparse.ArgumentParser(prog="confmax",
                                description="conformal eigenvalue maximization")
    p.add_argument("--config", help="TOML-style key = value config file")
    sub = p.add_subparsers(dest="command", required=True)
    for name, fn in (("spectrum", cmd_spectrum), ("maximize", cmd_maximize),
                     ("bench", cmd_bench)):
        sp = sub.add_parser(name)
        sp.set_defaults(func=fn)
        sp.add_argument("--mesh")
        sp.add_argument("--gen")
        sp.add_argument("--density")
        sp.add_argument("--floor", type=float, choices=(0.0, -0.5))
        sp.add_argument("--n-schedule", dest="n_schedule")
        sp.add_argument("--damping", type=float)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--max-iters", dest="max_iters", type=int)
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
        sp.add_argument("-k", type=int, dest="k")
        sp.add_argument("--quick", action="store_true", default=False)
        sp.add_argument("--dump-matrices", action="store_true", default=False)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = {}
    if args.config:
        try:
            cfg = _read_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args, cfg)
    except (MeshError, DensityError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EigenError, FrameError, ProjectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
