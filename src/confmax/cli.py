"""Command-line front end.

Exit codes: 0 success (including a reported collapse), 1 acceptance failure,
2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .certify import save_certificate
from .eigen import EigenError, solve_pencil, spectrum_rows
from .fem import DensityError, assemble_mass, assemble_stiffness, export_matrix_market
from .frame import FrameError
from .maximizer import (RANDOM_SPEC, AscentConfig, ProjectionError, make_initial_density,
                        maximize, trace_csv_rows)
from .mesh import (MeshError, gen_flat_torus, gen_icosphere, load_mesh, mesh_stats,
                   save_intrinsic_json)

EXIT_OK = 0
EXIT_ACCEPT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_DEFAULTS = {
    "density": "uniform",
    "out": "out",
}

# CLI/config key -> (AscentConfig field, cast); unset keys keep the field default
_ASCENT_KEYS = {
    "n_schedule": ("n_schedule", lambda v: tuple(float(x) for x in v.split(","))),
    "damping": ("damping", float),
    "max_iters": ("max_iters", int),
    "tol": ("lam_tol", float),
    "floor": ("floor", float),
    "seed": ("seed", int),
    "k": ("k_eigen", int),
}

_LATTICES = {"square": bench_mod.SQUARE, "equilateral": bench_mod.EQUILATERAL}


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
        kind, *fields = gen.split(":")
        if kind == "icosphere" and len(fields) == 1:
            return gen_icosphere(int(fields[0]))
        if kind == "flat-torus" and len(fields) in (2, 3):
            lattice = _LATTICES.get(fields[0])
            if lattice is None:
                raise MeshError(f"unknown lattice {fields[0]!r}")
            return gen_flat_torus(lattice, int(fields[1]), int(fields[-1]))
        raise MeshError(f"bad generator {gen!r}: expected icosphere:LEVEL "
                        "or flat-torus:LATTICE:NX[:NY]")
    if mesh_path:
        return load_mesh(mesh_path)
    raise MeshError("a mesh source is required (--gen or --mesh)")


def _density_init(spec):
    if spec == "uniform" or RANDOM_SPEC.fullmatch(spec):
        return spec
    # otherwise a file containing a JSON array or intrinsic-JSON with "density"
    data = json.loads(Path(spec).read_text())
    if isinstance(data, dict):
        if "density" not in data:
            raise DensityError(f"{spec}: JSON object has no \"density\" key")
        data = data["density"]
    return np.asarray(data, dtype=float)


def _ascent_config(args, cfg):
    given = {key: _resolve(args, cfg, key) for key in _ASCENT_KEYS}
    return AscentConfig(**{name: cast(given[key])
                           for key, (name, cast) in _ASCENT_KEYS.items()
                           if given[key] is not None})


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
    init = _density_init(str(_resolve(args, cfg, "density")))
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
    init = _density_init(str(_resolve(args, cfg, "density")))
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
        "skipped_stages": trace.skipped_stages,
        "config": dataclasses.asdict(config),
        "mesh_stats": mesh_stats(mesh),
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
    seed = _resolve(args, cfg, "seed", int)
    results = bench_mod.run_all(quick=args.quick,
                                seed=AscentConfig.seed if seed is None else seed)
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
    spectrum = sub.add_parser("spectrum")
    spectrum.set_defaults(func=cmd_spectrum)
    maximize = sub.add_parser("maximize")
    maximize.set_defaults(func=cmd_maximize)
    bench = sub.add_parser("bench")
    bench.set_defaults(func=cmd_bench)
    # each subcommand takes only the flags it reads
    for sp in (spectrum, maximize):
        sp.add_argument("--mesh")
        sp.add_argument("--gen")
        sp.add_argument("--density")
        sp.add_argument("--floor", type=float, choices=(0.0, -0.5))
        sp.add_argument("--n-schedule", dest="n_schedule")
        sp.add_argument("-k", type=int, dest="k")
        sp.add_argument("--dump-matrices", action="store_true")
    maximize.add_argument("--damping", type=float)
    maximize.add_argument("--tol", type=float)
    maximize.add_argument("--max-iters", dest="max_iters", type=int)
    for sp in (spectrum, maximize, bench):
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int)
    bench.add_argument("--quick", action="store_true")
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
