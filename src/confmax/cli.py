"""Command-line front end.

A ``--config`` file's keys are long flag names (``n-schedule``, ``max-iters``,
``tol``, ``k``, ...). Its values become the subcommand's argparse defaults, so
flags win and each value is cast by its flag's ``type``. A key that no
subcommand takes a value for is an input error; other subcommands' keys pass.

Exit codes: 0 success (including a reported collapse), 1 acceptance failure,
2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.io import mmwrite

from . import bench as bench_mod
from .certify import save_certificate
from .eigen import EigenError, solve_pencil, spectrum_rows
from .fem import DensityError, assemble_mass
from .frame import FrameError
from .maximizer import (RANDOM_SPEC, AscentConfig, ProjectionError, make_initial_density,
                        maximize, trace_csv_rows)
from .mesh import MeshError, load_mesh, mesh_from_spec, mesh_stats, save_intrinsic_json

EXIT_OK = 0
EXIT_ACCEPT_FAIL = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

# flag dest -> AscentConfig field; a flag left unset keeps the field's default
_ASCENT_FIELDS = {"n_schedule": "n_schedule", "max_iters": "max_iters", "tol": "lam_tol",
                  "floor": "floor", "seed": "seed", "k": "k_eigen"}


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


def _apply_config(parsers, values):
    """Make config values the defaults of the value-taking flags they name."""
    taken = set()
    for parser in parsers:
        dests = {a.dest for a in parser._actions if a.option_strings and a.nargs != 0}
        parser.set_defaults(**{k: v for k, v in values.items() if k in dests})
        taken |= dests
    unknown = sorted(values.keys() - taken)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")


def n_schedule(text):
    return tuple(float(x) for x in text.split(","))


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


def _ascent_config(args):
    return AscentConfig(**{name: getattr(args, key) for key, name in _ASCENT_FIELDS.items()
                           if getattr(args, key, None) is not None})


def _inputs(args):
    """The mesh, the AscentConfig and the start density that args name."""
    if bool(args.gen) == bool(args.mesh):
        raise MeshError("give either --gen or --mesh, not both" if args.gen
                        else "a mesh source is required (--gen or --mesh)")
    mesh = mesh_from_spec(args.gen) if args.gen else load_mesh(args.mesh)
    return mesh, _ascent_config(args), _density_init(args.density)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _dump_matrices(out, M):
    """Write M and its mesh's K as MatrixMarket coordinate files mass.mtx and stiffness.mtx."""
    mmwrite(str(out / "stiffness.mtx"), M.mesh.stiffness.matrix)
    mmwrite(str(out / "mass.mtx"), M.matrix)


def cmd_spectrum(args):
    mesh, config, init = _inputs(args)
    floor = config.floor / mesh.area
    cap = AscentConfig.n_schedule[-1] / mesh.area  # the default schedule's last stage
    mu = make_initial_density(mesh, init, floor, cap, seed=config.seed)
    M = assemble_mass(mesh, mu)
    result = solve_pencil(M, k=config.k_eigen, seed=config.seed)
    out = Path(args.out)
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
        _dump_matrices(out, M)
    print(f"lambda1_area = {result.lambda1:.6f}  "
          f"(first cluster size {len(result.clusters[0])})")
    return EXIT_OK


def cmd_maximize(args):
    mesh, config, init = _inputs(args)
    mu, spectral, frame, trace = maximize(mesh, init, config)
    out = Path(args.out)
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
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    (out / "final.json").write_text(json.dumps(state, indent=2))
    if args.dump_matrices:
        _dump_matrices(out, assemble_mass(mesh, mu))
    print(f"status = {trace.status}  lambda1_area = {spectral.lambda1:.6f}")
    return EXIT_OK


def cmd_bench(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = bench_mod.run_all(seed=args.seed)
    rows = [[r.name, "PASS" if r.passed else "FAIL", r.value, r.target, r.detail]
            for r in results]
    _write_csv(out / "bench.csv", ["criterion", "pass", "value", "target", "detail"], rows)
    width = max(len(r.name) for r in results)
    for name, verdict, _, _, detail in rows:
        print(f"{name:<{width}}  {verdict}  {detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_ACCEPT_FAIL


def build_parser(config=None):
    """The CLI's parser; ``config`` (key -> string) sets the subcommands' defaults."""
    p = argparse.ArgumentParser(prog="confmax",
                                description="conformal eigenvalue maximization")
    p.add_argument("--config", help="key = value file of flag defaults, "
                                    "keyed by long flag name")
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
        sp.add_argument("--density", default="uniform")
        sp.add_argument("--floor", type=float, choices=(0.0, -0.5))
        sp.add_argument("-k", type=int)
        sp.add_argument("--dump-matrices", action="store_true")
        sp.add_argument("--seed", type=int)
    maximize.add_argument("--n-schedule", type=n_schedule)
    maximize.add_argument("--tol", type=float)
    maximize.add_argument("--max-iters", type=int)
    bench.add_argument("--seed", type=int, default=AscentConfig.seed)
    for sp in (spectrum, maximize, bench):
        sp.add_argument("--out", default="out")
    if config:
        _apply_config((spectrum, maximize, bench), config)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.config:  # parse again, with the file's values as defaults
            args = build_parser(_read_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except (MeshError, DensityError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EigenError, FrameError, ProjectionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
