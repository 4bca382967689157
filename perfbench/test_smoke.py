"""Smoke test of the benchmark itself, at toy sizes (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_confmax()

import confmax.eigen  # noqa: E402
import confmax.maximizer  # noqa: E402
from tracer import Span, aggregate  # noqa: E402
from workloads import WORKLOADS, run_op  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TOY = {
    "sphere-ascent": {"mesh": "icosphere:2"},
    "torus-degenerate": {"mesh": "flat-torus:equilateral:8"},
    "sphere-certify": {"mesh": "icosphere:2"},
    "square-crosscheck": {"mesh": "flat-torus:square:8",
                          "oracle": {"n": 6, "restarts": 1}},
}


def toy(name):
    return dataclasses.replace(WORKLOADS[name], **TOY[name])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted(name):
    untraced = run.result(toy(name), 0, 0.0, traced=False)
    traced = run.result(toy(name), 0, 0.0, traced=True)
    for res, declared in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert res["attempted"] >= 1
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in declared}
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert all(untraced["metrics"][m]["value"] > 0 for m in ("wall_s", "setup_s", "peak_rss_mb"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_derived_counts_match_direct_counts(name):
    w = toy(name)
    res = run_op(w, 0, traced=True)
    m = res.layers
    stages = len(confmax.maximizer.AscentConfig(**w.config).n_schedule)
    # one project_density per continuation stage happens outside ascent_step
    assert m["maximizer.linesearch_trials"] == m["maximizer.project_density.calls"] - stages
    # a solve at each iterate, one per line-search trial, one final solve
    assert m["eigen.solve_pencil.calls"] == (m["maximizer.iterations"]
                                             + m["maximizer.linesearch_trials"] + 1)
    assert m["eigen.arpack_runs"] == 2 * m["eigen.solve_pencil.calls"]
    assert m["frame.select_frame.calls"] == m["maximizer.iterations"] + 1
    frames = [s for s in res.spans if s.name == "frame.select_frame"]
    assert m["frame.unattained"] == sum(not s.fields["attained"] for s in frames)
    assert m["maximizer.detect_collapse.calls"] == 2
    assert (m["oracle.brute_force_torus_max.s"] > 0) == (w.oracle is not None)
    # untraced and traced runs of one input give the same answer
    assert run_op(w, 0).lambda1_area == res.lambda1_area


def test_tracer_restores_every_binding():
    run_op(toy("sphere-ascent"), 0, traced=True)
    assert confmax.maximizer.solve_pencil is confmax.eigen.solve_pencil
    assert not hasattr(confmax.maximizer.solve_pencil, "__wrapped__")
    assert not hasattr(confmax.eigen.eigsh, "__wrapped__")


def test_self_time_subtracts_direct_children():
    spans = [Span(0, None, "a", 0.0, 10.0), Span(1, 0, "b", 1.0, 4.0),
             Span(2, 1, "c", 2.0, 3.0), Span(3, 0, "b", 5.0, 6.0)]
    agg = aggregate(spans)
    assert agg["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert agg["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert sum(v["self_s"] for v in agg.values()) == 10.0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sphere-ascent",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
