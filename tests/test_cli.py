import csv
import json

import numpy as np
import pytest

from confmax.bench import BenchResult
from confmax.cli import _ascent_config, build_parser, main
from confmax.eigen import EigenError
from confmax.maximizer import AscentConfig


def test_spectrum_icosphere(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["spectrum", "--gen", "icosphere:3", "--out", str(out)])
    assert rc == 0
    assert "lambda1_area" in capsys.readouterr().out
    summary = json.loads((out / "spectrum.json").read_text())
    assert abs(summary["lambda1_area"] - 8 * np.pi) / (8 * np.pi) < 1e-2
    assert len(summary["clusters"][0]) == 3
    with open(out / "spectrum.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "lambda", "residual", "cluster"]
    assert len(rows) > 1


def test_spectrum_flat_torus_rect(tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--gen", "flat-torus:square:16:16", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "spectrum.json").read_text())
    assert summary["genus"] == 1


def test_spectrum_dump_matrices(tmp_path):
    out = tmp_path / "run"
    rc = main(["spectrum", "--gen", "icosphere:2", "--out", str(out),
               "--dump-matrices"])
    assert rc == 0
    assert (out / "stiffness.mtx").exists()
    assert (out / "mass.mtx").exists()


def test_maximize_outputs(tmp_path):
    out = tmp_path / "run"
    rc = main(["maximize", "--gen", "icosphere:2", "--out", str(out),
               "--n-schedule", "4", "--max-iters", "100", "--tol", "1e-5",
               "--density", "random:2"])
    assert rc == 0
    for name in ("trace.csv", "density.json", "certificate.json", "final.json"):
        assert (out / name).exists(), name
    final = json.loads((out / "final.json").read_text())
    assert final["status"] == "converged"
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["schema"] == "confspec-cert-1"
    dens = json.loads((out / "density.json").read_text())
    assert len(dens["density"]) == dens["vertices"]


def test_maximize_records_skipped_stages(tmp_path):
    # the uniform sphere is a fixed point well below the cap: the N=4 stage
    # ends on one rejected step and the N=16 stage runs no iterations
    out = tmp_path / "run"
    rc = main(["maximize", "--gen", "icosphere:2", "--out", str(out),
               "--n-schedule", "4,16", "--density", "uniform"])
    assert rc == 0
    final = json.loads((out / "final.json").read_text())
    assert final["skipped_stages"] == [16.0]
    assert final["iterations"] == 1
    assert len((out / "trace.csv").read_text().splitlines()) == 2


def test_maximize_density_roundtrip(tmp_path):
    # a maximize output file is accepted back as a density initializer
    out1 = tmp_path / "a"
    main(["maximize", "--gen", "icosphere:2", "--out", str(out1),
          "--n-schedule", "4", "--max-iters", "10"])
    out2 = tmp_path / "b"
    rc = main(["maximize", "--gen", "icosphere:2", "--out", str(out2),
               "--n-schedule", "4", "--max-iters", "10",
               "--density", str(out1 / "density.json")])
    assert rc == 0


def test_maximize_negative_floor(tmp_path):
    out = tmp_path / "run"
    rc = main(["maximize", "--gen", "icosphere:2", "--out", str(out),
               "--n-schedule", "4", "--max-iters", "20", "--floor", "-0.5"])
    assert rc == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["neg_set_measure"] == 0.0


def test_seed_reproducibility(tmp_path):
    traces = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        main(["maximize", "--gen", "icosphere:2", "--out", str(out),
              "--n-schedule", "4", "--max-iters", "15",
              "--density", "random:9", "--seed", "9"])
        traces.append((out / "trace.csv").read_text())
    # identical except the wall-clock column
    strip = lambda t: [",".join(r.split(",")[:-1]) for r in t.splitlines()]
    assert strip(traces[0]) == strip(traces[1])


def test_bad_mesh_file_reports_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    rc = main(["spectrum", "--mesh", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_mesh_source(tmp_path, capsys):
    rc = main(["spectrum", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_both_mesh_sources_rejected(tmp_path):
    rc = main(["spectrum", "--gen", "icosphere:2", "--mesh", "x.off",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_generator(tmp_path):
    rc = main(["spectrum", "--gen", "klein:3", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_file_and_cli_precedence(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("gen = icosphere:2\nn-schedule = 4\nmax-iters = 5\n"
                    "out = {0}\n# a comment\n".format(tmp_path / "cfg_out"))
    rc = main(["--config", str(cfgf), "maximize",
               "--out", str(tmp_path / "cli_out")])
    assert rc == 0
    assert (tmp_path / "cli_out" / "final.json").exists()
    assert not (tmp_path / "cfg_out").exists()


def test_config_file_syntax_error(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("this is not a key value line\n")
    rc = main(["--config", str(cfgf), "spectrum", "--gen", "icosphere:2"])
    assert rc == 2


def test_ascent_defaults_come_from_ascent_config():
    assert _ascent_config(build_parser().parse_args(["maximize"]), {}) == AscentConfig()


@pytest.mark.parametrize("argv", [["bench", "--dump-matrices"],
                                  ["spectrum", "--gen", "icosphere:2", "--quick"]])
def test_flag_not_read_by_subcommand_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("case", ["icosphere", "flat-torus:square", "density-no-key",
                                  "off-face-out-of-range"])
def test_malformed_input_exits_with_input_error(tmp_path, capsys, case):
    argv = ["spectrum", "--out", str(tmp_path / "o")]
    if case == "density-no-key":
        dens = tmp_path / "dens.json"
        dens.write_text(json.dumps({"vertices": 162}))
        argv += ["--gen", "icosphere:2", "--density", str(dens)]
    elif case == "off-face-out-of-range":
        off = tmp_path / "bad.off"
        off.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 1 3 9\n")
        argv += ["--mesh", str(off)]
    else:
        argv += ["--gen", case]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_infeasible_schedule_exits_with_input_error(tmp_path, capsys):
    rc = main(["maximize", "--gen", "icosphere:1", "--n-schedule", "0.5",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise EigenError("no convergence")
    monkeypatch.setattr("confmax.cli.solve_pencil", fail)
    rc = main(["spectrum", "--gen", "icosphere:1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_failed_acceptance_check_exits_1(tmp_path, monkeypatch):
    failing = BenchResult("stub criterion", False, 0.0, "target", "detail")
    monkeypatch.setattr("confmax.bench.run_all", lambda **kwargs: [failing])
    assert main(["bench", "--out", str(tmp_path / "o")]) == 1
