import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import mmread

import confmax.fem
from confmax.bench import BenchResult
from confmax.cli import _ascent_config, build_parser, main
from confmax.eigen import EigenError
from confmax.maximizer import AscentConfig
from confmax.mesh import SURFACES, gen_icosphere, mesh_stats, save_intrinsic_json
from conftest import disjoint_sphere_and_torus


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


@pytest.mark.filterwarnings("ignore:sphere constraint unattained")
@pytest.mark.parametrize("command", [["spectrum"],
                                     ["maximize", "--n-schedule", "4", "--max-iters", "2"]],
                         ids=["spectrum", "maximize"])
def test_spectrum_dump_matrices(tmp_path, command, monkeypatch):
    # stiffness.mtx is the K the run solved with, held by its mesh: no second assembly
    calls = [0]
    assemble = confmax.fem.assemble_stiffness

    def counting(mesh):
        calls[0] += 1
        return assemble(mesh)
    for name, module in list(sys.modules.items()):
        if name.startswith("confmax") and getattr(module, "assemble_stiffness", None) is assemble:
            monkeypatch.setattr(module, "assemble_stiffness", counting)
    out = tmp_path / "run"
    rc = main([*command, "--gen", "icosphere:2", "--out", str(out), "--dump-matrices"])
    assert rc == 0
    assert calls[0] == 1
    K, M = (mmread(out / name).tocsr() for name in ("stiffness.mtx", "mass.mtx"))
    for A in (K, M):
        A.sort_indices()
    assert np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)
    assert (K != K.T).nnz == 0
    assert np.abs(K.sum(axis=1)).max() < 1e-12
    # the uniform start density and the maximizer's density carry unit mass:
    # 1^T M 1 = int mu dA = 1
    assert abs(M.sum() - 1.0) < 1e-12


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
    config = AscentConfig(n_schedule=(4.0,), max_iters=100, lam_tol=1e-5)
    assert final["config"] == json.loads(json.dumps(dataclasses.asdict(config)))
    assert final["mesh_stats"] == json.loads(json.dumps(mesh_stats(gen_icosphere(2))))
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


def test_maximize_schedule_from_the_mean_density(tmp_path):
    out = tmp_path / "run"
    rc = main(["maximize", "--gen", "icosphere:3", "--out", str(out),
               "--n-schedule", "1,4"])
    assert rc == 0
    assert json.loads((out / "final.json").read_text())["status"] == "converged"


def test_maximize_fully_saturated_schedule(tmp_path):
    out = tmp_path / "run"
    assert main(["maximize", "--gen", "icosphere:2", "--n-schedule", "1",
                 "--out", str(out)]) == 0
    assert json.loads((out / "certificate.json").read_text())["sphere_residual"] == 0.0


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
        with open(out / "trace.csv", newline="") as fh:
            traces.append(list(csv.DictReader(fh)))
    # identical except the wall-clock column
    for rows in traces:
        for row in rows:
            del row["wall_ms"]
    assert traces[0] and traces[0] == traces[1]


def test_bad_mesh_file_reports_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n")
    rc = main(["spectrum", "--mesh", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["disconnected", "vertices-not-an-integer",
                                  "triangles-not-triples", "not-an-object",
                                  "fractional-endpoints"])
def test_bad_intrinsic_mesh_exits_with_input_error(tmp_path, capsys, case):
    # a disconnected mesh has one zero eigenvalue per part, so no lambda1 to report
    data = disjoint_sphere_and_torus()
    if case == "vertices-not-an-integer":
        data["vertices"] = [1, 2]
    elif case == "triangles-not-triples":
        data["triangles"][3] = data["triangles"][3][:2]
    elif case == "not-an-object":
        data = 3
    elif case == "fractional-endpoints":
        # a connected sphere that would load if [i + 0.25, j + 0.25] read as [i, j]
        save_intrinsic_json(gen_icosphere(1), tmp_path / "sphere.json")
        data = json.loads((tmp_path / "sphere.json").read_text())
        data["edge_lengths"][0][:2] = [i + 0.25 for i in data["edge_lengths"][0][:2]]
    mesh = tmp_path / "mesh.json"
    mesh.write_text(json.dumps(data))
    assert main(["spectrum", "--mesh", str(mesh), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_density_file_named_random_is_read(tmp_path, monkeypatch):
    # only 'random' and 'random:<int>' name a random density; any other
    # string is a file, whatever its name
    monkeypatch.chdir(tmp_path)
    sphere = gen_icosphere(1)
    Path("random_peak.json").write_text(
        json.dumps([1.0 / sphere.area] * sphere.vertex_count))
    lam = {}
    for spec in ("uniform", "random_peak.json", "random:0"):
        out = tmp_path / str(len(lam))
        assert main(["spectrum", "--gen", "icosphere:1", "--density", spec,
                     "--out", str(out)]) == 0
        lam[spec] = json.loads((out / "spectrum.json").read_text())["lambda1_area"]
    assert lam["random_peak.json"] == pytest.approx(lam["uniform"], rel=1e-12)
    assert lam["random:0"] != pytest.approx(lam["uniform"], rel=1e-6)


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


def _exit_code(argv):
    # argparse refuses a bad flag value by raising SystemExit(2)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_config_file_and_cli_precedence(tmp_path):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("gen = icosphere:2\nn-schedule = 4\nmax-iters = 5\ntol = 1e-3\n"
                    "out = {0}\n# a comment\n".format(tmp_path / "cfg_out"))
    rc = main(["--config", str(cfgf), "maximize",
               "--out", str(tmp_path / "cli_out"), "--tol", "1e-5"])
    assert rc == 0
    assert not (tmp_path / "cfg_out").exists()
    config = json.loads((tmp_path / "cli_out" / "final.json").read_text())["config"]
    assert config["n_schedule"] == [4.0]
    assert config["max_iters"] == 5
    assert config["lam_tol"] == 1e-5


@pytest.mark.parametrize("command, line, message", [
    ("maximize", "lam_tol = 0.5", "unknown config key(s): lam_tol"),
    ("bench", "quick = false", "unknown config key(s): quick"),
    ("maximize", "max-iters = x", "invalid int value: 'x'")])
def test_bad_config_key_or_value_exits_2(tmp_path, capsys, command, line, message):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text(f"gen = icosphere:1\nn-schedule = 4\n{line}\n")
    assert _exit_code(["--config", str(cfgf), command,
                       "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_key_of_another_subcommand_is_ignored(tmp_path):
    # one file serves spectrum and maximize: spectrum leaves tol alone
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("gen = icosphere:1\ntol = 1e-5\n")
    assert main(["--config", str(cfgf), "spectrum", "--out", str(tmp_path / "o")]) == 0


def test_config_file_syntax_error(tmp_path, capsys):
    cfgf = tmp_path / "run.cfg"
    cfgf.write_text("this is not a key value line\n")
    rc = main(["--config", str(cfgf), "spectrum", "--gen", "icosphere:2"])
    assert rc == 2


def test_ascent_defaults_come_from_ascent_config():
    assert _ascent_config(build_parser().parse_args(["maximize"])) == AscentConfig()


@pytest.mark.parametrize("argv", [["bench", "--dump-matrices"],
                                  ["spectrum", "--gen", "icosphere:2", "--quick"],
                                  ["maximize", "--gen", "icosphere:1", "--damping", "0.5"],
                                  ["spectrum", "--gen", "icosphere:1", "--n-schedule", "4"]])
def test_flag_not_read_by_subcommand_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_BAD_DENSITIES = {  # icosphere:2 has 162 vertices
    "density-no-key": {"vertices": 162},
    "density-too-long": [1.0] * 167,
    "density-not-per-vertex": [[1.0, 1.0]] * 162,
    "density-nan": [math.nan] * 162,
    "density-minus-inf": [-math.inf] + [1.0] * 161,
}


_BAD_FILES = {  # case: (mesh file name, its text or None for no file, the message)
    "off-face-out-of-range": ("bad.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 1 3 9\n",
                              "triangle vertex index out of range"),
    "off-no-header": ("mesh.off", "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "missing OFF header"),
    "obj-vertex-not-a-number": ("mesh.obj", "v 0 x 0\n", ":1: bad vertex line"),
    "obj-quad": ("mesh.obj", "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n",
                 "face has 4 vertices; triangles only"),
    "obj-face-not-an-integer": ("mesh.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 x\n",
                                "bad face line"),
    "obj-no-geometry": ("mesh.obj", "# nothing here\n", "no geometry found"),
    "json-malformed": ("mesh.json", '{"vertices": 3,', "JSON parse failure"),
    "json-no-lengths": ("mesh.json", '{"vertices": 3, "triangles": [[0, 1, 2]]}',
                        "missing field 'edge_lengths'"),
    "ply-suffix": ("mesh.ply", "ply\n", "cannot infer format from suffix"),
    "missing-file": ("absent.off", None, "no such file"),
}

# a size field is plain decimal digits, a lattice is one of the table's, and
# each row takes its own number of size fields
_BAD_SPECS = ["icosphere:+2", "icosphere: 2", "icosphere:x", "flat-torus:square:24:",
              "flat-torus:hex:8", "icosphere:2:3", "flat-torus:square:8:8:8"]


@pytest.mark.parametrize("case", ["icosphere", "flat-torus:square", *_BAD_DENSITIES,
                                  *_BAD_FILES, *_BAD_SPECS])
def test_malformed_input_exits_with_input_error(tmp_path, capsys, case):
    argv = ["spectrum", "--out", str(tmp_path / "o")]
    if case in _BAD_DENSITIES:
        dens = tmp_path / "dens.json"
        dens.write_text(json.dumps(_BAD_DENSITIES[case]))
        argv += ["--gen", "icosphere:2", "--density", str(dens)]
    elif case in _BAD_FILES:
        name, text, _ = _BAD_FILES[case]
        if text is not None:
            (tmp_path / name).write_text(text)
        argv += ["--mesh", str(tmp_path / name)]
    else:
        argv += ["--gen", case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if case in _BAD_FILES:
        assert _BAD_FILES[case][2] in err
    if case in _BAD_SPECS:  # the message quotes the spec and lists the grammar
        assert repr(case) in err and all(row.grammar in err for row in SURFACES.values())


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_empty_iteration_budget_exits_with_input_error(tmp_path, capsys, iters):
    rc = main(["maximize", "--gen", "icosphere:1", "--max-iters", iters,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: max_iters must be >= 1")
    assert not (tmp_path / "o").exists()


def test_infeasible_schedule_exits_with_input_error(tmp_path, capsys):
    rc = main(["maximize", "--gen", "icosphere:1", "--n-schedule", "0.5",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("k, code", [(11, 0), (20, 2)])
def test_k_beyond_the_spectrum_exits_with_input_error(tmp_path, capsys, k, code):
    # icosphere:0 has V = 12 vertices, so eleven nonzero eigenvalues
    rc = main(["spectrum", "--gen", "icosphere:0", "-k", str(k),
               "--out", str(tmp_path / "o")])
    assert rc == code
    if code:
        assert capsys.readouterr().err.startswith("error: k must be between 1 and 11")


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise EigenError("no convergence")
    monkeypatch.setattr("confmax.cli.solve_pencil", fail)
    rc = main(["spectrum", "--gen", "icosphere:1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_indefinite_mass_exits_3(tmp_path, capsys):
    # the star of vertex 0 at the floor -0.5 / A: a signed density of the box
    # whose mass matrix is indefinite
    mesh = gen_icosphere(2)
    mu = np.ones(mesh.vertex_count)
    mu[np.unique(mesh.triangles[(mesh.triangles == 0).any(axis=1)])] = -0.5
    density = tmp_path / "star.json"
    density.write_text(json.dumps((mu / (mesh.vertex_areas @ mu)).tolist()))
    rc = main(["spectrum", "--gen", "icosphere:2", "--floor", "-0.5",
               "--density", str(density), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical failure: indefinite mass")


def test_failed_acceptance_check_exits_1(tmp_path, monkeypatch):
    failing = BenchResult("stub criterion", False, 0.0, "target", "detail")
    monkeypatch.setattr("confmax.bench.run_all", lambda **kwargs: [failing])
    assert main(["bench", "--out", str(tmp_path / "o")]) == 1
