import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmcspectra
from qmcspectra import cli, folding, models, spectral
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    build_model,
    model_to_dict,
    segment,
    site_prob_series,
)
from qmcspectra.cli import run


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def write(name, payload):
        path = root / name
        path.write_text(json.dumps(payload))
        return str(path)

    out = {
        "shear": write("shear.json", model_to_dict(models.shear_coin_segment())),
        "three_site": write(
            "three_site.json", model_to_dict(models.three_site_absorbing_oqw())
        ),
        "flip": write("flip.json", model_to_dict(models.flip_channel_half_line(0.7, 0.8))),
        "flip_tp": write(
            "flip_tp.json", model_to_dict(models.flip_channel_half_line(0.7, 0.6, corner="up"))
        ),
        "diagline": write("diagline.json", model_to_dict(models.diagonal_coin_line_walk())),
        "hop": write(
            "hop.json",
            model_to_dict(models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25)),
        ),
        "rho": write(
            "rho.json",
            {"matrix": [[[0.3, 0.0], [0.1, 0.05]], [[0.1, -0.05], [0.7, 0.0]]]},
        ),
        "rho_sym": write("rho_sym.json", {"matrix": [[0.3, 0.1], [0.1, 0.7]]}),
        "rho10": write("rho10.json", {"matrix": [[1.0, 0.0], [0.0, 0.0]]}),
        "root": root,
    }
    return out


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_validate_reports_defects(files, capsys):
    out = run_json(capsys, ["validate", files["shear"]])
    assert out["substochastic"] is True
    assert out["tp_defects"]["1"] < 1e-12
    assert out["max_defect"] > 0.1

    out = run_json(capsys, ["validate", files["flip_tp"]])
    assert out["max_defect"] < 1e-12


def test_prob_matches_closed_form(files, capsys):
    out = run_json(
        capsys,
        [
            "prob", files["shear"],
            "--from", "2", "--to", "0", "--steps", "4",
            "--density", files["rho"],
        ],
    )
    assert out["probability"] == pytest.approx(1 / 27, abs=1e-12)
    # 15 significant digits survive the JSON round trip
    assert abs(out["probability"] - 1 / 27) < 1e-15 * 30


def test_evolve_outputs_state_table(files, capsys):
    out = run_json(
        capsys,
        ["evolve", files["shear"], "--site", "2", "--steps", "2",
         "--density", files["rho"]],
    )
    assert out["steps"] == 2
    sites = {entry["site"]: entry["trace"] for entry in out["sites"]}
    assert sites[0] == pytest.approx((1 + 4 * 0.3 - 4 * 0.1) / 9, abs=1e-12)


def test_evolve_writes_compact_states_as_matrices(tmp_path, capsys):
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps(model_to_dict(models.tilted_shear_half_line())))
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"matrix": [[0.4, 0.05], [0.05, 0.6]]}))
    out = run_json(capsys, ["evolve", str(path), "--site", "0", "--steps", "3",
                            "--density", str(rho)])
    assert out["sites"]
    for entry in out["sites"]:
        pairs = np.array(entry["matrix"])  # entries are [re, im]
        mat = pairs[..., 0] + 1j * pairs[..., 1]
        assert mat.shape == (2, 2) and np.array_equal(mat, mat.T)
        assert abs(np.trace(mat) - entry["trace"]) < 1e-12
    assert abs(sum(e["trace"] for e in out["sites"]) - out["total_trace"]) < 1e-12


def test_poly_past_the_last_site_is_schema_error(files, capsys):
    code, err = run_error(capsys, ["poly", files["three_site"], "--x", "0.3", "--n", "3"])
    assert code == 3 and err.startswith("error: bad poly query: ")
    assert "past the last site 2" in err and "Traceback" not in err


@pytest.mark.parametrize("k, index", [(2, 3), (5, 5)])
def test_poly_associated_past_the_last_site_is_schema_error(files, capsys, k, index):
    argv = ["poly", files["three_site"], "--x", "0.3", "--n", "3", "--family", "associated",
            "--k", str(k)]
    code, err = run_error(capsys, argv)
    assert code == 3 and err.startswith("error: bad poly query: ")
    assert f"index {index} lies past the last site 2" in err and "Traceback" not in err


def test_spectrum_roundtrip_and_flag(files, capsys):
    out = run_json(capsys, ["spectrum", files["shear"]])
    assert out.get("semiorthogonal") is True
    nodes = sorted(p["node"][0] for p in out["points"])
    assert nodes[0] == pytest.approx(-math.sqrt(3) / 3, abs=1e-8)
    total = sum(p["multiplicity"] for p in out["points"])
    assert total == 12
    # weights serialize as row-major [re, im] matrices
    w = out["points"][0]["weight"]
    assert len(w) == 4 and len(w[0]) == 4 and len(w[0][0]) == 2


def test_spectrum_of_a_singular_up_block_is_semiorthogonal(tmp_path, capsys):
    # A_0 is singular, so the symmetrizer's product pi[1] does not exist
    # and the search raises; the spectrum is written with the label
    deg = QmcModel(
        topology=segment(3),
        mode="abstract",
        blocks={
            "A": Block(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)),
            "B": Block(0.1 * np.eye(2, dtype=complex)),
            "C": Block(0.5 * np.eye(2, dtype=complex)),
        },
        substochastic=True,
    )
    with pytest.raises(spectral.SpectralError, match="singular"):
        spectral.find_symmetrizer(deg, 2)
    path = tmp_path / "singular_up.json"
    path.write_text(json.dumps(model_to_dict(deg)))
    out = run_json(capsys, ["spectrum", str(path)])
    assert out["semiorthogonal"] is True
    assert sum(p["multiplicity"] for p in out["points"]) == 6


def test_stieltjes_value_schema(files, capsys):
    out = run_json(capsys, ["stieltjes", files["flip"], "--z", "1.5"])
    assert out["method"] == "closed"
    assert out["residual"] < 1e-8
    assert out["z"] == [1.5, 0.0]
    got = np.array([[complex(e[0], e[1]) for e in row] for row in out["value"]])
    from qmcspectra.spectral import TruncatedStieltjes

    tr = TruncatedStieltjes(models.flip_channel_half_line(0.7, 0.8), window=800)
    assert np.abs(got - tr.evaluate(1.5).value).max() < 1e-7


def test_stieltjes_on_a_line_takes_the_closed_route(files, capsys):
    out = run_json(capsys, ["stieltjes", files["diagline"], "--z", "1.5"])
    assert out["method"] == "closed"
    got = np.array([[complex(e[0], e[1]) for e in row] for row in out["value"]])
    from qmcspectra.folding import FoldedTransformEvaluator

    want = FoldedTransformEvaluator(models.diagonal_coin_line_walk(), 0).evaluate(1.5).value
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("z", ["0.5,0.2", "-0.3,0.001"])
def test_stieltjes_overflowing_closure_exits_4(tmp_path, capsys, z):
    # the fixed point closing the tilted shear line from below overflows
    path = tmp_path / "tilted_line.json"
    path.write_text(json.dumps(model_to_dict(models.tilted_shear_line())))
    code, err = run_error(capsys, ["stieltjes", str(path), f"--z={z}"])
    assert code == 4 and "error: stieltjes failed: homogeneous fixed point overflowed" in err


@pytest.mark.parametrize("z", ["1.5,oops", "1,2,3"])
def test_stieltjes_unparsable_z_is_schema_error(files, capsys, z):
    code, err = run_error(capsys, ["stieltjes", files["flip"], f"--z={z}"])
    assert code == 3 and err.startswith("error: cannot parse z value")
    assert "Traceback" not in err


@pytest.mark.parametrize("z, residual", [("0,0.5", 14.2), ("0.2,0.01", 8.2e8)])
def test_stieltjes_uncertified_value_exits_4(files, capsys, z, residual):
    # inside the flip channel's band the auto route ends with a finite
    # residual far above tolerance: the JSON is written, then exit 4
    code = run(["stieltjes", files["flip"], f"--z={z}"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 4
    assert math.isclose(out["residual"], residual, rel_tol=0.01)
    assert out["z"] == [float(part) for part in z.split(",")]
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: stieltjes failed: ")
    assert "residual" in captured.err and "above tolerance" in captured.err
    assert f"at z={complex(*map(float, z.split(',')))}" in captured.err
    # a certified point of the same chain still exits 0
    assert run_json(capsys, ["stieltjes", files["flip"], "--z", "1.5"])["residual"] < 1e-8


def test_recurrence_verdicts(files, capsys):
    out = run_json(
        capsys,
        ["recurrence", files["flip"], "--site", "0", "--density", files["rho_sym"]],
    )
    assert out["verdict"] == "transient"

    out = run_json(
        capsys,
        ["recurrence", files["flip_tp"], "--site", "0", "--density", files["rho_sym"]],
    )
    assert out["verdict"] == "recurrent"

    out = run_json(
        capsys,
        ["recurrence", files["diagline"], "--site", "0", "--density", files["rho10"]],
    )
    assert out["verdict"] == "transient"
    assert out["limit"] == pytest.approx(3.0, abs=1e-4)


def test_recurrence_reports_route_and_certificate(files, capsys):
    # the exact return block decides: no ladder samples.  The trace walks
    # a birth-death chain (down 0.35, up 0.25) killed below 0, which
    # returns to 0 with probability 0.4 + 0.25
    out = run_json(capsys, ["recurrence", files["hop"], "--site", "0",
                            "--density", files["rho"]])
    assert (out["verdict"], out["route"], out["evidence"]) == ("transient", "renewal", [])
    assert out["limit"] == pytest.approx(1 / 0.35, abs=1e-12)
    assert out["residual"] <= 1e-14 and abs(out["recurrent_weight"]) <= 1e-14

    out = run_json(capsys, ["recurrence", files["flip_tp"], "--site", "0",
                            "--density", files["rho_sym"]])
    assert (out["verdict"], out["route"]) == ("recurrent", "renewal")
    assert out["recurrent_weight"] == pytest.approx(1.0, abs=1e-12) and "limit" not in out

    # the coin line has no certified closure at 1: it walks the ladder
    out = run_json(capsys, ["recurrence", files["diagline"], "--site", "0",
                            "--density", files["rho10"]])
    assert out["route"] == "ladder" and len(out["evidence"]) == 7
    assert out["recurrent_weight"] is None and out["residual"] >= 0.0


def test_first_passage_ladder(files, capsys):
    out = run_json(
        capsys,
        ["first-passage", files["three_site"], "--from", "0", "--to", "1",
         "--density", files["rho_sym"]],
    )
    assert out["probability"] == pytest.approx((1 + np.sqrt(2) * 0.1) / 2, abs=1e-8)
    # the segment is solved once at s = 1, the ladder's only rung
    assert out["route"] == "closed" and out["residual"] == 0.0
    assert out["ladder"] == [[1.0, pytest.approx(out["probability"], abs=1e-15)]]
    assert out["extrapolated"] is False


def test_fold_writes_loadable_model(files, capsys):
    target = str(files["root"] / "folded.json")
    out = run_json(capsys, ["fold", files["diagline"], "--output", target])
    assert out["block_dim"] == 8
    with open(target) as fh:
        folded = build_model(json.load(fh))
    assert folded.block_dim == 8 and folded.topology.kind == "half_line"
    assert max(folded.tp_report().values()) < 1e-12
    with open(target + ".map.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["pairs"]["1"] == [1, -2]


def test_poly_families(files, capsys):
    out = run_json(
        capsys, ["poly", files["three_site"], "--x", "0.5", "--n", "1", "--family", "main"]
    )
    q1 = np.array([[complex(*e) for e in row] for row in out["values"][1]])
    s2 = np.sqrt(2)
    target = np.array(
        [[2, 0, 0, 0], [-s2, -s2, 0, 0], [-s2, 0, -s2, 0], [1, 1, 1, 1]]
    )
    assert np.abs(q1 - target).max() < 1e-10

    out = run_json(
        capsys,
        ["poly", files["diagline"], "--x", "0.4", "--n", "2", "--family", "two-sided",
         "--alpha", "2"],
    )
    assert "-2" in out["values"] and "2" in out["values"]


def test_simulate_csv(files, capsys):
    code = run(
        ["simulate", files["shear"], "--trajectories", "2000", "--steps", "3",
         "--site", "2", "--seed", "5", "--density", files["rho_sym"]]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "step,site,mean,stderr"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2" and float(first[2]) == 1.0
    # deterministic rerun produces identical bytes
    run(
        ["simulate", files["shear"], "--trajectories", "2000", "--steps", "3",
         "--site", "2", "--seed", "5", "--density", files["rho_sym"]]
    )
    again = capsys.readouterr()
    assert again.out == captured.out


def test_module_entry_point_exits_with_file_code(tmp_path):
    # `python -m qmcspectra.cli` must run the CLI, not just import it
    src = str(Path(qmcspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qmcspectra.cli", "validate", str(tmp_path / "missing.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "missing.json" in proc.stderr


def test_cli_import_loads_only_numpy_beyond_stdlib():
    # numpy is the one declared dependency; a fresh interpreter shows what
    # importing the CLI pulls in, whatever else the environment has
    src = str(Path(qmcspectra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import json, sys; before = set(sys.modules); import qmcspectra.cli; "
            "print(json.dumps(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout)) - set(sys.stdlib_module_names)
    assert loaded == {"numpy", "qmcspectra"}


def test_segment_recurrence_reports_segment_limit(files, capsys, tmp_path):
    seg = models.uniform_hopping_segment(4, 0.5, 0.5, 0.5, 0.25, 0.25)
    path = tmp_path / "seg.json"
    path.write_text(json.dumps(model_to_dict(seg)))
    argv = ["recurrence", str(path), "--site", "0", "--density", files["rho_sym"]]
    out = run_json(capsys, argv)
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    want = site_prob_series(seg, 0, 0, rho, 4000).sum()
    assert out["limit"] == pytest.approx(want, abs=1e-9)


def test_exit_codes(files, capsys, tmp_path):
    assert run(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    # a path that exists but cannot be read as a file is a file error too
    code, err = run_error(capsys, ["validate", str(tmp_path)])
    assert code == 2 and err.startswith("error:") and "Is a directory" in err
    assert "Traceback" not in err and err.count("\n") == 1
    code, err = run_error(capsys, ["prob", files["shear"], "--from", "0", "--to", "0",
                                   "--steps", "1", "--density", str(tmp_path)])
    assert code == 2 and "Traceback" not in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[1, 0], [0, 0]]}))
    assert run(["prob", str(bad), "--from", "0", "--to", "0", "--steps", "1",
                "--density", files["rho_sym"]]) == 3
    capsys.readouterr()
    # a density of trace two would double every probability
    rho2 = tmp_path / "rho2.json"
    rho2.write_text(json.dumps({"matrix": [[2, 0], [0, 0]]}))
    code, err = run_error(capsys, ["prob", files["shear"], "--from", "2", "--to", "0",
                                   "--steps", "4", "--density", str(rho2)])
    assert code == 3 and err.startswith("error: bad density file: ")
    assert "trace" in err and "Traceback" not in err
    # numerical failure: a chain whose forward pivot is singular
    deg = QmcModel(
        topology=segment(3),
        mode="abstract",
        blocks={
            "A": Block(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)),
            "B": Block(np.zeros((2, 2), dtype=complex)),
            "C": Block(np.eye(2, dtype=complex)),
        },
        substochastic=True,
    )
    degpath = tmp_path / "degenerate.json"
    degpath.write_text(json.dumps(model_to_dict(deg)))
    assert run(["poly", str(degpath), "--x", "0.5", "--n", "2"]) == 4
    capsys.readouterr()
    # compact model with a complex density is a schema error
    assert run(["recurrence", files["flip"], "--site", "0", "--density", files["rho"]]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("payload", [{"x": 1}, [1], None, "abc"],
                         ids=["no-matrix-key", "list", "null", "string"])
def test_density_file_without_a_matrix_is_schema_error(files, capsys, tmp_path, payload):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(payload))
    code, err = run_error(capsys, ["prob", files["shear"], "--from", "2", "--to", "0",
                                   "--steps", "4", "--density", str(rho)])
    assert code == 3 and err.startswith("error: bad density file: ")
    assert "matrix" in err and "Traceback" not in err


def test_density_file_of_json_booleans_is_schema_error(files, capsys, tmp_path):
    rho = tmp_path / "rho.json"
    rho.write_text('{"matrix": [[true]]}')
    code, err = run_error(capsys, ["prob", files["shear"], "--from", "2", "--to", "0",
                                   "--steps", "4", "--density", str(rho)])
    assert code == 3 and err.startswith("error: bad density file: ")
    assert "got True" in err and "Traceback" not in err


def test_density_file_of_json_strings_is_schema_error(files, capsys, tmp_path):
    # complex("1") parses, so a string entry would load as the density 1
    rho = tmp_path / "rho.json"
    rho.write_text('{"matrix": [["1"]]}')
    code, err = run_error(capsys, ["prob", files["shear"], "--from", "2", "--to", "0",
                                   "--steps", "4", "--density", str(rho)])
    assert code == 3 and err.startswith("error: bad density file: ")
    assert "got '1'" in err and "Traceback" not in err


def test_library_warning_reaches_stderr_as_one_line(files, capsys):
    # the coin line's reach falls back to its absorbing window, which the
    # library reports as a UserWarning
    code = run(["first-passage", files["diagline"], "--from", "3", "--to", "0",
                "--density", files["rho_sym"]])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["route"] == "window"
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: no certified passage closure from site 3 to 0")
    assert "UserWarning" not in captured.err and ".py:" not in captured.err


def test_warning_filters_still_apply_under_the_cli(files, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        with pytest.raises(UserWarning, match="no certified passage closure"):
            run(["first-passage", files["diagline"], "--from", "3", "--to", "0",
                 "--density", files["rho_sym"]])
    capsys.readouterr()


@pytest.mark.parametrize("command", ["stieltjes", "recurrence", "first-passage"])
@pytest.mark.parametrize("flag", [["--method", "truncated"], ["--window", "800"]],
                         ids=["method", "window"])
def test_method_and_window_are_usage_errors(files, capsys, command, flag):
    # the exact route is the only one: a method or a window is refused by
    # the parser before a model is read
    query = {"stieltjes": ["--z", "1.5"], "recurrence": ["--density", files["rho_sym"]],
             "first-passage": ["--from", "3", "--to", "0", "--density", files["rho_sym"]]}
    code, err = run_error(capsys, [command, files["hop"], *query[command], *flag])
    assert code == 2 and "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["stieltjes", "recurrence"])
@pytest.mark.parametrize("method", ["homogeneous", "corner"])
def test_methods_outside_the_two_routes_are_usage_errors(files, capsys, command, method):
    # the transform takes the exact route only; a named method, whatever
    # it is, is refused by the parser before a model is read
    query = {"stieltjes": ["--z", "1.5"], "recurrence": ["--density", files["rho_sym"]]}
    code, err = run_error(capsys, [command, files["flip"], *query[command], "--method", method])
    assert code == 2 and "unrecognized arguments" in err and "Traceback" not in err


def run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize("window", [0, -4])
def test_truncated_empty_window_is_schema_error(files, window):
    # the truncated evaluator behind cli._evaluator refuses an empty
    # window with a plain ValueError, which run maps to exit 3 (schema)
    # rather than to the numerical exit 4
    model = cli._load_model(files["flip"])
    with pytest.raises(ValueError, match="window must be at least 1") as info:
        cli._evaluator(model, "truncated", window)
    assert not isinstance(info.value, (ArithmeticError, np.linalg.LinAlgError,
                                       spectral.SpectralError))


def test_first_passage_probability_above_one_is_numerical_failure(files, capsys, tmp_path):
    # an abstract two-site segment whose up block A0 = 1.5 I carries more
    # mass than it receives: the reach 0 -> 1 is 1.5
    zero = Block(np.zeros((4, 4), dtype=complex))
    over = QmcModel(topology=segment(2), mode="abstract",
                    blocks={"A": Block(1.5 * np.eye(4, dtype=complex)), "B": zero, "C": zero},
                    substochastic=True)
    path = tmp_path / "over.json"
    path.write_text(json.dumps(model_to_dict(over)))
    code, err = run_error(capsys, ["first-passage", str(path), "--from", "0", "--to", "1",
                                   "--density", files["rho10"]])
    assert code == 4 and "Traceback" not in err
    assert err.startswith("error: first-passage failed: closed passage probability 1.5 outside")


def test_first_passage_past_the_window_answers_on_the_closed_route(files, capsys):
    # the library's window bounds the fallback ladder only; the exact
    # s = 1 solve reaches a source at any distance
    out = run_json(
        capsys,
        ["first-passage", files["hop"], "--from", "100", "--to", "0",
         "--density", files["rho"]],
    )
    assert out["route"] == "closed"
    assert out["probability"] == pytest.approx(1.0, abs=1e-9)


def test_first_passage_from_a_million_sites_away_is_one_power(files, capsys):
    # the homogeneous stretch is a power of the one-level passage, so the
    # answer costs no sweep over the sites between
    out = run_json(
        capsys,
        ["first-passage", files["hop"], "--from", "1000000", "--to", "0",
         "--density", files["rho"]],
    )
    assert out["route"] == "closed"
    assert out["probability"] == pytest.approx(1.0, abs=1e-8)


def test_first_passage_to_the_source_outside_window_is_schema_error(files, capsys):
    # from a site to itself is probability 1 only for a site of the chain
    code, err = run_error(
        capsys,
        ["first-passage", files["hop"], "--from", "-5", "--to", "-5",
         "--density", files["rho"]],
    )
    assert code == 3
    assert err.startswith("error: bad first-passage query:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, extra",
    [
        ("hop", ["--site", "-3"]),
        ("shear", ["--site", "99"]),
    ],
)
def test_recurrence_site_outside_window_is_schema_error(files, capsys, model, extra):
    code, err = run_error(
        capsys, ["recurrence", files[model], "--density", files["rho"], *extra]
    )
    assert code == 3
    assert err.startswith("error: bad recurrence query:")
    assert "Traceback" not in err


def test_recurrence_on_a_line_at_any_site(files, capsys):
    out = run_json(
        capsys,
        ["recurrence", files["diagline"], "--site", "3", "--density", files["rho10"]],
    )
    assert out["verdict"] == "transient"
    assert out["limit"] == pytest.approx(3.0, abs=1e-4)


def test_simulate_branch_mass_above_one_is_numerical_failure(files, capsys, tmp_path):
    # r + s + t = 1.3: every column carries branch mass 1.3
    path = tmp_path / "hop_over.json"
    path.write_text(json.dumps(model_to_dict(models.uniform_hopping_line(0.5, 0.5, 0.5, 0.4, 0.4))))
    code, err = run_error(
        capsys,
        ["simulate", str(path), "--trajectories", "2000", "--steps", "3",
         "--density", files["rho_sym"]],
    )
    assert code == 4
    assert "> 1 at site 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evolve", "shear", "--steps", "-1", "--density", "rho"], "nonnegative"),
        (["evolve", "shear", "--steps", "2", "--density", "rho3"], "shape (4,)"),
        (["first-passage", "shear", "--from", "0", "--to", "1", "--density", "rho3"],
         "shape (4,)"),
        (["poly", "hop", "--x", "1", "--n", "3", "--family", "two-sided"], "line model"),
        (["poly", "hop", "--x", "1", "--n", "3", "--family", "folded"], "line model"),
        (["simulate", "shear", "--steps", "3", "--density", "rho3"], "wrong shape"),
        (["simulate", "shear", "--trajectories", "0", "--steps", "3", "--density", "rho"],
         "n_traj >= 1"),
        (["simulate", "shear", "--steps", "-2", "--density", "rho"], "steps >= 0"),
        (["simulate", "no_kraus", "--steps", "3", "--density", "rho"], "Kraus effects"),
    ],
    ids=["evolve-negative-steps", "evolve-density-dim", "first-passage-density-dim",
         "poly-two-sided-half-line", "poly-folded-half-line", "simulate-density-shape",
         "simulate-no-trajectories", "simulate-negative-steps", "simulate-no-kraus"],
)
def test_malformed_input_is_schema_error(files, capsys, tmp_path, argv, message):
    paths = dict(files)
    paths["rho3"] = str(tmp_path / "rho3.json")
    Path(paths["rho3"]).write_text(json.dumps({"matrix": (np.eye(3) / 3).tolist()}))
    # the shear segment with its blocks stripped of their Kraus effects
    shear = models.shear_coin_segment()
    bare = QmcModel(
        topology=shear.topology, mode=shear.mode,
        blocks={r: Block(b.matrix) for r, b in shear.blocks.items()}, substochastic=True,
    )
    paths["no_kraus"] = str(tmp_path / "no_kraus.json")
    Path(paths["no_kraus"]).write_text(json.dumps(model_to_dict(bare)))
    argv = [paths.get(a, a) for a in argv]
    code, err = run_error(capsys, argv)
    assert code == 3, err
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


def _spec_with(name, **change):
    return {**model_to_dict(getattr(models, name)()), **change}


FUZZ_MODELS = {
    "sub_string": _spec_with("shear_coin_segment", substochastic="false"),
    "site_float": {
        **model_to_dict(models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25)),
        "overrides": [{"site": 1.5, "B": {"matrix": np.eye(4).tolist()}}],
    },
    "trace_short": {
        "topology": "half_line", "mode": "abstract", "substochastic": True,
        "homogeneous": {"B": {"matrix": [[0.5]]}}, "trace": [[1]],
    },
    "homogeneous_list": _spec_with("shear_coin_segment", homogeneous=[{"matrix": [[1]]}]),
}
FUZZ_DENSITIES = {"rho_nan": {"matrix": [[float("nan"), 0.0], [0.0, 1.0]]}}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "sub_string"],
        ["validate", "site_float"],
        ["validate", "trace_short"],
        ["validate", "homogeneous_list"],
        ["simulate", "shear", "--steps", "3", "--trajectories", "10", "--density", "rho_nan"],
        ["poly", "shear", "--x", "1", "--n", "-2"],
        ["poly", "shear", "--x", "1", "--n", "-2", "--family", "associated", "--k", "1"],
        ["poly", "shear", "--x", "1", "--n", "2", "--family", "associated", "--k", "-1"],
        ["poly", "diagline", "--x", "1", "--n", "-1", "--family", "folded"],
        ["poly", "diagline", "--x", "1", "--n", "-1", "--family", "two-sided"],
        ["simulate", "shear", "--steps", "3", "--seed", "-1", "--density", "rho_sym"],
        ["simulate", "shear", "--steps", "3", "--seed", str(2**64), "--density", "rho_sym"],
        ["stieltjes", "flip", "--z", "nan"],
        ["stieltjes", "flip", "--z", "inf"],
        ["stieltjes", "flip", "--z", "1.5,-inf"],
        ["poly", "shear", "--x", "nan", "--n", "2"],
    ],
    ids=["substochastic-string", "override-site-float", "abstract-trace-short",
         "homogeneous-list", "simulate-density-nan", "poly-main-negative-n",
         "poly-associated-negative-n", "poly-associated-negative-k", "poly-folded-negative-n",
         "poly-two-sided-negative-n", "simulate-seed-negative", "simulate-seed-2**64",
         "stieltjes-z-nan", "stieltjes-z-inf", "stieltjes-z-imag-inf", "poly-x-nan"],
)
def test_fuzzed_input_exits_3_without_traceback(files, capsys, tmp_path, argv):
    paths = dict(files)
    for name, payload in {**FUZZ_MODELS, **FUZZ_DENSITIES}.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(payload))
    code, err = run_error(capsys, [paths.get(a, a) for a in argv])
    assert code == 3, err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (ValueError("no"), 3, "error: bad first-passage query: no"),
        (np.linalg.LinAlgError("no"), 4, "error: first-passage failed: no"),
        (ArithmeticError("no"), 4, "error: first-passage failed: no"),
        (spectral.SpectralError("no"), 4, "error: first-passage failed: no"),
        (spectral.ConvergenceError("no"), 4, "error: first-passage failed: no"),
        (MemoryError("no"), 4, "error: first-passage failed: no"),
        (FileNotFoundError("no"), 2, "error: no"),
        (IsADirectoryError("no"), 2, "error: no"),
        (PermissionError("no"), 2, "error: no"),
    ],
    ids=["ValueError", "LinAlgError", "ArithmeticError", "SpectralError",
         "ConvergenceError", "MemoryError", "FileNotFoundError", "IsADirectoryError",
         "PermissionError"],
)
def test_run_maps_exceptions_to_exit_codes(files, capsys, monkeypatch, exc, code, prefix):
    def fail(args, model, rho):
        raise exc

    monkeypatch.setattr(cli, "cmd_first_passage", fail)
    argv = ["first-passage", files["shear"], "--from", "1", "--to", "0",
            "--density", files["rho_sym"]]
    assert run(argv) == code
    assert capsys.readouterr().err == prefix + "\n"


def test_run_reads_the_model_before_the_density(capsys, tmp_path):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text(json.dumps({"topology": "segment"}))
    bad_rho = tmp_path / "rho.json"
    bad_rho.write_text(json.dumps({"x": 1}))
    tail = ["--from", "1", "--to", "0", "--steps", "1", "--density"]
    code, err = run_error(capsys, ["prob", str(bad_model), *tail, str(bad_rho)])
    assert code == 3 and err.startswith("error: bad model spec: ")
    missing = str(tmp_path / "missing.json")
    code, err = run_error(capsys, ["prob", missing, *tail, str(tmp_path / "gone.json")])
    assert (code, err) == (2, f"error: model file not found: {missing}\n")


def test_non_finite_trace_is_a_bad_model_spec(files, capsys, tmp_path):
    spec = model_to_dict(folding.fold_model(models.tilted_shear_line()))
    spec["trace"][0] = float("nan")
    path = tmp_path / "nan_trace.json"
    path.write_text(json.dumps(spec))
    assert "NaN" in path.read_text()
    code, err = run_error(capsys, ["validate", str(path)])
    assert code == 3, err
    assert err == "error: bad model spec: trace vector has non-finite entries\n"


@pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 1, 3)], ids=["1d", "2d", "3d"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_encode_value_writes_arrays_as_nested_pairs(shape, dtype):
    a = np.arange(np.prod(shape), dtype=dtype).reshape(shape) / 3
    if dtype is complex:
        a = a - 1j * a[..., ::-1]
    got = cli.encode_value(a)
    assert np.asarray(got).shape == (*shape, 2)
    want = [[cli.f15(x.real), cli.f15(x.imag)] for x in a.astype(complex).reshape(-1)]
    assert np.reshape(got, (-1, 2)).tolist() == want
    if a.ndim == 2:
        # the rows-of-entries list of the former 2-D branch
        assert got == [[cli.encode_value(complex(e)) for e in row] for row in a]


def test_unknown_flag_rejected(files):
    with pytest.raises(SystemExit):
        from qmcspectra.cli import make_parser

        make_parser().parse_args(["validate", files["shear"], "--frobnicate"])


def test_readme_cli_examples_parse():
    # every qmc invocation shown in README must use a real subcommand and
    # real flags
    import re
    from pathlib import Path as _P

    from qmcspectra.cli import make_parser

    parser = make_parser()
    sub = None
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            sub = action.choices
    text = _P(__file__).resolve().parents[1].joinpath("README.md").read_text()
    commands = re.findall(r"^qmc (\S+)(.*)$", text, flags=re.M)
    assert len(commands) >= 10
    for name, rest in commands:
        assert name in sub, name
        flags = set(re.findall(r"--[a-z-]+", rest))
        known = {
            opt for action in sub[name]._actions for opt in action.option_strings
        }
        assert flags <= known, (name, flags - known)
