import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmcspectra
from qmcspectra import cli, models, spectral
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


def test_stieltjes_value_schema(files, capsys):
    out = run_json(capsys, ["stieltjes", files["flip"], "--z", "1.5", "--method", "auto"])
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
    # truncation needs a chain bounded from below
    code, err = run_error(capsys, ["stieltjes", files["diagline"], "--z", "1.5",
                                   "--method", "truncated"])
    assert code == 3 and "bounded from below" in err


@pytest.mark.parametrize("z", ["0.5,0.2", "-0.3,0.001"])
def test_stieltjes_overflowing_closure_exits_4(tmp_path, capsys, z):
    # the fixed point closing the tilted shear line from below overflows
    path = tmp_path / "tilted_line.json"
    path.write_text(json.dumps(model_to_dict(models.tilted_shear_line())))
    code, err = run_error(capsys, ["stieltjes", str(path), f"--z={z}"])
    assert code == 4 and "error: stieltjes failed: homogeneous fixed point overflowed" in err


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
    # the default method picks the evaluator from the model shape
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

    # an explicit method walks the ladder; windows from 6400 sites resolve
    # the square-root edge of the flip channel at z = 1
    out = run_json(
        capsys,
        ["recurrence", files["flip"], "--site", "0", "--density", files["rho_sym"],
         "--method", "truncated", "--window", "6400"],
    )
    assert out["verdict"] == "transient"
    assert "limit" in out and out["limit"] < 10
    assert len(out["evidence"]) == 7

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

    # the coin line has no certified closure at 1, and an explicit
    # evaluator has no return block: both walk the ladder
    for argv in (["recurrence", files["diagline"], "--site", "0", "--density", files["rho10"]],
                 ["recurrence", files["flip"], "--site", "0", "--density", files["rho_sym"],
                  "--method", "truncated"]):
        out = run_json(capsys, argv)
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
    # the truncated route sweeps the whole segment at every rung
    out = run_json(capsys, [*argv, "--method", "truncated"])
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
    assert run(["recurrence", files["flip"], "--site", "0",
                "--density", files["rho"], "--method", "truncated"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["stieltjes", "recurrence"])
@pytest.mark.parametrize("method", ["homogeneous", "corner"])
def test_methods_outside_the_two_routes_are_usage_errors(files, capsys, command, method):
    # the transform has two routes, auto and truncated; anything else is
    # refused by the parser before a model is read
    query = {"stieltjes": ["--z", "1.5"], "recurrence": ["--density", files["rho_sym"]]}
    code, err = run_error(capsys, [command, files["flip"], *query[command], "--method", method])
    assert code == 2 and "invalid choice" in err and "Traceback" not in err


def run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize("window", ["0", "-4"])
def test_truncated_empty_window_is_schema_error(files, capsys, window):
    code, err = run_error(capsys, ["stieltjes", files["flip"], "--z", "1.5",
                                   "--method", "truncated", "--window", window])
    assert code == 3 and "window must be at least 1" in err


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


def test_first_passage_site_outside_window_is_schema_error(files, capsys):
    code, err = run_error(
        capsys,
        ["first-passage", files["hop"], "--from", "100", "--to", "0",
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


@pytest.mark.parametrize(
    "model, site, method",
    [
        ("seg", "1", "truncated"),
        ("hop", "1", "truncated"),
        ("diagline", "0", "truncated"),
        ("diagline", "2", "truncated"),
    ],
)
def test_recurrence_explicit_method_is_never_ignored(files, capsys, tmp_path, model, site, method):
    # an explicit method names a site-0 evaluator of a chain bounded below
    if model == "seg":
        seg = models.uniform_hopping_segment(4, 0.5, 0.5, 0.5, 0.25, 0.25)
        path = str(tmp_path / "seg.json")
        Path(path).write_text(json.dumps(model_to_dict(seg)))
    else:
        path = files[model]
    code, err = run_error(
        capsys,
        ["recurrence", path, "--site", site, "--density", files["rho_sym"], "--method", method],
    )
    assert code == 3
    assert err.startswith("error:")
    assert "Traceback" not in err


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
        (FileNotFoundError("no"), 2, "error: no"),
        (IsADirectoryError("no"), 2, "error: no"),
        (PermissionError("no"), 2, "error: no"),
    ],
    ids=["ValueError", "LinAlgError", "ArithmeticError", "SpectralError",
         "ConvergenceError", "FileNotFoundError", "IsADirectoryError", "PermissionError"],
)
def test_run_maps_exceptions_to_exit_codes(capsys, monkeypatch, exc, code, prefix):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_first_passage", fail)
    argv = ["first-passage", "m.json", "--from", "1", "--to", "0", "--density", "rho.json"]
    assert run(argv) == code
    assert capsys.readouterr().err == prefix + "\n"


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
