import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmcspectra
from qmcspectra import models
from qmcspectra.chain_model import build_model, model_to_dict, site_prob_series
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
    out = run_json(
        capsys, ["stieltjes", files["flip"], "--z", "1.5", "--method", "homogeneous"]
    )
    assert out["method"] == "homogeneous_fp"
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

    out = run_json(
        capsys,
        ["recurrence", files["flip"], "--site", "0",
         "--density", files["rho_sym"], "--method", "homogeneous"],
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


def test_first_passage_ladder(files, capsys):
    out = run_json(
        capsys,
        ["first-passage", files["three_site"], "--from", "0", "--to", "1",
         "--density", files["rho_sym"]],
    )
    assert out["probability"] == pytest.approx((1 + np.sqrt(2) * 0.1) / 2, abs=1e-8)
    assert out["ladder"][0][0] == pytest.approx(1 - 2**-4)


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
    assert out["limit"] == pytest.approx(site_prob_series(seg, 0, 0, rho, 4000).sum(), abs=1e-9)
    # the half-line fixed point does not describe a segment
    for method in ("homogeneous", "corner"):
        code, err = run_error(capsys, [*argv, "--method", method])
        assert code == 3 and "half-line" in err


def test_exit_codes(files, capsys, tmp_path):
    assert run(["validate", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrix": [[1, 0], [0, 0]]}))
    assert run(["prob", str(bad), "--from", "0", "--to", "0", "--steps", "1",
                "--density", files["rho_sym"]]) == 3
    capsys.readouterr()
    # numerical failure: a chain whose forward pivot is singular
    from qmcspectra.chain_model import Block, QmcModel, segment

    deg = QmcModel(
        topology=segment(3),
        dim=None,
        block_dim=2,
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
                "--density", files["rho"], "--method", "homogeneous"]) == 3
    capsys.readouterr()


def run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.err


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
        ("diagline", ["--site", "3"]),
    ],
)
def test_recurrence_site_outside_window_is_schema_error(files, capsys, model, extra):
    code, err = run_error(
        capsys, ["recurrence", files[model], "--density", files["rho"], *extra]
    )
    assert code == 3
    assert err.startswith("error: bad recurrence query:")
    assert "Traceback" not in err


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
