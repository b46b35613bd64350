"""Command-line front door.

Each subcommand maps one-to-one onto a library operation and emits
machine-readable JSON (or CSV for ``simulate``) with 15 significant
digits.  Exit codes: 0 success, 2 missing file, 3 schema violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import chain_model, folding, spectral, statistics, trajectories
from .chain_model import (
    LINE,
    QmcModel,
    build_model,
    load_density_matrix,
    model_to_dict,
)
from .polynomials import PolyFamily

EXIT_FILE = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4
# the default auto route is exact and reads no window
WINDOW_HELP = "starting window of --method truncated (site 0 only)"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def f15(x: float) -> float:
    return float(f"{float(x):.15g}")


def encode_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, complex):
        return [f15(v.real), f15(v.imag)]
    if isinstance(v, (float, np.floating)):
        return f15(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, np.ndarray):
        if v.ndim == 1:
            return [encode_value(complex(e)) for e in v]
        return [[encode_value(complex(e)) for e in row] for row in v]
    if isinstance(v, (list, tuple)):
        return [encode_value(e) for e in v]
    if isinstance(v, dict):
        return {k: encode_value(e) for k, e in v.items()}
    return v


def emit(payload, stream=None) -> None:
    json.dump(encode_value(payload), stream or sys.stdout, indent=1)
    (stream or sys.stdout).write("\n")


def _load_model(path: str) -> QmcModel:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"model file not found: {path}", EXIT_FILE) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"model file is not valid JSON: {exc}", EXIT_SCHEMA) from exc
    try:
        return build_model(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"bad model spec: {exc}", EXIT_SCHEMA) from exc


def _load_density(path: str):
    try:
        return load_density_matrix(path)
    except FileNotFoundError as exc:
        raise CliError(f"density file not found: {path}", EXIT_FILE) from exc
    except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"bad density file: {exc}", EXIT_SCHEMA) from exc


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliError(f"cannot parse z value {text!r}; use RE or RE,IM", EXIT_SCHEMA)


def _evaluator(model: QmcModel, method: str, window: int):
    try:
        return spectral.transform_evaluator(model, method, window)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_SCHEMA) from exc


def cmd_validate(args) -> None:
    model = _load_model(args.model)
    report = model.tp_report()
    emit(
        {
            "topology": model.topology.kind,
            "mode": model.mode,
            "block_dim": model.block_dim,
            "substochastic": model.substochastic,
            "tp_defects": {str(site): d for site, d in sorted(report.items())},
            "max_defect": max(report.values()),
        }
    )


def cmd_evolve(args) -> None:
    model = _load_model(args.model)
    rho = _load_density(args.density)
    try:
        state = chain_model.LatticeState.from_density(model, args.site, rho)
    except ValueError as exc:
        raise CliError(f"density incompatible with model: {exc}", EXIT_SCHEMA) from exc
    state = chain_model.evolve(model, state, args.steps)
    sites = []
    for k, v in state.items():
        tr = model.trace_of(v)
        if abs(tr) < 1e-300 and not np.any(v):
            continue
        sites.append(
            {"site": k, "trace": tr, "matrix": model.state_matrix(v)}
        )
    emit(
        {
            "steps": args.steps,
            "total_trace": chain_model.total_trace(model, state),
            "sites": sites,
        }
    )


def cmd_prob(args) -> None:
    model = _load_model(args.model)
    rho = _load_density(args.density)
    try:
        p = chain_model.site_prob(model, args.from_site, args.to_site, rho, args.steps)
    except ValueError as exc:
        raise CliError(f"bad probability query: {exc}", EXIT_SCHEMA) from exc
    emit({"from": args.from_site, "to": args.to_site, "steps": args.steps, "probability": p})


def cmd_spectrum(args) -> None:
    model = _load_model(args.model)
    if model.topology.kind != "segment":
        raise CliError("spectrum needs a finite segment model", EXIT_SCHEMA)
    try:
        weights = spectral.finite_spectrum_weights(model)
    except (spectral.SpectralError, np.linalg.LinAlgError) as exc:
        raise CliError(f"spectrum computation failed: {exc}", EXIT_NUMERIC) from exc
    try:
        symmetrizable = spectral.find_symmetrizer(
            model, model.topology.num_sites - 1
        ).success
    except spectral.SpectralError:
        symmetrizable = False
    payload = [
        {
            "node": complex(p.node),
            "multiplicity": p.multiplicity,
            "weight": p.weight,
        }
        for p in weights.points
    ]
    out = {"points": payload}
    if not symmetrizable:
        out["semiorthogonal"] = True
    emit(out)


def cmd_stieltjes(args) -> None:
    model = _load_model(args.model)
    z = _parse_z(args.z)
    try:
        ev = _evaluator(model, args.method, args.window)
        res = ev.evaluate(z)
    except (spectral.ConvergenceError, np.linalg.LinAlgError) as exc:
        raise CliError(f"transform evaluation failed: {exc}", EXIT_NUMERIC) from exc
    emit({"z": z, "value": res.value, "residual": res.residual, "method": res.method})


def cmd_recurrence(args) -> None:
    model = _load_model(args.model)
    rho = _load_density(args.density)
    try:
        model.state_vec(rho)
    except ValueError as exc:
        raise CliError(f"density incompatible with model: {exc}", EXIT_SCHEMA) from exc
    try:
        if model.topology.kind == LINE:
            cls = folding.classify_recurrence_on_line(model, args.site, rho)
        else:
            ev = _evaluator(model, args.method, args.window) if args.site == 0 else None
            cls = statistics.classify_recurrence(model, args.site, rho, ev)
    except (spectral.ConvergenceError, np.linalg.LinAlgError) as exc:
        raise CliError(f"classification failed: {exc}", EXIT_NUMERIC) from exc
    except ValueError as exc:
        raise CliError(f"bad recurrence query: {exc}", EXIT_SCHEMA) from exc
    out = {
        "site": args.site,
        "verdict": cls.verdict,
        "evidence": [[z.real, t] for z, t in cls.evidence],
    }
    if cls.limit is not None:
        out["limit"] = cls.limit
    emit(out)


def cmd_first_passage(args) -> None:
    model = _load_model(args.model)
    rho = _load_density(args.density)
    try:
        result = statistics.reach_analysis(
            model, args.from_site, args.to_site, rho, window=args.window
        )
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise CliError(f"first-passage evaluation failed: {exc}", EXIT_NUMERIC) from exc
    except ValueError as exc:
        raise CliError(f"bad first-passage query: {exc}", EXIT_SCHEMA) from exc
    emit(
        {
            "from": args.from_site,
            "to": args.to_site,
            "probability": result.probability,
            "extrapolated": result.extrapolated,
            "ladder": [[s, v] for s, v in result.ladder],
        }
    )


def cmd_fold(args) -> None:
    model = _load_model(args.model)
    if model.topology.kind != LINE:
        raise CliError("fold needs a line model", EXIT_SCHEMA)
    fm = folding.fold_model(model)
    data = model_to_dict(fm.folded)
    data["block_dim"] = fm.folded.block_dim
    data["trace"] = [[v.real, v.imag] for v in fm.folded.trace_vec]
    with open(args.output, "w") as fh:
        json.dump(encode_value(data), fh, indent=1)
    depth = max([0] + list(fm.folded.overrides))
    sidecar = {
        "pairs": {str(n): [n, -n - 1] for n in range(depth + 3)},
        "note": "folded site n carries original sites n and -n-1",
    }
    with open(args.output + ".map.json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
    emit({"written": args.output, "block_dim": fm.folded.block_dim})


def cmd_poly(args) -> None:
    model = _load_model(args.model)
    x = _parse_z(args.x)
    pf = PolyFamily(model)
    try:
        if args.family == "main":
            values = pf.main(x, args.n)
            out = {"family": "main", "values": values}
        elif args.family == "associated":
            values = pf.associated(args.k, x, args.n)
            out = {"family": f"associated({args.k})", "values": values}
        elif args.family == "two-sided":
            table = pf.two_sided(args.alpha, x, -args.n, args.n)
            out = {
                "family": f"two_sided({args.alpha})",
                "values": {str(k): v for k, v in sorted(table.items())},
            }
        else:
            values = pf.folded(x, args.n)
            out = {"family": "folded", "values": values}
    except np.linalg.LinAlgError as exc:
        raise CliError(f"polynomial recurrence failed: {exc}", EXIT_NUMERIC) from exc
    out["x"] = x
    emit(out)


def cmd_simulate(args) -> None:
    model = _load_model(args.model)
    rho = _load_density(args.density)
    try:
        cfg = trajectories.TrajectoryConfig(
            model, args.site, rho, args.steps, args.trajectories, args.seed
        )
        est = trajectories.estimate_site_prob(cfg)
    except (ValueError, ArithmeticError) as exc:
        raise CliError(f"simulation failed: {exc}", EXIT_NUMERIC) from exc
    out = sys.stdout
    out.write("step,site,mean,stderr\n")
    for step in range(est.means.shape[0]):
        for site in est.sites():
            mval = est.mean(step, site)
            if mval == 0.0:
                continue
            out.write(
                f"{step},{site},{f15(mval):.15g},{f15(est.stderr(step, site)):.15g}\n"
            )


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qmc",
        description="Spectral analysis and statistics of quantum Markov chains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("model", help="model JSON file")
        return p

    add("validate", cmd_validate, help="check trace preservation per column")

    p = add("evolve", cmd_evolve, help="apply the block recursion n times")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--density", required=True)

    p = add("prob", cmd_prob, help="n-step site probability")
    p.add_argument("--from", dest="from_site", type=int, required=True)
    p.add_argument("--to", dest="to_site", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--density", required=True)

    add("spectrum", cmd_spectrum, help="eigenvalue nodes and matrix weights")

    p = add("stieltjes", cmd_stieltjes, help="transform value at one point")
    p.add_argument("--z", required=True, help="RE or RE,IM")
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", "truncated", "homogeneous", "corner"],
    )
    p.add_argument("--window", type=int, default=800, help=WINDOW_HELP)

    p = add("recurrence", cmd_recurrence, help="site recurrence verdict")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--density", required=True)
    p.add_argument(
        "--method",
        default="auto",
        choices=["auto", "truncated", "homogeneous", "corner"],
    )
    p.add_argument("--window", type=int, default=800, help=WINDOW_HELP)

    p = add("first-passage", cmd_first_passage, help="reach probability")
    p.add_argument("--from", dest="from_site", type=int, required=True)
    p.add_argument("--to", dest="to_site", type=int, required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--window", type=int, default=64,
                   help="truncation radius of the first-passage sweep")

    p = add("fold", cmd_fold, help="rewrite a line model on the half-line")
    p.add_argument("--output", required=True)

    p = add("poly", cmd_poly, help="evaluate a polynomial family")
    p.add_argument("--x", required=True, help="RE or RE,IM")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--family",
        default="main",
        choices=["main", "associated", "two-sided", "folded"],
    )
    p.add_argument("--k", type=int, default=0, help="associated-family index")
    p.add_argument("--alpha", type=int, default=1, choices=[1, 2])

    p = add("simulate", cmd_simulate, help="Monte Carlo occupation estimate")
    p.add_argument("--trajectories", type=int, default=10_000)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--density", required=True)

    return ap


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
