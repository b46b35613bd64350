"""Command-line front door.

Each subcommand maps one-to-one onto a library operation and emits
machine-readable JSON (or CSV for ``simulate``) with 15 significant
digits.  Exit codes: 0 success, 2 missing or unreadable file, 3 schema
violation, 4 numerical failure.  :func:`run` reads each subcommand's
model and density, then maps what the subcommand raises to an exit code
and writes each warning it raises as one ``warning:`` line; the
subcommands call the library directly.
``stieltjes``, ``recurrence`` and ``first-passage`` take the library's
exact route and offer no method or window to choose.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import chain_model, folding, spectral, statistics, trajectories
from .chain_model import QmcModel, load_density_matrix, model_to_dict
from .polynomials import PolyFamily

EXIT_FILE = 2
EXIT_SCHEMA = 3
EXIT_NUMERIC = 4


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
        return encode_value(np.asarray(v, dtype=complex).tolist())
    if isinstance(v, (list, tuple)):
        return [encode_value(e) for e in v]
    if isinstance(v, dict):
        return {k: encode_value(e) for k, e in v.items()}
    return v


def emit(payload) -> None:
    json.dump(encode_value(payload), sys.stdout, indent=1)
    sys.stdout.write("\n")


def _load_model(path: str) -> QmcModel:
    try:
        return chain_model.load_model(path)
    except FileNotFoundError as exc:
        raise CliError(f"model file not found: {path}", EXIT_FILE) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"model file is not valid JSON: {exc}", EXIT_SCHEMA) from exc
    except ValueError as exc:
        raise CliError(f"bad model spec: {exc}", EXIT_SCHEMA) from exc


def _load_density(path: str):
    try:
        return load_density_matrix(path)
    except FileNotFoundError as exc:
        raise CliError(f"density file not found: {path}", EXIT_FILE) from exc
    except ValueError as exc:
        raise CliError(f"bad density file: {exc}", EXIT_SCHEMA) from exc


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            z = complex(*map(float, parts))
            if math.isfinite(z.real) and math.isfinite(z.imag):
                return z
    except ValueError:
        pass
    raise CliError(f"cannot parse z value {text!r}; use finite RE or RE,IM", EXIT_SCHEMA)


# perfbench/wl_halfline.py calls this; the subcommands call the library
def _evaluator(model: QmcModel, method: str, window: int):
    return spectral.transform_evaluator(model, method, window)


def cmd_validate(args, model) -> None:
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


def cmd_evolve(args, model, rho) -> None:
    state = chain_model.LatticeState.from_density(model, args.site, rho)
    state = chain_model.evolve(model, state, args.steps)
    sites = [
        {"site": k, "trace": model.trace_of(v), "matrix": model.state_matrix(v)}
        for k, v in state.items()
        if np.any(v)
    ]
    emit(
        {
            "steps": args.steps,
            "total_trace": chain_model.total_trace(model, state),
            "sites": sites,
        }
    )


def cmd_prob(args, model, rho) -> None:
    p = chain_model.site_prob(model, args.from_site, args.to_site, rho, args.steps)
    emit({"from": args.from_site, "to": args.to_site, "steps": args.steps, "probability": p})


def cmd_spectrum(args, model) -> None:
    weights = spectral.finite_spectrum_weights(model)
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


def cmd_stieltjes(args, model) -> None:
    z = _parse_z(args.z)
    ev = spectral.transform_evaluator(model, "auto")
    res = ev.evaluate(z)
    emit({"z": z, "value": res.value, "residual": res.residual, "method": res.method})
    # the answer is written either way; one without a certificate exits 4
    ev.certify(z, res)


def cmd_recurrence(args, model, rho) -> None:
    cls = statistics.classify_recurrence(model, args.site, rho)
    out = {
        "site": args.site,
        "verdict": cls.verdict,
        "evidence": [[z.real, t] for z, t in cls.evidence],
        "route": cls.route,
        "residual": cls.residual,
        "recurrent_weight": cls.recurrent_weight,
    }
    if cls.limit is not None:
        out["limit"] = cls.limit
    emit(out)


def cmd_first_passage(args, model, rho) -> None:
    result = statistics.reach_analysis(model, args.from_site, args.to_site, rho)
    emit(
        {
            "from": args.from_site,
            "to": args.to_site,
            "probability": result.probability,
            "extrapolated": result.extrapolated,
            "ladder": [[s, v] for s, v in result.ladder],
            "route": result.route,
            "residual": result.residual,
        }
    )


def cmd_fold(args, model) -> None:
    folded = folding.fold_model(model)
    with open(args.output, "w") as fh:
        json.dump(encode_value(model_to_dict(folded)), fh, indent=1)
    depth = max([0] + list(folded.overrides))
    sidecar = {
        "pairs": {str(n): [n, -n - 1] for n in range(depth + 3)},
        "note": "folded site n carries original sites n and -n-1",
    }
    with open(args.output + ".map.json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
    emit({"written": args.output, "block_dim": folded.block_dim})


def cmd_poly(args, model) -> None:
    x = _parse_z(args.x)
    pf = PolyFamily(model)
    if args.family == "main":
        out = {"family": "main", "values": pf.main(x, args.n)}
    elif args.family == "associated":
        out = {"family": f"associated({args.k})", "values": pf.associated(args.k, x, args.n)}
    elif args.family == "two-sided":
        table = pf.two_sided(args.alpha, x, -args.n, args.n)
        out = {
            "family": f"two_sided({args.alpha})",
            "values": {str(k): v for k, v in sorted(table.items())},
        }
    else:
        out = {"family": "folded", "values": pf.folded(x, args.n)}
    out["x"] = x
    emit(out)


def cmd_simulate(args, model, rho) -> None:
    cfg = trajectories.TrajectoryConfig(
        model, args.site, rho, args.steps, args.trajectories, args.seed
    )
    est = trajectories.estimate_site_prob(cfg)
    out = sys.stdout
    out.write("step,site,mean,stderr\n")
    for step in range(est.means.shape[0]):
        for site in est.sites():
            mval = est.mean(step, site)
            if mval == 0.0:
                continue
            out.write(
                f"{step},{site},{mval:.15g},{est.stderr(step, site):.15g}\n"
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

    p = add("recurrence", cmd_recurrence, help="site recurrence verdict")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--density", required=True)

    p = add("first-passage", cmd_first_passage, help="reach probability")
    p.add_argument("--from", dest="from_site", type=int, required=True)
    p.add_argument("--to", dest="to_site", type=int, required=True)
    p.add_argument("--density", required=True)

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
    # the one reader of a subcommand's files, the model first, and the one
    # mapping from exceptions to exit codes; LinAlgError is a ValueError,
    # so the numerical clause must come first.  Warnings that the active
    # filters let through are written as one line each; a filter that
    # turns them into errors still raises
    code = 0
    with warnings.catch_warnings(record=True) as caught:
        try:
            inputs = [_load_model(args.model)]
            if "density" in args:
                inputs.append(_load_density(args.density))
            args.fn(args, *inputs)
        except CliError as exc:
            code, message = exc.code, str(exc)
        except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
            code, message = EXIT_FILE, str(exc)
        except (ArithmeticError, MemoryError, np.linalg.LinAlgError,
                spectral.SpectralError) as exc:
            code, message = EXIT_NUMERIC, f"{args.command} failed: {exc}"
        except ValueError as exc:
            code, message = EXIT_SCHEMA, f"bad {args.command} query: {exc}"
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if code:
        print(f"error: {message}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
