"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each workload runs in its own fresh interpreter (perfbench/worker.py) as
a closed loop with one client, over a seeded cycle of queries.  Every
query's wall time is scaled to a reference host speed, measured by a
fixed kernel timed around it (worker.Calibration).  With --trace 0 the
last line of stdout is the end-to-end result; with --trace 1 it holds
the per-layer metrics of a separate traced run, which also measures the
`cli` layer.  The line before it records the
environment and the oracle results.  `--workload all` runs every
workload untraced and prints a table.

The package is imported from a private copy of src/, byte-compiled
afresh for every run, so set-up time never depends on what an earlier
run or test session left in __pycache__.  BLAS and OpenMP pools are
pinned to one thread and QMC_SPECTRA_THREADS is left unset.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import py_compile  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("segment_spectra", "halfline_transforms", "occupation")
SETUP_PROBES = 4      # extra fresh interpreters that only set up; setup_s is the median
RUN_BUDGET_S = 170.0  # the whole invocation ends within this
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def private_src(build: Path) -> Path:
    """Copy the package sources and byte-compile them in place."""
    src = ROOT / "src" / "qmcspectra"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {src}")
    dest = build / "src" / "qmcspectra"
    dest.mkdir(parents=True)
    tag = sys.implementation.cache_tag
    for path in sorted(src.glob("*.py")):
        target = dest / path.name
        shutil.copy2(path, target)
        py_compile.compile(str(target), cfile=str(dest / "__pycache__" / f"{path.stem}.{tag}.pyc"),
                           doraise=True)
    return build / "src"


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("QMC_SPECTRA_THREADS", None)
    env.update(PINNED)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, args, workload, env, workdir, deadline) -> dict:
    result = workdir / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(workdir), "--result", str(result)]
    launched = time.perf_counter()
    proc = subprocess.Popen([*cmd, "--launched", repr(launched)], env=env, cwd=workdir,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} worker ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker failed ({proc.returncode}):\n{err[-3000:]}")
    with open(result) as fh:
        return json.load(fh)


def end_to_end(workload, args, env, workdir, deadline):
    setups = [run_worker("probe", args, workload, env, workdir, deadline)
              for _ in range(SETUP_PROBES)]
    res = run_worker("run", args, workload, env, workdir, deadline)
    setups.append(res)
    values = dict(latencies(res["ref_times_s"]),
                  setup_s=statistics.median(r["setup_ref_s"] for r in setups),
                  peak_rss_mb=res["peak_rss_mb"])
    res["as_timed"] = dict(latencies(res["times_s"]),
                           setup_s=statistics.median(r["setup_s"] for r in setups),
                           kernel_ms=res["kernel_s"] * 1e3)
    return values, res


def latencies(times) -> dict:
    return {
        "query_p50_ms": statistics.median(times) * 1e3,
        "query_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "queries_per_s": len(times) / sum(times),
    }


def traced(workload, args, env, workdir, deadline, names):
    res = run_worker("trace", args, workload, env, workdir, deadline)
    return {name: res["layers"].get(name, 0.0) for name in names}, res


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json
    lists them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the metric list of BENCHMARK.json: {exc!r}") from None


def contract_line(values, units, oracle) -> str:
    return json.dumps({
        "correct": oracle["unexpected_failures"] == 0 and oracle["attempted"] > 0,
        "attempted": oracle["attempted"],
        "failed": oracle["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(res, args, extra=None) -> str:
    env = dict(res["env"], git_commit=git_commit(), seconds=args.seconds, trace=args.trace)
    oracle = dict(res["oracle"])
    oracle["fail_frac"] = oracle["failed"] / oracle["attempted"] if oracle["attempted"] else 1.0
    return json.dumps({"env": env, "oracle": oracle, **(extra or {})})


def report_all(args, env, workdir, deadline, units) -> int:
    rows, total = {}, {"attempted": 0, "failed": 0, "unexpected_failures": 0}
    for workload in WORKLOADS:
        values, res = end_to_end(workload, args, env, workdir, deadline)
        oracle = res["oracle"]
        for k in total:
            total[k] += oracle[k]
        print(f"== {workload}: {len(res['times_s'])} timed queries, "
              f"{oracle['failed']} failed ({oracle['unexpected_failures']} unexpected)")
        for name, value in values.items():
            print(f"   {name:16s} {value:12.4f} {units[name]}")
        print(f"   {'fail_frac':16s} {oracle['failed'] / oracle['attempted']:12.4f} share")
        for kind, (n, bad) in sorted(oracle["by_kind"].items()):
            print(f"   oracle {kind:14s} {n - bad:4d}/{n:<4d} pass")
        for f in oracle["failures"][:5]:
            tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
            print(f"   FAIL {f['kind']}: {f['detail']}{tag}")
        rows.update({f"{workload}.{k}": v for k, v in values.items()})
    print(contract_line(rows, {k: units[k.split(".", 1)[1]] for k in rows}, total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + (RUN_BUDGET_S * len(WORKLOADS) if args.workload == "all"
                                   else RUN_BUDGET_S)
    build = ROOT / ".bench_build" / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        end_units, layer_units = metric_units()
        src = private_src(build)
        workdir = build / "work"
        workdir.mkdir()
        env = child_env(src)
        if args.workload == "all":
            return report_all(args, env, workdir, deadline, end_units)
        if args.trace:
            values, res = traced(args.workload, args, env, workdir, deadline, layer_units)
            print(record(res, args))
            print(contract_line(values, layer_units, res["oracle"]))
        else:
            values, res = end_to_end(args.workload, args, env, workdir, deadline)
            if set(values) != set(end_units):
                raise BenchError(f"measured {sorted(values)}, but BENCHMARK.json lists "
                                 f"{sorted(end_units)}")
            extra = {"timed_queries": len(res["times_s"]), "wall_s": res["wall_s"],
                     "as_timed": res["as_timed"]}
            print(record(res, args, extra))
            print(contract_line(values, end_units, res["oracle"]))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(build, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
