"""One workload in a fresh interpreter: set-up, closed-loop timed phase
(one query at a time), then the oracles.  Launched by run.py, which
passes the launch time so that set-up is timed from process start.

Modes:
  probe  set up, report the set-up time and exit
  run    set up, repeat whole query cycles until --seconds have passed
         and at least MIN_QUERIES queries ran, with the host-speed kernel
         timed around every query, then check every answer
  trace  set up with the tracer installed, then alternate an untraced
         and a traced pass over the cycle TRACE_CYCLES times, whatever
         --seconds says, so per-layer totals count a fixed amount of
         work; then measure the `cli` layer from outside its child
         processes; report per-layer statistics
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time

MIN_QUERIES = 100
# On a shared VM the host's other tenants can slow a core by up to 1.9x,
# for stretches of a few hundred ms to minutes, and the slowdown is common
# to all code, so it moves every timing of a run at once.  A fixed kernel
# of small dense solves and interpreter work, independent of the package
# (Calibration), is timed before each timed query and after the last one.
# Each query's wall time is scaled by CAL_REF_S over the mean of the two
# kernel times around it: its time at the reference speed.
CAL_REF_S = 2.0e-3  # the kernel's time on an unloaded core of a 2-core x86 VM
SETUP_CALS = 5  # kernel runs right after set-up; set-up is scaled by their median
TRACE_CYCLES = 2  # traced passes over the cycle in a traced run
HARD_CAP_S = 140.0  # the timed phase never runs longer than this
CLI_PASSES = 2  # passes over the CLI cycle in a traced run
WORKLOADS = {"segment_spectra": "wl_segment", "halfline_transforms": "wl_halfline",
             "occupation": "wl_occupation"}


def run_queries(queries, tracer=None):
    """Run each query once, in order; returns (wall seconds, output, error)."""
    out = []
    clock = time.perf_counter
    for idx, q in enumerate(queries):
        if tracer is not None:
            tracer.query = idx
        t0 = clock()
        try:
            res, err = q.run(), None
        except Exception as exc:  # a raising query is a failed query
            res, err = None, f"{type(exc).__name__}: {exc}"
        out.append((clock() - t0, res, err))
    if tracer is not None:
        tracer.query = -1
    return out


def _shows(signature, res) -> bool:
    try:
        return bool(signature(res))
    except Exception:  # an answer the signature cannot read is not the defect
        return False


def check_all(queries, records):
    """Oracles, outside any timed region.  Identical answers of the same
    query are checked once."""
    from common import KNOWN_DEFECTS

    seen = {}
    failures = []
    unexpected = 0
    by_kind = {}
    for n, (_, res, err) in enumerate(records):
        q = queries[n % len(queries)]
        if err is not None:
            ok, detail = False, err
        else:
            fp = (n % len(queries), hashlib.sha1(pickle.dumps(res)).hexdigest())
            if fp not in seen:
                try:
                    seen[fp] = q.check(res)
                except Exception as exc:  # an answer the oracle cannot read fails
                    seen[fp] = (False, f"unreadable answer: {exc!r}")
            ok, detail = seen[fp]
        tally = by_kind.setdefault(q.kind, [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            expected = (err is None and q.known_defect in KNOWN_DEFECTS
                        and q.shows_defect is not None and _shows(q.shows_defect, res))
            unexpected += not expected
            if len(failures) < 20:
                failures.append({"kind": q.kind, "query": q.key[:300], "detail": detail[:300],
                                 "known_defect": q.known_defect if expected else None})
    failed = sum(t[1] for t in by_kind.values())
    return {"attempted": len(records), "failed": failed, "unexpected_failures": unexpected,
            "by_kind": by_kind, "failures": failures}


def environment(args, queries):
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {k: cfg.get("Build Dependencies", {}).get(k) for k in ("blas", "lapack")}
    except TypeError:  # numpy < 1.25 has no dict mode
        pass
    threads = {k: os.environ.get(k) for k in sorted(os.environ)
               if k.endswith("_NUM_THREADS") or k in ("QMC_SPECTRA_THREADS", "VECLIB_MAXIMUM_THREADS")}
    threads.setdefault("QMC_SPECTRA_THREADS", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": threads,
        "bytecode": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                     "package_pyc": "compiled fresh into a private copy of src per run"},
        "seed": args.seed,
        "workload": args.workload,
        "queries_per_cycle": len(queries),
        "query_hash": hashlib.sha256("\n".join(q.key for q in queries).encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class Calibration:
    """The host-speed kernel: fixed small complex solves and a pure-Python
    loop, about 2 ms at the reference speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.mats = [rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)) + 8 * np.eye(32)
                     for _ in range(4)]
        self.rhs = rng.normal(size=(32, 4)) + 0j
        self.solve = np.linalg.solve

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(15):
            for mat in self.mats:
                self.solve(mat, self.rhs)
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        return time.perf_counter() - t0


def timed_phase(queries, seconds, calibration):
    """Closed loop over whole cycles, with the kernel timed before each
    query and after the last; returns (records, kernel times, wall
    seconds)."""
    records, kernel = [], [calibration()]
    start = time.perf_counter()
    while True:
        for q in queries:
            records.extend(run_queries([q]))
            kernel.append(calibration())
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(records) >= MIN_QUERIES) or elapsed >= HARD_CAP_S:
            return records, kernel, elapsed


def import_times(workdir, repeats=3):
    """Fresh-interpreter import cost of the CLI module and of scipy.linalg."""
    code = ("import sys, time; t = time.perf_counter(); __import__(sys.argv[1]); "
            "print(time.perf_counter() - t)")
    out = {}
    for label, module in (("cli.import_ms", "qmcspectra.cli"), ("cli.import_scipy_ms", "scipy.linalg")):
        samples = []
        for _ in range(repeats):
            proc = subprocess.run([sys.executable, "-c", code, module], cwd=workdir,
                                  capture_output=True, text=True, timeout=60, check=True)
            samples.append(float(proc.stdout) * 1e3)
        out[label] = statistics.median(samples)
    return out


def trace_phase(queries, tracer):
    """Alternate an untraced and a traced pass over the cycle,
    TRACE_CYCLES times."""
    from tracer import coverage, layer_stats

    untraced, records = [], []
    for _ in range(TRACE_CYCLES):
        untraced.extend(w for w, _, _ in run_queries(queries))
        tracer.install()
        try:
            records.extend(run_queries(queries, tracer))
        finally:
            tracer.uninstall()
    walls = [w for w, _, _ in records]
    stats = layer_stats(tracer.spans)
    stats["trace.overhead_frac"] = sum(walls) / sum(untraced) - 1.0
    stats["trace.coverage_frac"] = coverage(tracer.spans, walls)
    return records, stats


def cli_layer(seed, workdir):
    """The `cli` layer, measured from outside the child process: the CLI
    cycle (every subcommand plus malformed inputs, each in a fresh
    interpreter) CLI_PASSES times, and fresh-interpreter import costs.
    Returns (oracle, stats)."""
    import wl_cli

    queries = wl_cli.build(seed, workdir)
    records = []
    for _ in range(CLI_PASSES):
        records.extend(run_queries(queries))
    walls = {}
    for n, (wall, _, _) in enumerate(records):
        walls.setdefault(queries[n % len(queries)].kind, []).append(wall * 1e3)
    stats = {f"cli.{sub}.wall_ms": statistics.median(walls[sub]) for sub in wl_cli.SUBCOMMANDS}
    stats.update(import_times(workdir))
    return check_all(queries, records), stats


def merge_oracles(main, cli):
    """One oracle record for a traced run: the workload's queries, then
    the CLI cycle's, whose classes are prefixed with `cli.`."""
    out = {k: main[k] + cli[k] for k in ("attempted", "failed", "unexpected_failures")}
    out["by_kind"] = {**main["by_kind"], **{f"cli.{k}": v for k, v in cli["by_kind"].items()}}
    out["failures"] = main["failures"] + cli["failures"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--launched", type=float, required=True, help="perf_counter at launch")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    wl = __import__(WORKLOADS[args.workload])  # imports the whole package
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        # installed after every import, so no module copies a wrapper by
        # name; set-up spans (model construction, superop_of, ...) count
        tracer = Tracer()
        tracer.install()
    queries = wl.build(args.seed, args.workdir)
    setup_s = time.perf_counter() - args.launched
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": setup_s}
    if args.mode != "trace":
        calibration = Calibration()
        setup_kernel = statistics.median(calibration() for _ in range(SETUP_CALS))
        result["setup_ref_s"] = setup_s * CAL_REF_S / setup_kernel
    if args.mode == "run":
        records, kernel, wall = timed_phase(queries, args.seconds, calibration)
        result["peak_rss_mb"] = peak_rss_mb()
        result["wall_s"] = wall
        result["times_s"] = [w for w, _, _ in records]
        result["ref_times_s"] = [w * CAL_REF_S * 2.0 / (kernel[n] + kernel[n + 1])
                                 for n, w in enumerate(result["times_s"])]
        result["kernel_s"] = statistics.median(kernel)
    elif args.mode == "trace":
        records, stats = trace_phase(queries, tracer)
        cli_oracle, cli_stats = cli_layer(args.seed, args.workdir)
        result["layers"] = {**stats, **cli_stats}
    if args.mode != "probe":
        result["oracle"] = check_all(queries, records)
        if args.mode == "trace":
            result["oracle"] = merge_oracles(result["oracle"], cli_oracle)
        result["env"] = environment(args, queries)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
