"""Outside-in layer tracing.

The package's modules import each other's functions by name (for
example `from .chain_model import truncate, corner_resolvent` in
`spectral`), so wrapping a function only in its defining module would
miss every cross-module call.  `Tracer.install` therefore rebinds each
wrapped function in every `qmcspectra` module namespace that holds it,
and wraps `evaluate` on the evaluator classes and the two polynomial
families on `PolyFamily`.  `uninstall` puts the originals back.

Spans (name, start, end, parent, query, info) are kept in memory;
`layer_stats` turns them into per-layer totals at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYER_MODULES = ("quantum_core", "chain_model", "polynomials", "spectral", "statistics",
                 "folding", "nonsymmetric", "trajectories")
METHODS = {
    "polynomials": {"PolyFamily": ("main", "two_sided")},
    "spectral": {name: ("evaluate",) for name in
                 ("TruncatedStieltjes", "HomogeneousStieltjes", "CornerStieltjes")},
    "folding": {"FoldedTransformEvaluator": ("evaluate",)},
}
NAME, START, END, PARENT, QUERY, INFO = range(6)


def _arg(fn):
    """Accessor for one named argument of fn, defaults applied."""
    sig = inspect.signature(fn)

    def get(args, kwargs, name):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return get


def _window_sites(model, window):
    lo = -window if model.topology.kind == "line" else 0
    hi = window if model.topology.hi is None else min(window, model.topology.hi)
    return hi - lo + 1


def _info_functions(mods):
    """Work counters recorded at the layer boundary: fn(args, kwargs, out)."""
    cm = mods["chain_model"]
    res_arg = _arg(cm.resolvent_block)

    def corner_sites(args, kwargs, out):
        model, depth = args[0], args[2] if len(args) > 2 else kwargs["depth"]
        hi = model.topology.hi
        return {"sites": depth if hi is None else min(depth, hi + 1)}

    def converged(args, kwargs, out):
        return {"converged": out.residual <= args[0].tolerance}

    def trajectory_work(args, kwargs, out):
        cfg = args[0] if args else kwargs["config"]
        topo = cfg.model.topology
        return {"work": cfg.n_traj * cfg.steps, "n_traj": cfg.n_traj,
                "chain": (topo.kind, topo.num_sites, cfg.model.block_dim, cfg.steps)}

    def spectrum_size(args, kwargs, out):
        model = args[0] if args else kwargs["model"]
        return {"clusters": len(out.points), "S": model.topology.num_sites}

    evaluate = converged
    return {
        "chain_model.truncate": lambda a, k, out: {"sites": out.num_sites},
        "chain_model.corner_resolvent": corner_sites,
        "chain_model.resolvent_block": lambda a, k, out: {
            "sites": _window_sites(res_arg(a, k, "model"), res_arg(a, k, "window"))},
        "spectral.TruncatedStieltjes.evaluate": evaluate,
        "spectral.HomogeneousStieltjes.evaluate": evaluate,
        "spectral.CornerStieltjes.evaluate": evaluate,
        "spectral.finite_spectrum_weights": spectrum_size,
        "trajectories.estimate_site_prob": trajectory_work,
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = -1  # index of the query being run, -1 outside queries
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out
        return wrapper

    def install(self):
        """Wrap the package's layers."""
        mods = {m: sys.modules[f"qmcspectra.{m}"] for m in LAYER_MODULES
                if f"qmcspectra.{m}" in sys.modules}
        infos = _info_functions(mods)
        wrappers = {}  # id(original) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{mname}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, infos.get(name)))
            for cname, methods in METHODS.get(mname, {}).items():
                cls = getattr(mod, cname)
                for meth in methods:
                    obj = cls.__dict__[meth]
                    name = f"{mname}.{cname}.{meth}"
                    self._bindings.append((cls, meth, obj))
                    setattr(cls, meth, self._wrap(name, obj, infos.get(name)))
        # rebind in every namespace that imported a wrapped function by name
        for mod_name, ns in list(sys.modules.items()):
            if mod_name != "qmcspectra" and not mod_name.startswith("qmcspectra."):
                continue
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        while self._bindings:
            ns, attr, obj = self._bindings.pop()
            setattr(ns, attr, obj)


def _slope(points):
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx if sxx else 0.0


def layer_stats(spans) -> dict[str, float]:
    """Per-layer totals: calls, self_ms and the work counters."""
    child_time = [0.0] * len(spans)
    children: dict[int, list[str]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
            children.setdefault(rec[PARENT], []).append(rec[NAME])
    out: dict[str, float] = {}

    def add(k, v):
        out[k] = out.get(k, 0.0) + v

    # (layer, group) -> size -> self_ms of each call.  The exponent is a
    # slope within one group: over S for the residue extraction, over the
    # trajectory count at a fixed chain shape and step count for the
    # Monte Carlo
    by_size: dict[tuple[str, object], dict[float, list[float]]] = {}
    for idx, rec in enumerate(spans):
        name = rec[NAME]
        self_ms = (rec[END] - rec[START] - child_time[idx]) * 1e3
        add(f"{name}.calls", 1)
        add(f"{name}.self_ms", self_ms)
        info = rec[INFO] or {}
        if "sites" in info:
            add(f"{name}.sites", info["sites"])
        if "converged" in info:
            add(f"{name}.converged", 1 if info["converged"] else 0)
            add(f"{name}.windows", len(children.get(idx, ())))
        if "clusters" in info:
            add(f"{name}.clusters", info["clusters"])
            add(f"{name}.self_ms_S{info['S']}", self_ms)
            if info["S"] in (8, 16, 24):
                by_size.setdefault((name, None), {}).setdefault(info["S"], []).append(self_ms)
        if "work" in info:
            add(f"{name}.work", info["work"])
            by_size.setdefault((name, info["chain"]), {}).setdefault(info["n_traj"], []).append(self_ms)
        if name == "chain_model.resolvent_block_adaptive":
            add(f"{name}.doublings", children.get(idx, []).count("chain_model.resolvent_block") - 1)
    for name in ("spectral.finite_spectrum_weights", "trajectories.estimate_site_prob"):
        slopes = [_slope([(size, sum(v) / len(v)) for size, v in sizes.items()])
                  for (n, _), sizes in by_size.items() if n == name and len(sizes) > 1]
        out[f"{name}.exponent"] = sum(slopes) / len(slopes) if slopes else 0.0
    for name in list(out):
        if name.endswith(".converged"):
            base = name[: -len(".converged")]
            out[f"{base}.converged_ratio"] = out.pop(name) / out[f"{base}.calls"]
            out[f"{base}.windows_per_call"] = out.pop(f"{base}.windows") / out[f"{base}.calls"]
    work = out.pop("trajectories.estimate_site_prob.work", 0.0)
    busy = out.get("trajectories.estimate_site_prob.self_ms", 0.0)
    out["trajectories.estimate_site_prob.traj_steps_per_s"] = work / (busy / 1e3) if busy else 0.0
    return out


def coverage(spans, query_walls) -> float:
    """Share of timed query wall time covered by top-level layer spans."""
    top = sum(rec[END] - rec[START] for rec in spans if rec[PARENT] < 0 and rec[QUERY] >= 0)
    total = sum(query_walls)
    return top / total if total else 0.0
