"""Query records, known defects and small oracle helpers shared by the
workloads.

A workload module exposes ``build(seed, workdir) -> list[Query]``: one
cycle of queries in seeded order.  The worker repeats whole cycles, so
every run sees the class shares exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Defects the program is known to have (ROADMAP item 4).  A query tagged
# with one of these still counts as failed when its oracle misses.  The
# failure is excused (the run stays ``correct``) only when the answer shows
# the defect's exact signature; any other failure of a tagged query, a
# raise included, is unexpected.
KNOWN_DEFECTS = {
    "reach_window64_balanced": (
        "reach_analysis keeps a fixed window: on a balanced half-line the "
        "true reach probability 1 comes out as 1 - i/65 at window 64"
    ),
}


@dataclass
class Query:
    kind: str                       # query class, e.g. "S24" or "reach"
    key: str                        # canonical description, hashed into the env record
    run: Callable[[], Any]          # timed; returns plain data (numbers, arrays, tuples)
    check: Callable[[Any], tuple[bool, str]]  # oracle, never timed
    known_defect: str | None = None
    # true when an answer shows the known defect's signature, never timed
    shows_defect: Callable[[Any], bool] | None = None


def density(rng: np.random.Generator, n: int = 2, *, real: bool = False) -> np.ndarray:
    """Random full-rank density matrix."""
    m = rng.normal(size=(n, n))
    if not real:
        m = m + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def fmt(x) -> str:
    """Stable text for query keys."""
    if isinstance(x, np.ndarray):
        return "[" + ",".join(fmt(v) for v in x.reshape(-1)) + "]"
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def key(kind: str, **params) -> str:
    return kind + "(" + ",".join(f"{k}={fmt(v)}" for k, v in sorted(params.items())) + ")"


def close(got, want, tol: float, what: str) -> tuple[bool, str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not math.isfinite(err) or err > tol:
        return False, f"{what}: error {err:.3e} above {tol:.0e}"
    return True, f"{what}: error {err:.1e}"


def all_ok(*results: tuple[bool, str]) -> tuple[bool, str]:
    ok = all(r[0] for r in results)
    return ok, "; ".join(r[1] for r in results if not r[0] or ok)


def birth_death(r, s, t, start, steps, width):
    """Site traces of a uniform-hopping chain, one row per step.

    A and C are multiples of the identity and B is s times a
    trace-preserving map, so traces follow a scalar chain (up t, hold s,
    down r) on sites 0..width-1; mass leaving that range is killed.  Pass
    width > start + steps to leave the top edge out of reach."""
    rows = np.zeros((steps + 1, width))
    rows[0, start] = 1.0
    for n in range(steps):
        rows[n + 1] = s * rows[n]
        rows[n + 1, 1:] += t * rows[n, :-1]
        rows[n + 1, :-1] += r * rows[n, 1:]
    return rows


def verdict_ok(got, want_verdict: str, want_limit: float | None = None,
               tol: float = 1e-4) -> tuple[bool, str]:
    verdict, limit = got
    if verdict != want_verdict:
        return False, f"verdict {verdict}, expected {want_verdict}"
    if want_limit is not None and (limit is None or abs(limit - want_limit) > tol):
        return False, f"limit {limit}, expected {want_limit:.10g}"
    return True, f"verdict {verdict}" + ("" if want_limit is None else f", limit {limit:.10g}")
