"""Karlin-McGregor probabilities, first-passage generating functions,
recurrence classification and point-mass detection.

Recurrence of a site is decided from the boundary behavior of the
attached transform as z decreases to 1: the return series diverges
exactly when the trace of the transform applied to the initial density
does.  Divergence is decided numerically on a fixed sampling ladder by
:func:`classify`, the one loop over that ladder: every recurrence
classifier (any site here, through the exact ``SiteStieltjes`` route,
line sites 0 and -1 by the split identities in ``folding``, bare
homogeneous blocks in ``nonsymmetric``) chooses a transform evaluator
and hands it to :func:`classify`.  The returned classification carries
the raw samples so callers can re-judge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain_model import LINE, QmcModel, block_table, schur_sweep
from .polynomials import PolyFamily
from .quantum_core import Array
from .spectral import (
    DiscreteWeight,
    SiteStieltjes,
    StieltjesEvaluator,
    Symmetrizer,
    _warm_ladder,
)

RECURRENT = "recurrent"
TRANSIENT = "transient"
INCONCLUSIVE = "inconclusive"

MAGNITUDE_THRESHOLD = 1e6
GROWTH_RATIO = 1.5
STABILIZE_RTOL = 1e-6


@dataclass(frozen=True)
class Classification:
    verdict: str
    evidence: tuple  # ((z, trace), ...)
    limit: float | None = None

    @property
    def is_recurrent(self) -> bool:
        return self.verdict == RECURRENT


def _aitken(seq):
    """Geometric-sequence limit estimates from consecutive triples."""
    out = []
    for k in range(2, len(seq)):
        d1 = seq[k] - seq[k - 1]
        d0 = seq[k - 1] - seq[k - 2]
        denom = d1 - d0
        if abs(denom) < 1e-300:
            out.append(seq[k])
        else:
            out.append(seq[k] - d1 * d1 / denom)
    return out


def classify_from_samples(
    samples,
    *,
    magnitude_threshold: float = MAGNITUDE_THRESHOLD,
    growth_ratio: float = GROWTH_RATIO,
    stabilize_rtol: float = STABILIZE_RTOL,
) -> Classification:
    """Verdict from trace samples taken along a ladder approaching z = 1.

    Divergence is recognized either by magnitude (beyond the threshold
    with increasing increments) or by sustained increment growth; a
    finite limit by stabilization of the extrapolated values.
    """
    evidence = tuple((complex(z), float(t)) for z, t in samples)
    traces = [t for _, t in evidence]
    incs = np.diff(traces)
    growing = len(incs) >= 2 and all(
        incs[k] > 0 and incs[k] >= growth_ratio * incs[k - 1]
        for k in range(len(incs) - 2, len(incs))
    )
    if traces[-1] > magnitude_threshold and (len(incs) == 0 or incs[-1] > 0):
        return Classification(RECURRENT, evidence)
    if growing:
        return Classification(RECURRENT, evidence)
    # cascade the extrapolation: repeated sweeps handle traces built from
    # several geometric scales (e.g. a square-root edge plus an analytic
    # background)
    extr = list(traces)
    while len(extr) >= 3:
        nxt = _aitken(extr)
        scale = max(1.0, abs(nxt[-1]))
        if len(nxt) >= 2 and abs(nxt[-1] - nxt[-2]) <= stabilize_rtol * scale:
            return Classification(TRANSIENT, evidence, float(nxt[-1]))
        extr = nxt
    if len(incs) >= 2 and abs(incs[-1]) <= stabilize_rtol * max(1.0, abs(traces[-1])):
        return Classification(TRANSIENT, evidence, float(traces[-1]))
    return Classification(INCONCLUSIVE, evidence)


DEFAULT_LADDER = tuple(1.0 + 10.0 ** (-m) for m in range(2, 9))


def trace_action(model_or_trace, value: Array, rho_vec: Array) -> float:
    """Tr of the represented state after applying a transform block."""
    t = model_or_trace.trace_vec if hasattr(model_or_trace, "trace_vec") else model_or_trace
    return complex(t @ (value @ rho_vec)).real


def classify(
    evaluator: StieltjesEvaluator, trace_vec: Array, rho_vec: Array, ladder=DEFAULT_LADDER
) -> Classification:
    """Verdict from Re tr(value rho) sampled down the ladder, each rung
    warm-started from the previous one's :meth:`EvalResult.warm`."""
    samples = [
        (z, trace_action(trace_vec, res.value, rho_vec))
        for z, res in _warm_ladder(evaluator, ladder)
    ]
    return classify_from_samples(samples)


def classify_recurrence(
    model: QmcModel,
    site: int,
    rho,
    stieltjes: StieltjesEvaluator | None = None,
    *,
    ladder=DEFAULT_LADDER,
) -> Classification:
    """Classify a site from the boundary behavior of its return transform.

    At site 0 the supplied evaluator's values are used directly.  Every
    other site, and site 0 without an evaluator, uses the exact diagonal
    block of :class:`~qmcspectra.spectral.SiteStieltjes`.
    """
    if stieltjes is None or site != 0:
        stieltjes = SiteStieltjes(model, site)
    return classify(stieltjes, model.trace_vec, model.state_vec(rho), ladder)


# ---------------------------------------------------------------------
# Karlin-McGregor via discrete weights
# ---------------------------------------------------------------------


def km_block(
    weights: DiscreteWeight,
    polys: PolyFamily,
    sym: Symmetrizer,
    j: int,
    i: int,
    n: int,
) -> Array:
    """n-step block (j, i) as the discrete spectral sum
    (Q_j, Q_j)^{-1} sum_k l^n Q_j*(l_k) W_k Q_i(l_k).

    The norm (Q_j, Q_j) equals the symmetrizer product pi[j]."""
    if not sym.success:
        raise ValueError("spectral sum needs a successful symmetrizer")
    nodes = weights.nodes()
    q = polys.main(nodes, max(i, j))
    terms = q[j].conj().swapaxes(-1, -2) @ weights.weights() @ q[i]
    acc = np.einsum("k,kij->ij", nodes**n, terms)
    return np.linalg.solve(sym.pi[j], acc)


def km_probability(
    weights: DiscreteWeight,
    polys: PolyFamily,
    sym: Symmetrizer,
    i: int,
    j: int,
    rho,
    n: int,
) -> float:
    """Probability of reaching site j at step n from a density at site i,
    evaluated through the spectral sum instead of matrix powers."""
    model = polys.model
    block = km_block(weights, polys, sym, j, i, n)
    return trace_action(model, block, model.state_vec(rho))


# ---------------------------------------------------------------------
# First passage
# ---------------------------------------------------------------------


def first_passage_gf(
    model: QmcModel,
    j: int,
    i: int,
    s: complex | Array,
    *,
    window: int = 64,
    method: str = "resolvent",
) -> Array:
    """First-passage generating-function block F_ji(s).

    method="resolvent" evaluates s P_j Phi (I - s Q_j Phi)^{-1} on a
    truncation (P_j projects onto site j, Q_j = I - P_j).  ``s`` is one
    value or an array of them, and the result has shape
    ``np.shape(s) + (d, d)``.  Masking row j pins x_j = delta_ij I, so
    the system splits at j into two block-tridiagonal halves; each half
    that carries the source is eliminated by one block-Schur sweep toward
    j, with one stacked solve per site for all s, and
    F_ji = s (A_{j-1} x_{j-1} + B_j x_j + C_{j+1} x_{j+1}).  A singular
    pivot raises ``np.linalg.LinAlgError`` naming the site, the s and the
    window.  The window is [-window, window] on a line, [0, window] on a
    half-line and the whole of a segment.  For i < j the polynomial fast
    path Q_j(1/s)^{-1} Q_i(1/s) is available as method="polynomial"; the
    two agree wherever both apply.
    """
    if method == "polynomial":
        return first_passage_poly(model, j, i, s)
    # the window covers a segment whole, whatever its length
    lo = -window if model.topology.kind == LINE else 0
    hi = window if model.topology.hi is None else model.topology.hi
    if not (lo <= i <= hi and lo <= j <= hi):
        raise ValueError(f"sites {i}, {j} outside window [{lo}, {hi}]")
    A, B, C = table = block_table(model, lo, hi)
    d = model.block_dim
    ss = np.reshape(s, (-1,))
    s3 = ss[:, None, None]
    # the half below j ends at j - 1, the half above at j + 1; with i == j
    # the source is the coupling to x_j = I at that end.  A half without
    # the source carries x = 0 and is not swept.
    acc = B[j - lo] if i == j else 0.0
    if i <= j and j > lo:
        source = np.eye(d) if i < j else s3 * C[j - lo]
        x = schur_sweep(table, lo, range(lo, j), s=ss, source_site=min(i, j - 1), source=source)
        acc = acc + A[j - 1 - lo] @ x
    if i >= j and j < hi:
        source = np.eye(d) if i > j else s3 * A[j - lo]
        x = schur_sweep(table, lo, range(hi, j, -1), s=ss, source_site=max(i, j + 1), source=source)
        acc = acc + C[j + 1 - lo] @ x
    return (s3 * acc).reshape(np.shape(s) + (d, d))


def first_passage_poly(model: QmcModel, j: int, i: int, s: complex) -> Array:
    """Polynomial route F_ji(s) = Q_j(1/s)^{-1} Q_i(1/s), valid for i < j."""
    if not i < j:
        raise ValueError("polynomial route needs i < j")
    x = 1.0 / s
    q = PolyFamily(model).main(x, j)
    return np.linalg.solve(q[j], q[i])


def first_passage_corner(model: QmcModel, s: complex) -> Array:
    """Adjacent-site shortcut F_10(s) = s A_0 (I - s B_0)^{-1}."""
    d = model.block_dim
    a0 = model.block(0, "A")
    b0 = model.block(0, "B")
    return s * np.linalg.solve((np.eye(d, dtype=complex) - s * b0).T, a0.T).T


@dataclass(frozen=True)
class PassageResult:
    from_site: int
    to_site: int
    probability: float
    ladder: tuple  # ((s, trace), ...)
    extrapolated: bool
    gf: object = None  # s -> first-passage block, same truncation

    def block(self, s: complex) -> Array:
        return self.gf(s)


def reach_analysis(
    model: QmcModel,
    i: int,
    j: int,
    rho,
    *,
    m_range=range(4, 25),
    window: int = 64,
) -> PassageResult:
    """Probability of ever reaching site j from a density at site i.

    The first-passage trace is sampled at s = 1 - 2^{-m}, the whole
    ladder in one stacked :func:`first_passage_gf` call, and Richardson
    extrapolation of order 2 is applied on the geometric ladder; when the
    ladder is too rough to extrapolate the last sample is returned with a
    warning, and fewer than three rungs raise ``ValueError``.  ``gf`` of
    the result evaluates one s on the same window.
    """
    ladder = [1.0 - 2.0**-m for m in m_range]
    if len(ladder) < 3:
        raise ValueError(
            f"order-2 Richardson extrapolation needs at least three rungs, got {len(ladder)}"
        )
    rho_vec = model.state_vec(rho)

    def gf(s):
        return first_passage_gf(model, j, i, s, window=window)

    if i == j:
        return PassageResult(i, j, 1.0, ((1.0, 1.0),), False, gf)
    blocks = gf(np.array(ladder))
    samples = [(s, trace_action(model, f, rho_vec)) for s, f in zip(ladder, blocks)]
    t = [v for _, v in samples]
    r1 = [2.0 * t[k] - t[k - 1] for k in range(1, len(t))]
    r2 = [(4.0 * r1[k] - r1[k - 1]) / 3.0 for k in range(1, len(r1))]
    prob, extrapolated = r2[-1], True
    if len(r2) >= 2 and abs(r2[-1] - r2[-2]) > 1e-6 * max(1.0, abs(r2[-1])):
        warnings.warn(
            "first-passage ladder not smooth; falling back to last sample",
            stacklevel=2,
        )
        prob, extrapolated = t[-1], False
    if prob < -1e-8 or prob > 1.0 + 1e-8:
        raise ArithmeticError(
            f"extrapolated passage probability {prob} outside [0, 1]"
        )
    return PassageResult(
        i, j, float(min(max(prob, 0.0), 1.0)), tuple(samples), extrapolated, gf
    )


# ---------------------------------------------------------------------
# Point masses
# ---------------------------------------------------------------------


def jump_at_one(
    evaluator: StieltjesEvaluator,
    *,
    m_range=range(2, 9),
    tol_zero: float = 1e-6,
) -> Array:
    """Point mass of the attached measure at x = 1.

    Estimates lim eps * B(1 + eps) down an epsilon ladder with entrywise
    geometric extrapolation, which kills both analytic backgrounds and the
    slowly decaying square-root tails of divergent atomless transforms.
    A norm below tol_zero means no jump.  Combined with an irreducibility
    flag supplied by the caller, a nonzero jump is the positive-recurrence
    criterion.
    """
    eps_ladder = [10.0**-m for m in m_range]
    rungs = _warm_ladder(evaluator, [1.0 + eps for eps in eps_ladder])
    samples = [eps * res.value for eps, (_, res) in zip(eps_ladder, rungs)]
    p2, p1, p0 = samples[-3], samples[-2], samples[-1]
    d1 = p0 - p1
    d0 = p1 - p2
    denom = d1 - d0
    small = np.abs(denom) < 1e-300
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(small, p0, p0 - d1 * d1 / np.where(small, 1.0, denom))
    if float(np.linalg.norm(est, 2)) < tol_zero:
        return np.zeros_like(est)
    return est


def positive_recurrent(
    evaluator: StieltjesEvaluator, *, irreducible: bool, tol_zero: float = 1e-6
) -> bool:
    """Positive recurrence = irreducibility (caller-supplied) plus a
    finite jump of the weight at x = 1."""
    jump = jump_at_one(evaluator, tol_zero=tol_zero)
    return irreducible and float(np.linalg.norm(jump, 2)) >= tol_zero
