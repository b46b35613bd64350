"""Karlin-McGregor probabilities, first-passage generating functions,
recurrence classification and point-mass detection.

Recurrence of a site is decided from the boundary behavior of the
attached transform as z decreases to 1: the return series diverges
exactly when the trace of the transform applied to the initial density
does.  Divergence is decided numerically on a fixed sampling ladder by
:func:`classify`, the one loop over that ladder: every recurrence
classifier (any site of any chain here, through the exact
``SiteStieltjes`` route, which ``folding`` also uses on lines; bare
homogeneous blocks in ``nonsymmetric``) chooses a transform evaluator
and hands it to :func:`classify`.  The returned classification carries
the raw samples so callers can re-judge.

Reach probabilities are solved once at s = 1: the side holding the source
is swept toward the target and closed by the homogeneous closure of
``spectral`` at z = 1, whose G = C Y is the first passage one level down.
The window ladder is a fallback, and says so when its answer is the
absorbing window's rather than the chain's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .chain_model import (
    LINE,
    ROLES,
    QmcModel,
    _homogeneous_matrix,
    block_table,
    schur_sweep,
)
from .polynomials import PolyFamily
from .quantum_core import Array
from .spectral import (
    DiscreteWeight,
    SiteStieltjes,
    StieltjesEvaluator,
    Symmetrizer,
    homogeneous_closure,
)

RECURRENT = "recurrent"
TRANSIENT = "transient"
INCONCLUSIVE = "inconclusive"

MAGNITUDE_THRESHOLD = 1e6
GROWTH_RATIO = 1.5
STABILIZE_RTOL = 1e-6
# a jump at x = 1 whose norm is below this is no jump
TOL_ZERO = 1e-6


@dataclass(frozen=True)
class Classification:
    verdict: str
    evidence: tuple  # ((z, trace), ...)
    limit: float | None = None


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


def classify_from_samples(samples) -> Classification:
    """Verdict from trace samples taken along a ladder approaching z = 1.

    Divergence is recognized either by magnitude (beyond the threshold
    with increasing increments) or by sustained increment growth; a
    finite limit by stabilization of the extrapolated values.
    """
    evidence = tuple((complex(z), float(t)) for z, t in samples)
    traces = [t for _, t in evidence]
    incs = np.diff(traces)
    growing = len(incs) >= 2 and all(
        incs[k] > 0 and incs[k] >= GROWTH_RATIO * incs[k - 1]
        for k in range(len(incs) - 2, len(incs))
    )
    if traces[-1] > MAGNITUDE_THRESHOLD and (len(incs) == 0 or incs[-1] > 0):
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
        if len(nxt) >= 2 and abs(nxt[-1] - nxt[-2]) <= STABILIZE_RTOL * scale:
            return Classification(TRANSIENT, evidence, float(nxt[-1]))
        extr = nxt
    if len(incs) >= 2 and abs(incs[-1]) <= STABILIZE_RTOL * max(1.0, abs(traces[-1])):
        return Classification(TRANSIENT, evidence, float(traces[-1]))
    return Classification(INCONCLUSIVE, evidence)


DEFAULT_LADDER = tuple(1.0 + 10.0 ** (-m) for m in range(2, 9))


def trace_action(model_or_trace, value: Array, rho_vec: Array) -> float:
    """Tr of the represented state after applying a transform block."""
    t = model_or_trace.trace_vec if hasattr(model_or_trace, "trace_vec") else model_or_trace
    return complex(t @ (value @ rho_vec)).real


def classify(evaluator: StieltjesEvaluator, trace_vec: Array, rho_vec: Array) -> Classification:
    """Verdict from Re tr(value rho) sampled down ``DEFAULT_LADDER``, whose
    rungs the evaluator walks with its :meth:`~StieltjesEvaluator.ladder`."""
    samples = [
        (z, trace_action(trace_vec, res.value, rho_vec))
        for z, res in evaluator.ladder(DEFAULT_LADDER)
    ]
    return classify_from_samples(samples)


def classify_recurrence(
    model: QmcModel,
    site: int,
    rho,
    stieltjes: StieltjesEvaluator | None = None,
) -> Classification:
    """Classify a site from the boundary behavior of its return transform.

    Without an evaluator the transform is the exact diagonal block of
    :class:`~qmcspectra.spectral.SiteStieltjes` at ``site``, on a
    segment, half-line or line.  A supplied evaluator answers site 0
    only; with any other site it raises ``ValueError``.
    """
    if stieltjes is None:
        stieltjes = SiteStieltjes(model, site)
    elif site != 0:
        raise ValueError(f"an explicit transform evaluator answers site 0, not site {site}")
    return classify(stieltjes, model.trace_vec, model.state_vec(rho))


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
    if n < 0:
        raise ValueError("step count must be nonnegative")
    for site in (j, i):
        if not polys.model.topology.contains(site):
            raise ValueError(f"site {site} outside topology")
    q = polys.main(weights.nodes(), max(i, j))
    return np.linalg.solve(sym.pi[j], weights.moment(n, q[j], q[i]))


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


def _passage_window(model: QmcModel, i: int, j: int, window: int) -> tuple[int, int]:
    """The window [-window, window] on a line, [0, window] on a half-line
    and the whole of a segment, whatever its length; ``ValueError`` when
    it does not hold both sites."""
    lo = -window if model.topology.kind == LINE else 0
    hi = window if model.topology.hi is None else model.topology.hi
    if not (lo <= i <= hi and lo <= j <= hi):
        raise ValueError(f"sites {i}, {j} outside window [{lo}, {hi}]")
    return lo, hi


def first_passage_gf(
    model: QmcModel,
    j: int,
    i: int,
    s: complex | Array,
    *,
    window: int = 64,
) -> Array:
    """First-passage generating-function block F_ji(s).

    Evaluates s P_j Phi (I - s Q_j Phi)^{-1} on a truncation (P_j
    projects onto site j, Q_j = I - P_j).  ``s`` is one
    value or an array of them, and the result has shape
    ``np.shape(s) + (d, d)``.  Masking row j pins x_j = delta_ij I, so
    the system splits at j into two block-tridiagonal halves; each half
    that carries the source is eliminated by one block-Schur sweep toward
    j, with one stacked solve per site for all s, and
    F_ji = s (A_{j-1} x_{j-1} + B_j x_j + C_{j+1} x_{j+1}).  A singular
    pivot raises ``np.linalg.LinAlgError`` naming the site, the s and the
    window.  The window is [-window, window] on a line, [0, window] on a
    half-line and the whole of a segment.  For i < j,
    :func:`first_passage_poly` is the polynomial route
    Q_j(1/s)^{-1} Q_i(1/s); the two agree wherever both apply.
    """
    lo, hi = _passage_window(model, i, j, window)
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


def _closed_passage(model: QmcModel, i: int, j: int, window: int) -> tuple[Array, float] | None:
    """F_ji(1) for i != j in one solve at s = 1, with the residual of its
    homogeneous closure (0 without one); None when the closure is not
    certified.

    A source side bounded by an edge is swept at s = 1 as in
    :func:`first_passage_gf`.  An unbounded one is swept from the first
    site past every override and the source, closed there by the inverse
    pivot Y = (I - B - G A)^{-1} of the homogeneous tail at z = 1
    (:func:`~qmcspectra.spectral.homogeneous_closure`), for which G = C Y
    is the first passage one level down; below the target on a line the
    mirror closure, with A and C swapped, closes it.  A singular pivot
    raises ``np.linalg.LinAlgError``.
    """
    topo = model.topology
    above = i > j
    if (topo.hi if above else topo.lo) is not None:
        return first_passage_gf(model, j, i, 1.0, window=window), 0.0
    a, b, c = (_homogeneous_matrix(model, role) for role in ROLES)
    if not above:
        a, c = c, a
    (closing,), (residual,), (certified,) = homogeneous_closure(a, b, c, np.ones(1),
                                                                model.trace_vec)
    if not certified:
        return None
    eye = np.eye(model.block_dim)
    marks = [*model.overrides, i]
    if above:
        # the tail starts past every override and the source
        hi = max(marks) + 1
        table = block_table(model, j, hi)
        x = schur_sweep(table, j, range(hi - 1, j, -1), s=1.0, source_site=i, source=eye,
                        closing=closing)
        return table[2][1] @ x, residual
    lo = min(marks) - 1
    table = block_table(model, lo, j)
    x = schur_sweep(table, lo, range(lo + 1, j), s=1.0, source_site=i, source=eye,
                    closing=closing)
    return table[0][j - 1 - lo] @ x, residual


@dataclass(frozen=True)
class PassageResult:
    from_site: int
    to_site: int
    probability: float
    ladder: tuple  # ((s, trace), ...)
    extrapolated: bool
    route: str  # "closed" (one solve at s = 1) or "window" (the ladder)
    residual: float  # closure residual, or the last Richardson step
    gf: object = None  # s -> first-passage block on the window

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

    The closed route (:func:`_closed_passage`) gives t F_ji(1) rho in one
    solve at s = 1, exact on every topology: no ladder, no window and no
    extrapolation.  It falls back to the window ladder when the
    homogeneous closure misses its certificate, the invariant states of
    the interior drift apart, or the s = 1 sweep hits a singular pivot.
    The ladder samples the first-passage trace on ``window`` at
    s = 1 - 2^{-m}, all in one stacked :func:`first_passage_gf` call, and
    applies Richardson extrapolation of order 2; when the ladder is too
    rough to extrapolate the last sample is returned with a warning.  When
    the source side is unbounded the ladder answers for the absorbing
    window, not for the chain, and a warning naming the window says so.
    ``route`` and ``residual`` of the result say which ran.  Both sites
    must lie in the window, and fewer than three rungs raise
    ``ValueError`` on either route.  ``gf`` of the result evaluates one s
    on the window.
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
        return PassageResult(i, j, 1.0, ((1.0, 1.0),), False, "closed", 0.0, gf)
    lo, hi = _passage_window(model, i, j, window)
    try:
        closed = _closed_passage(model, i, j, window)
    except np.linalg.LinAlgError:
        closed = None
    if closed is not None:
        block, residual = closed
        prob = trace_action(model, block, rho_vec)
        samples, extrapolated, route = ((1.0, prob),), False, "closed"
    else:
        blocks = gf(np.array(ladder))
        samples = tuple((s, trace_action(model, f, rho_vec)) for s, f in zip(ladder, blocks))
        t = [v for _, v in samples]
        r1 = [2.0 * t[k] - t[k - 1] for k in range(1, len(t))]
        r2 = [(4.0 * r1[k] - r1[k - 1]) / 3.0 for k in range(1, len(r1))]
        prob, extrapolated, route = r2[-1], True, "window"
        if (model.topology.hi if i > j else model.topology.lo) is None:
            warnings.warn(
                f"no certified passage closure from site {i} to {j}; the probability is "
                f"that of the absorbing window [{lo}, {hi}], not of the chain",
                stacklevel=2,
            )
        residual = abs(r2[-1] - r2[-2]) if len(r2) >= 2 else np.inf
        if len(r2) >= 2 and residual > 1e-6 * max(1.0, abs(r2[-1])):
            warnings.warn(
                "first-passage ladder not smooth; falling back to last sample",
                stacklevel=2,
            )
            prob, extrapolated = t[-1], False
    if prob < -1e-8 or prob > 1.0 + 1e-8:
        raise ArithmeticError(
            f"{route} passage probability {prob} outside [0, 1]"
        )
    return PassageResult(
        i, j, float(min(max(prob, 0.0), 1.0)), samples, extrapolated, route,
        float(residual), gf,
    )


# ---------------------------------------------------------------------
# Point masses
# ---------------------------------------------------------------------


def jump_at_one(evaluator: StieltjesEvaluator) -> Array:
    """Point mass of the attached measure at x = 1.

    Estimates lim eps * B(1 + eps) down the ladder eps = 10^-2 .. 10^-8
    with entrywise geometric extrapolation, which kills both analytic
    backgrounds and the slowly decaying square-root tails of divergent
    atomless transforms.  A norm below ``TOL_ZERO`` means no jump.  Combined with an irreducibility
    flag supplied by the caller, a nonzero jump is the positive-recurrence
    criterion.
    """
    eps_ladder = [10.0**-m for m in range(2, 9)]
    rungs = evaluator.ladder([1.0 + eps for eps in eps_ladder])
    samples = [eps * res.value for eps, (_, res) in zip(eps_ladder, rungs)]
    p2, p1, p0 = samples[-3], samples[-2], samples[-1]
    d1 = p0 - p1
    d0 = p1 - p2
    denom = d1 - d0
    small = np.abs(denom) < 1e-300
    with np.errstate(invalid="ignore", divide="ignore"):
        est = np.where(small, p0, p0 - d1 * d1 / np.where(small, 1.0, denom))
    if float(np.linalg.norm(est, 2)) < TOL_ZERO:
        return np.zeros_like(est)
    return est


def positive_recurrent(evaluator: StieltjesEvaluator, *, irreducible: bool) -> bool:
    """Positive recurrence = irreducibility (caller-supplied) plus a
    finite jump of the weight at x = 1."""
    jump = jump_at_one(evaluator)
    return irreducible and float(np.linalg.norm(jump, 2)) >= TOL_ZERO
