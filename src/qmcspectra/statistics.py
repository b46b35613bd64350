"""Karlin-McGregor probabilities, first-passage generating functions,
recurrence classification and point-mass detection.

Recurrence of a site is decided from the return series sum_n tr(Phi^n
rho) at the site, the trace of its transform at z = 1.  Every recurrence
classifier (any site of any chain, through the exact ``SiteStieltjes``
route, which ``folding`` also uses on lines) chooses a transform
evaluator and hands it to :func:`classify`.  When the evaluator has the exact
first-return block F at z = 1 (``SiteStieltjes`` does), :func:`renewal`
decides the site for every density at once from the spectral projection
of F onto its unit-modulus eigenvalues, the "renewal" route.  Otherwise,
or when that block is not certified or its spectrum is ambiguous, the
transform is sampled on the fixed ``DEFAULT_LADDER`` as z decreases to 1
and divergence is judged from the samples, the "ladder" route; the
classification then carries the raw samples so callers can re-judge.
Either route reports its residual.

Reach probabilities are solved once at s = 1 by the elimination toward
the target of ``spectral`` (which :func:`first_passage_gf` runs on an
absorbing window, solved as a segment): the source side is closed by the
homogeneous closure at z = 1, whose G = C Y is the first passage one
level down.  The window ladder is a fallback, and says so when its
answer is the absorbing window's rather than the chain's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .chain_model import DEFAULT_WINDOW, LINE, QmcModel, segment_window
from .polynomials import PolyFamily
from .quantum_core import Array
from .spectral import (
    DiscreteWeight,
    SiteStieltjes,
    StieltjesEvaluator,
    Symmetrizer,
    _Elimination,
)

RECURRENT = "recurrent"
TRANSIENT = "transient"
INCONCLUSIVE = "inconclusive"

MAGNITUDE_THRESHOLD = 1e6
GROWTH_RATIO = 1.5
STABILIZE_RTOL = 1e-6
# a jump at x = 1 whose norm is below this is no jump
TOL_ZERO = 1e-6
# the renewal route: an eigenvalue of the return block within UNIT_TOL of
# modulus 1 is peripheral, one in the band below that down to
# 1 - AMBIGUOUS_BAND is ambiguous (near a knife edge an eigenvalue 1 - delta
# carries an error of about 1e-11, so the limit ~ 1/delta keeps the
# ladder's 1e-6 only for delta >= 1e-5); a peripheral projector of norm
# above PROJECTOR_MAX is ill-conditioned; a recurrent weight t P rho above
# WEIGHT_TOL is recurrent, and one outside [-WEIGHT_TOL, 1 + WEIGHT_TOL]
# is no weight of a density
UNIT_TOL = 1e-10
AMBIGUOUS_BAND = 1e-5
PROJECTOR_MAX = 1e6
WEIGHT_TOL = 1e-8


@dataclass(frozen=True)
class Classification:
    verdict: str
    evidence: tuple  # ((z, trace), ...); empty on the renewal route
    limit: float | None = None
    route: str = "ladder"  # or "renewal": the exact return block at z = 1
    # the closure residual at z = 1 on the renewal route, the largest
    # rung residual on the ladder
    residual: float | None = None
    recurrent_weight: float | None = None  # t P rho, renewal route only


def _aitken(seq):
    """Geometric-sequence limit estimates from consecutive triples of a
    sequence of numbers or of equal-shape arrays, entrywise; an entry
    whose second difference is below 1e-300 keeps its last value."""
    seq = np.asarray(seq)
    last = seq[2:]
    d1 = last - seq[1:-1]
    denom = d1 - (seq[1:-1] - seq[:-2])
    small = np.abs(denom) < 1e-300
    with np.errstate(all="ignore"):
        return np.where(small, last, last - d1 * d1 / np.where(small, 1.0, denom))


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
# the s-ladder 1 - 2^-m, m = 4..24, that the window fallback of
# reach_analysis samples and extrapolates
REACH_LADDER = tuple(1.0 - 2.0**-m for m in range(4, 25))


def trace_action(model_or_trace, value: Array, rho_vec: Array) -> float:
    """Tr of the represented state after applying a transform block."""
    t = model_or_trace.trace_vec if hasattr(model_or_trace, "trace_vec") else model_or_trace
    return complex(t @ (value @ rho_vec)).real


@dataclass(frozen=True)
class Renewal:
    """The return series of one site, sum_k t F^k rho, as two functionals
    of the initial density: ``weight`` = t P, with P the spectral
    projection of the return block F onto its eigenvalues of modulus 1,
    and ``limit`` = t (I - F + P)^{-1} (I - P).  F does not increase the
    trace, so t F^k rho decreases to t P rho: the series diverges exactly
    when that weight is positive, and otherwise sums to the limit
    (Lardizabal & Souza, J. Stat. Phys. 159, 2015).  One block therefore
    decides every density."""

    weight: Array
    limit: Array
    residual: float

    def verdict(self, rho_vec: Array) -> Classification | None:
        """The classification of one density, or None when its weight lies
        outside [0, 1] by more than ``WEIGHT_TOL``."""
        weight = complex(self.weight @ rho_vec).real
        if not -WEIGHT_TOL <= weight <= 1.0 + WEIGHT_TOL:
            return None
        if weight > WEIGHT_TOL:
            return Classification(RECURRENT, (), None, "renewal", self.residual, weight)
        limit = complex(self.limit @ rho_vec).real
        return Classification(TRANSIENT, (), limit, "renewal", self.residual, weight)


def renewal(evaluator: StieltjesEvaluator, trace_vec: Array) -> Renewal | None:
    """The renewal functionals of the evaluator's exact return block
    (:meth:`~StieltjesEvaluator.return_block`), or None when it has none,
    an eigenvalue lies above modulus 1 or in the ambiguous band below it,
    or the peripheral projector is ill-conditioned.

    P is built from the right eigenvectors of the peripheral eigenvalues
    and the left ones of F, each from its own eigendecomposition, so a
    defective eigenvalue elsewhere in F does not enter it."""
    block = evaluator.return_block()
    if block is None:
        return None
    f, residual = block
    right, vecs = np.linalg.eig(f)
    left, covecs = np.linalg.eig(f.conj().T)
    size = np.abs(right)
    unit, dual = size >= 1.0 - UNIT_TOL, np.abs(left) >= 1.0 - UNIT_TOL
    if (size.max() > 1.0 + UNIT_TOL or np.any(size[~unit] >= 1.0 - AMBIGUOUS_BAND)
            or unit.sum() != dual.sum()):
        return None
    v, w = vecs[:, unit], covecs[:, dual].conj().T
    try:
        proj = v @ np.linalg.solve(w @ v, w)
    except np.linalg.LinAlgError:
        return None
    if not np.linalg.norm(proj, 2) <= PROJECTOR_MAX:
        return None
    eye = np.eye(len(f))
    limit = np.linalg.solve((eye - f + proj).T, trace_vec) @ (eye - proj)
    return Renewal(trace_vec @ proj, limit, residual)


def classify(evaluator: StieltjesEvaluator, trace_vec: Array, rho_vec: Array) -> Classification:
    """Verdict from the exact return block when the evaluator has one and
    :func:`renewal` decides it, route "renewal"; else from Re tr(value rho)
    sampled down ``DEFAULT_LADDER``, whose rungs the evaluator walks with
    its :meth:`~StieltjesEvaluator.ladder`, route "ladder", with the
    largest rung residual."""
    ren = renewal(evaluator, trace_vec)
    cls = None if ren is None else ren.verdict(rho_vec)
    if cls is not None:
        return cls
    rungs = list(evaluator.ladder(DEFAULT_LADDER))
    cls = classify_from_samples([(z, trace_action(trace_vec, res.value, rho_vec))
                                 for z, res in rungs])
    return replace(cls, residual=max(res.residual for _, res in rungs))


def classify_recurrence(
    model: QmcModel,
    site: int,
    rho,
    stieltjes: StieltjesEvaluator | None = None,
) -> Classification:
    """Classify a site from its return series, through :func:`classify`.

    Without an evaluator the transform is the exact diagonal block of
    :class:`~qmcspectra.spectral.SiteStieltjes` at ``site``, on a
    segment, half-line or line, whose first-return block at z = 1
    decides the renewal route.  A supplied evaluator answers site 0
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

    The norm (Q_j, Q_j) equals the symmetrizer product pi[j].  The weights
    are residues: where a defective eigenvalue reaches the corner, the sum
    gives the n-th power of the segment's diagonalizable part, not of the
    segment (:meth:`DiscreteWeight.moment`)."""
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
    window: int = DEFAULT_WINDOW,
) -> Array:
    """First-passage generating-function block F_ji(s).

    Evaluates s P_j Phi (I - s Q_j Phi)^{-1} on a truncation (P_j
    projects onto site j, Q_j = I - P_j).  ``s`` is one
    value or an array of them, and the result has shape
    ``np.shape(s) + (d, d)``.  Masking row j pins x_j = delta_ij I, so
    the system splits at j into two block-tridiagonal halves; each half
    that carries the source is eliminated by one block-Schur sweep toward
    j, with one stacked solve per site for all s, and
    F_ji = s (A_{j-1} x_{j-1} + B_j x_j + C_{j+1} x_{j+1}): the
    ``passage`` of the elimination of ``spectral``, the assembly that the
    closed reach and the return block run at s = 1.  The window,
    [-window, window] on a line, [0, window] on a half-line and the whole
    of a segment, is solved as a segment (``segment_window``), whose own
    edges absorb.  A singular pivot raises ``np.linalg.LinAlgError``
    naming the s, and the site and window counted from the window's
    first site.  For i < j the polynomial route Q_j(1/s)^{-1} Q_i(1/s),
    ``first_passage_poly`` in the tests, agrees with it wherever both
    apply.
    """
    lo, hi = _passage_window(model, i, j, window)
    try:
        return _Elimination(segment_window(model, lo, hi), j - lo, i - lo).passage(s)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{exc}, counted from chain site {lo}") from None


@dataclass(frozen=True)
class PassageResult:
    from_site: int
    to_site: int
    probability: float
    ladder: tuple  # ((s, trace), ...)
    extrapolated: bool
    route: str  # "closed" (one solve at s = 1) or "window" (the ladder)
    residual: float  # closure residual, or the last Richardson step


def reach_analysis(
    model: QmcModel,
    i: int,
    j: int,
    rho,
    *,
    window: int = DEFAULT_WINDOW,
) -> PassageResult:
    """Probability of ever reaching site j from a density at site i.

    Both sites must be sites of the chain (``ValueError`` otherwise).  The
    closed route gives t F_ji(1) rho in one solve at s = 1, exact on every
    topology and for sites at any distance: no ladder, no window and no
    extrapolation.  The elimination toward j of ``spectral`` sweeps the
    side holding the source, from the first site past every override and
    j, closed there by the homogeneous closure at z = 1 (G = C Y is the
    first passage one level down), or from its edge when that side is
    bounded.  A source farther out on an unbounded side enters that sweep
    as G^k, k its distance from the first site, one matrix power and no
    sweep over the k sites; on a recurrent side the power keeps the trace
    exactly (``spectral._passage_power``), so the reach is 1 to rounding
    at any distance.
    It falls back to the window ladder when the closure misses its
    certificate, the invariant states of the interior drift apart, or the
    s = 1 sweep hits a singular pivot.  The ladder samples the
    first-passage trace on ``window`` at the s of ``REACH_LADDER``, all in
    one stacked :func:`first_passage_gf` call, and applies Richardson
    extrapolation of order 2; when the ladder is too rough to extrapolate
    the last sample is returned with a warning.  When the source side is
    unbounded the ladder answers for the absorbing window, not for the
    chain, and a warning naming the window says so.  ``window`` applies to
    the ladder alone, which raises ``ValueError`` when the window does not
    hold both sites.  ``route`` and ``residual`` of the result say which
    ran.
    """
    rho_vec = model.state_vec(rho)
    if not (model.topology.contains(i) and model.topology.contains(j)):
        raise ValueError(f"sites {i}, {j} outside the {model.topology.kind} topology")
    if i == j:
        return PassageResult(i, j, 1.0, ((1.0, 1.0),), False, "closed", 0.0)
    closed = _Elimination(model, j, i).closed_passage()
    if closed is not None:
        block, residual = closed
        prob = trace_action(model, block, rho_vec)
        samples, extrapolated, route = ((1.0, prob),), False, "closed"
    else:
        lo, hi = _passage_window(model, i, j, window)
        blocks = first_passage_gf(model, j, i, REACH_LADDER, window=window)
        samples = tuple((s, trace_action(model, f, rho_vec))
                        for s, f in zip(REACH_LADDER, blocks))
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
        residual = abs(r2[-1] - r2[-2])
        if residual > 1e-6 * max(1.0, abs(r2[-1])):
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
        float(residual),
    )


# ---------------------------------------------------------------------
# Point masses
# ---------------------------------------------------------------------


def jump_at_one(evaluator: StieltjesEvaluator) -> Array:
    """Point mass of the attached measure at x = 1.

    Estimates lim eps * B(1 + eps) from eps = 10^-6, 10^-7 and 10^-8
    with entrywise geometric extrapolation, which kills both analytic
    backgrounds and the slowly decaying square-root tails of divergent
    atomless transforms.  A norm below ``TOL_ZERO`` means no jump.  Combined with an irreducibility
    flag supplied by the caller, a nonzero jump is the positive-recurrence
    criterion.
    """
    eps_ladder = [10.0**-m for m in range(6, 9)]
    rungs = evaluator.ladder([1.0 + eps for eps in eps_ladder])
    samples = [eps * res.value for eps, (_, res) in zip(eps_ladder, rungs)]
    (est,) = _aitken(samples)
    if float(np.linalg.norm(est, 2)) < TOL_ZERO:
        return np.zeros_like(est)
    return est


def positive_recurrent(evaluator: StieltjesEvaluator, *, irreducible: bool) -> bool:
    """Positive recurrence = irreducibility (caller-supplied) plus a
    finite jump of the weight at x = 1."""
    jump = jump_at_one(evaluator)
    return irreducible and float(np.linalg.norm(jump, 2)) >= TOL_ZERO
