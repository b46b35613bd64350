"""Folding a line chain into a half-line chain with doubled blocks.

Site n >= 0 of the folded chain carries the pair (n, -n-1) of original
sites, so every half-line tool (truncation, symmetrizers, discrete
weights, transforms) applies to line chains.  The module also derives the
upward and downward half-chains and the two coupling blocks directly from
the line model, and evaluates the spectral sum for n-step blocks on the
line through the two-sided polynomial families.

Recurrence of a line site, any site, is classified on the exact
``SiteStieltjes`` route shared with every other topology.  The split
identities, which assemble the transforms at sites 0 and -1 from the two
half-chains, live here alone, in :class:`FoldedTransformEvaluator`: they
are kept as an independent cross-check of that route and as the
documented homogeneous-line criterion of ``nonsymmetric``.
"""

from __future__ import annotations

import numpy as np

from .chain_model import (
    LINE,
    Block,
    QmcModel,
    _homogeneous_matrix,
    half_line,
    segment_window,
)
from .polynomials import PolyFamily
from .quantum_core import Array
from .spectral import (
    ConvergenceError,
    DiscreteWeight,
    EvalResult,
    StieltjesEvaluator,
    Symmetrizer,
    WeightPoint,
    find_symmetrizer,
    finite_spectrum_weights,
    transform_evaluator,
)
from .statistics import Classification, classify_recurrence

QUADRANTS = {(1, 1): (0, 0), (1, 2): (0, 1), (2, 1): (1, 0), (2, 2): (1, 1)}


def _diag2(top: Array, bottom: Array) -> Array:
    d = top.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = top
    out[d:, d:] = bottom
    return out


def fold_model(model: QmcModel) -> QmcModel:
    """Fold a line chain at the origin: a half-line chain with 2d-dimensional
    blocks whose site n carries the pair (n, -n-1).

    The folded hold block at 0 couples the two strands through the
    original blocks A_{-1} (upper right) and C_0 (lower left); every other
    folded block is the diagonal pair of the two strands' blocks.
    """
    if model.topology.kind != LINE:
        raise ValueError("folding needs a line model")
    d = model.block_dim

    def m_block(n):  # up-move of the pair (n, -n-1): A_n and C_{-n-1}
        return _diag2(model.block(n, "A"), model.block(-n - 1, "C"))

    def g_block(n):
        return _diag2(model.block(n, "B"), model.block(-n - 1, "B"))

    def n_block(n):  # down-move of the pair: C_n and A_{-n-1}
        return _diag2(model.block(n, "C"), model.block(-n - 1, "A"))

    g0 = np.zeros((2 * d, 2 * d), dtype=complex)
    g0[:d, :d] = model.block(0, "B")
    g0[:d, d:] = model.block(-1, "A")
    g0[d:, :d] = model.block(0, "C")
    g0[d:, d:] = model.block(-1, "B")

    affected = {0}
    for s in model.overrides:
        f = s if s >= 0 else -s - 1
        affected.update({max(0, f - 1), f, f + 1})

    a, b, c = (_homogeneous_matrix(model, role) for role in "ABC")
    blocks = {
        "A": Block(_diag2(a, c)),
        "B": Block(_diag2(b, b)),
        "C": Block(_diag2(c, a)),
    }
    overrides = {}
    for site in sorted(affected):
        ov = {"A": Block(m_block(site)), "C": Block(n_block(site))}
        ov["B"] = Block(g0) if site == 0 else Block(g_block(site))
        overrides[site] = ov

    trace_vec = np.concatenate([model.trace_vec, model.trace_vec])
    return QmcModel(
        topology=half_line(),
        mode="abstract",
        blocks=blocks,
        overrides=overrides,
        substochastic=model.substochastic,
        trace_vec=trace_vec,
    )


def unfold_block(block: Array, quadrant: tuple[int, int]) -> Array:
    """Extract one original-lattice quadrant from a folded 2d block.

    Quadrant (a, b) of the folded block (j, i) is the original block from
    site i (b = 1) or -i-1 (b = 2) to site j (a = 1) or -j-1 (a = 2).
    """
    if quadrant not in QUADRANTS:
        raise ValueError(f"bad quadrant {quadrant!r}; use pairs from {{1,2}}^2")
    r, c = QUADRANTS[quadrant]
    d = block.shape[0] // 2
    if block.shape[0] != 2 * d:
        raise ValueError("folded blocks have even dimension")
    return block[r * d : (r + 1) * d, c * d : (c + 1) * d]


def _half_chain(model: QmcModel, blocks: dict, overrides: dict) -> QmcModel:
    if model.topology.kind != LINE:
        raise ValueError("needs a line model")
    return QmcModel(
        topology=half_line(),
        mode=model.mode,
        blocks=blocks,
        overrides=overrides,
        substochastic=True,
        trace_vec=model.trace_vec,
    )


def plus_model(model: QmcModel) -> QmcModel:
    """The upward half-chain (sites 0, 1, 2, ... of a line model)."""
    overrides = {s: dict(ov) for s, ov in model.overrides.items() if s >= 0}
    return _half_chain(model, dict(model.blocks), overrides)


def minus_model(model: QmcModel) -> QmcModel:
    """The downward half-chain, reindexed so original site -n-1 sits at n.

    Moving outward on this chain is the original down-move, so the roles
    of the up and down blocks swap: A'_n = C_{-n-1}, B'_n = B_{-n-1},
    C'_n = A_{-n-1}.
    """
    swap = {"A": "C", "B": "B", "C": "A"}
    overrides = {
        -s - 1: {swap[role]: blk for role, blk in ov.items()}
        for s, ov in model.overrides.items()
        if s < 0
    }
    blocks = {swap[role]: blk for role, blk in model.blocks.items()}
    return _half_chain(model, blocks, overrides)


def km_on_line(model: QmcModel, j: int, i: int, n: int) -> Array:
    """n-step block (j, i) of a line chain through the spectral sum of its
    folded truncation.

    Requires the line chain to admit a symmetrizer.  The folded chain is
    truncated to the sites 0..h with h = max(fi, fj, (fi + fj + n) // 2),
    fi and fj the folded indices of i and j.  A folded step moves the
    folded index by at most one (the 0 <-> -1 move stays at folded site
    0), so an n-step path from fi to fj that climbs to m takes at least
    (m - fi) + (m - fj) steps and never rises above (fi + fj + n) / 2.
    Block (fj, fi) of the n-th power is therefore the same for every
    truncation at h or deeper, and h is the smallest such window that
    holds both sites: the finite spectral sum of the truncation is exact.
    The discrete weight of that truncation is computed and the two-sided
    families are summed over all four weight quadrants.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    fj = j if j >= 0 else -j - 1
    fi = i if i >= 0 else -i - 1
    window = max(fi, fj, (fi + fj + n) // 2)
    sym = find_symmetrizer(model, window + 1)
    if not sym.success:
        raise ValueError(
            f"line chain is not symmetrizable (site {sym.fail_index}: {sym.reason})"
        )
    weights = folded_discrete_weight(model, window, sym=sym)
    # both families in one run, so the four weight quadrants come at once:
    # [Q^1; Q^2]* W [Q^1; Q^2]
    q = PolyFamily(model)._line((1, 2), weights.nodes(), min(i, j), max(i, j))
    return np.linalg.solve(sym.pi[j], weights.moment(n, q[j], q[i]))


def folded_discrete_weight(
    model: QmcModel, window: int, *, sym: Symmetrizer | None = None
) -> DiscreteWeight:
    """Discrete spectral block family of a line chain's folded truncation.

    The corner residues of the folded truncation are the weights scaled by
    the inverse folded anchor diag(pi_0, pi_-1); restoring the anchor
    yields the Hermitian family whose off-diagonal quadrants are mutual
    adjoints and against which the two-sided families are orthogonal.
    """
    if sym is None:
        sym = find_symmetrizer(model, window + 1)
    seg = segment_window(fold_model(model), 0, window)
    raw = finite_spectrum_weights(seg)
    anchor = _diag2(sym.pi[0], sym.pi[-1])
    points = tuple(
        WeightPoint(p.node, p.multiplicity, anchor @ p.weight)
        for p in raw.points
    )
    return DiscreteWeight(points)


class FoldedTransformEvaluator(StieltjesEvaluator):
    """Return-transform evaluator for site 0 or -1 of a line chain,
    assembled on demand from the two half-chain evaluators.

    By default each half takes the automatic route of
    :func:`~qmcspectra.spectral.transform_evaluator`, the exact
    :class:`~qmcspectra.spectral.SiteStieltjes` at its site 0 (original
    site 0 or -1)."""

    method = "folded"

    def __init__(self, model: QmcModel, site: int, *,
                 plus: StieltjesEvaluator | None = None,
                 minus: StieltjesEvaluator | None = None):
        if site not in (0, -1):
            raise ValueError("folded transforms are anchored at sites 0 and -1")
        self.model = model
        self.site = site
        self.plus = plus or transform_evaluator(plus_model(model), "auto")
        self.minus = minus or transform_evaluator(minus_model(model), "auto")

    def evaluate(self, z: complex) -> EvalResult:
        """Split-identity value at z.  With Xp and Xm the values of the
        plus and minus evaluators, weight normalizations included, the
        transform products at sites 0 and -1 are

            P11 = Xp (I - A_{-1} Xm C_0 Xp)^{-1}
            P22 = Xm (I - C_0 Xp A_{-1} Xm)^{-1}

        Operator order is load-bearing: P22 is P11 with the two halves,
        and A_{-1} with C_0, exchanged."""
        rp, rm = self.plus.evaluate(z), self.minus.evaluate(z)
        x, y = rp.value, rm.value
        a, c = self.model.block(-1, "A"), self.model.block(0, "C")
        if self.site == -1:
            x, y, a, c = y, x, c, a
        mid = np.eye(x.shape[0], dtype=complex) - a @ y @ c @ x
        try:
            value = np.linalg.solve(mid.T, x.T).T
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular middle factor at z={z}") from exc
        return EvalResult(value, rp.residual + rm.residual, self.method)


def classify_recurrence_on_line(model: QmcModel, site: int, rho) -> Classification:
    """Recurrence/transience of any site of a line chain.

    The return transform is the exact diagonal block of
    :class:`~qmcspectra.spectral.SiteStieltjes`, as in
    :func:`~qmcspectra.statistics.classify_recurrence`.  At sites 0 and
    -1 the split identities of :class:`FoldedTransformEvaluator` give the
    same values and serve as its cross-check.
    """
    if model.topology.kind != LINE:
        raise ValueError("needs a line model")
    return classify_recurrence(model, site, rho)
