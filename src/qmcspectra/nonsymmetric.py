"""Semi-orthogonal spectral machinery for chains without a symmetrizer.

When the Hermitian-product certificates fail, a weight family with
possibly complex nodes and non-Hermitian weights still exists, and the
polynomials are one-sidedly orthogonal against it: sum_k l_k^i W_k Q_j
vanishes for i < j.  That suffices for a row-0 spectral formula and for
recurrence classification of homogeneous chains through the homogeneous
transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import Block, QmcModel, half_line, line
from .folding import FoldedTransformEvaluator
from .polynomials import PolyFamily
from .quantum_core import Array, trace_functional
from .spectral import DiscreteWeight, HomogeneousStieltjes, finite_spectrum_weights
from .statistics import Classification, classify, classify_recurrence, trace_action

TOL_SEMI = 1e-8


@dataclass(frozen=True)
class SemiOrthogonalSystem:
    """Discrete weight family of a finite chain, whose polynomials are
    one-sidedly orthogonal against it.

    The contract is that the residuals of :func:`semiorth_residual`
    vanish for i < j.  ``gram(i, j, n)`` exposes the two-sided star
    products, which do not vanish in general (full orthogonality fails
    for these chains, which is exactly why the two-index spectral formula
    breaks down).
    """

    model: QmcModel
    weight: DiscreteWeight

    @property
    def max_index(self) -> int:
        return self.model.topology.num_sites - 1

    def gram(self, i: int, j: int, n: int = 0) -> Array:
        """sum_k l_k^n Q_i*(l_k) W_k Q_j(l_k)."""
        q = PolyFamily(self.model).main(self.weight.nodes(), max(i, j, 1))
        return self.weight.moment(n, q[i], q[j])


def nonsym_finite_weights(model: QmcModel) -> SemiOrthogonalSystem:
    """Weight family of a finite chain by corner residues, complex nodes
    allowed."""
    return SemiOrthogonalSystem(model, finite_spectrum_weights(model))


def semiorth_residual(system: SemiOrthogonalSystem, i: int, j: int) -> float:
    """|| sum_k l_k^i W_k Q_j(l_k) ||; below tol for i < j, unconstrained
    otherwise."""
    weight = system.weight
    q = PolyFamily(system.model).main(weight.nodes(), max(j, 1))[j]
    return float(np.linalg.norm(weight.moment(i, right=q), 2))


def km_row0(system: SemiOrthogonalSystem, i: int, n: int) -> Array:
    """Row-0 spectral formula: the n-step block from site i to site 0 as
    (sum_k W_k)^{-1} sum_k l_k^n W_k Q_i(l_k).

    Zero for n < i by nearest-neighbor locality; agrees with the direct
    power of the assembled chain for every n."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    if not system.model.topology.contains(i):
        raise ValueError(f"site {i} outside topology")
    weight = system.weight
    q = PolyFamily(system.model).main(weight.nodes(), max(i, 1))[i]
    return np.linalg.solve(weight.total(), weight.moment(n, right=q))


def km_row0_probability(system: SemiOrthogonalSystem, i: int, n: int, rho) -> float:
    model = system.model
    block = km_row0(system, i, n)
    return trace_action(model, block, model.state_vec(rho))


def classify_recurrence_homogeneous(
    a: Array,
    b: Array,
    c: Array,
    rho,
    *,
    corner_b: Array | None = None,
    corner_a: Array | None = None,
    on_line: bool = False,
    trace_vec: Array | None = None,
) -> Classification:
    """Recurrence of the origin of a homogeneous chain from its transform.

    Half-line chains are the half-line model of the blocks, optionally
    with corner blocks (corner_b at (0,0), corner_a the up block of site
    0) as its site-0 override, classified by ``classify_recurrence`` on
    the exact renewal route.  Line chains use the documented homogeneous
    criterion, which composes the upward transform with itself: trace of
    X (I - A X C X)^{-1}.

    Note: for line chains whose up and down blocks do not commute, the
    documented criterion differs from the direct return series, whose
    exact value needs the downward transform in the middle slot (see the
    split identities in the folding module).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = a.shape[0]
    if trace_vec is None:
        trace_vec = trace_functional(d, "compact" if d == 3 else "full")
    rho_vec = np.asarray(rho, dtype=complex).reshape(-1)
    # Block freezes its matrix, so each gets a copy of the caller's array
    if on_line:
        # the p11 split identity with the upward transform in both halves
        # is the documented criterion X (I - A X C X)^{-1}; it reads only
        # A_{-1} and C_0 of the line model
        homogeneous_line = QmcModel(
            topology=line(), mode="abstract",
            blocks={"A": Block(a.copy()), "C": Block(c.copy())},
        )
        base = HomogeneousStieltjes(a, b, c)
        evaluator = FoldedTransformEvaluator(homogeneous_line, 0, plus=base, minus=base)
        return classify(evaluator, trace_vec, rho_vec)
    corner = {
        role: Block(np.array(blk, dtype=complex))
        for role, blk in (("B", corner_b), ("A", corner_a))
        if blk is not None
    }
    chain = QmcModel(
        topology=half_line(), mode="abstract",
        blocks={"A": Block(a.copy()), "B": Block(b.copy()), "C": Block(c.copy())},
        overrides={0: corner} if corner else {},
        trace_vec=trace_vec,
    )
    return classify_recurrence(chain, 0, rho_vec)
