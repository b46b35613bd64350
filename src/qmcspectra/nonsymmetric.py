"""Semi-orthogonal spectral machinery for chains without a symmetrizer.

When the Hermitian-product certificates fail, a weight family with
possibly complex nodes and non-Hermitian weights still exists, and the
polynomials are one-sidedly orthogonal against it: sum_k l_k^i W_k Q_j
vanishes for i < j.  That suffices for a row-0 spectral formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import QmcModel
from .polynomials import PolyFamily
from .quantum_core import Array
from .spectral import DiscreteWeight, finite_spectrum_weights
from .statistics import trace_action


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
        q = PolyFamily(self.model).main(self.weight.nodes(), max(i, j))
        return self.weight.moment(n, q[i], q[j])


def nonsym_finite_weights(model: QmcModel) -> SemiOrthogonalSystem:
    """Weight family of a finite chain by corner residues, complex nodes
    allowed."""
    return SemiOrthogonalSystem(model, finite_spectrum_weights(model))


def semiorth_residual(system: SemiOrthogonalSystem, i: int, j: int) -> float:
    """|| sum_k l_k^i W_k Q_j(l_k) ||; below tol for i < j, unconstrained
    otherwise."""
    weight = system.weight
    q = PolyFamily(system.model).main(weight.nodes(), j)[j]
    return float(np.linalg.norm(weight.moment(i, right=q), 2))


def km_row0(system: SemiOrthogonalSystem, i: int, n: int) -> Array:
    """Row-0 spectral formula: the n-step block from site i to site 0 as
    (sum_k W_k)^{-1} sum_k l_k^n W_k Q_i(l_k).

    Zero for n < i by nearest-neighbor locality; agrees with the direct
    power of the assembled chain for every n, unless a defective eigenvalue
    reaches the corner: the weights are residues, so the sum then gives the
    power of the chain's diagonalizable part (:meth:`DiscreteWeight.moment`)."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    if not system.model.topology.contains(i):
        raise ValueError(f"site {i} outside topology")
    weight = system.weight
    q = PolyFamily(system.model).main(weight.nodes(), i)[i]
    return np.linalg.solve(weight.total(), weight.moment(n, right=q))


def km_row0_probability(system: SemiOrthogonalSystem, i: int, n: int, rho) -> float:
    model = system.model
    block = km_row0(system, i, n)
    return trace_action(model, block, model.state_vec(rho))
