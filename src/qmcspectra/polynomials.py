"""Matrix-valued polynomial families generated by the three-term block
recurrence of a chain.

Row convention: x Q_n(x) = Q_{n+1}(x) A_n + Q_n(x) B_n + Q_{n-1}(x) C_n,
so the polynomials multiply the block matrix from the left.  Four families
are provided: the main family (Q_0 = I), the k-th associated family, the
two-sided pair on the integer line, and the doubled-dimension family of a
folded line chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import LINE, QmcModel
from .quantum_core import Array

MAX_CONDITION = 1e12


def _solve_right(num: Array, mat: Array, index: int, direction: str) -> Array:
    """num @ mat^{-1} with a condition guard naming the offending block;
    ``num`` may be a stack of blocks sharing the pivot ``mat``."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise np.linalg.LinAlgError(
            f"{direction} recurrence pivot at site {index} is singular "
            f"(cond {cond:.3e})"
        )
    return np.linalg.solve(mat.T, num.swapaxes(-1, -2)).swapaxes(-1, -2)


def _check_range(n_lo: int, n_hi: int) -> None:
    if n_lo > n_hi:
        raise ValueError(f"empty index range: {n_lo} > {n_hi}")


@dataclass(frozen=True)
class PolyFamily:
    """Evaluator for the polynomial families attached to one model."""

    model: QmcModel

    def _abc(self, n: int):
        m = self.model
        return m.block(n, "A"), m.block(n, "B"), m.block(n, "C")

    def main(self, x: complex | Array, n_max: int) -> list[Array]:
        """Q_0(x) .. Q_{n_max}(x) by the forward recurrence.

        ``x`` is one point or a 1-D array of points; for an array every
        Q_n is the stack of shape (len(x), d, d), and each pivot A_n is
        checked and used once for all points."""
        _check_range(0, n_max)
        d = self.model.block_dim
        x = np.asarray(x)
        shape = x.shape + (d, d)
        x = x[..., None, None]
        out = [np.broadcast_to(np.eye(d, dtype=complex), shape).copy()]
        prev = np.zeros(shape, dtype=complex)
        for n in range(n_max):
            a, b, c = self._abc(n)
            num = x * out[-1] - out[-1] @ b - prev @ c
            prev = out[-1]
            out.append(_solve_right(num, a, n, "forward"))
        return out

    def associated(self, k: int, x: complex, n_max: int) -> list[Array]:
        """The k-th associated family; zero up to index k, then degree
        n - k - 1."""
        if k < 0:
            raise ValueError(f"associated index k must be nonnegative, not {k}")
        _check_range(0, n_max)
        d = self.model.block_dim
        eye = np.eye(d, dtype=complex)
        zero = np.zeros((d, d), dtype=complex)
        out = [zero.copy() for _ in range(min(k, n_max) + 1)]
        if n_max <= k:
            return out
        a_k = self.model.block(k, "A")
        out.append(_solve_right(-eye, a_k, k, "forward"))
        for n in range(k + 1, n_max):
            a, b, c = self._abc(n)
            num = x * out[n] - out[n] @ b - out[n - 1] @ c
            out.append(_solve_right(num, a, n, "forward"))
        return out

    def two_sided(
        self, alpha: int, x: complex | Array, n_lo: int, n_hi: int
    ) -> dict[int, Array]:
        """The pair of line families, indexed by alpha in {1, 2}.

        Family 1 starts from Q_0 = I, Q_{-1} = 0; family 2 from Q_0 = 0,
        Q_{-1} = I.  Forward steps invert A_n, backward steps invert C_n.
        ``x`` is one point or a 1-D array of points, as in :meth:`main`;
        for an array every Q_n is a (len(x), d, d) stack.
        """
        if self.model.topology.kind != LINE:
            raise ValueError("two-sided families need a line model")
        if alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")
        _check_range(n_lo, n_hi)
        d = self.model.block_dim
        x = np.asarray(x)
        shape = x.shape + (d, d)
        x = x[..., None, None]
        eye = np.broadcast_to(np.eye(d, dtype=complex), shape).copy()
        zero = np.zeros(shape, dtype=complex)
        table: dict[int, Array] = {}
        table[0] = eye if alpha == 1 else zero
        table[-1] = zero if alpha == 1 else eye
        for n in range(0, n_hi):
            a, b, c = self._abc(n)
            num = x * table[n] - table[n] @ b - table[n - 1] @ c
            table[n + 1] = _solve_right(num, a, n, "forward")
        for n in range(-1, n_lo, -1):
            a, b, c = self._abc(n)
            num = x * table[n] - table[n + 1] @ a - table[n] @ b
            table[n - 1] = _solve_right(num, c, n, "backward")
        return {n: table[n] for n in range(n_lo, n_hi + 1)}

    def folded(self, x: complex, n_max: int) -> list[Array]:
        """Doubled-dimension family [[Q_n^1, Q_{-n-1}^1], [Q_n^2, Q_{-n-1}^2]];
        a negative ``n_max`` empties the two-sided range and raises there."""
        q1 = self.two_sided(1, x, -n_max - 1, n_max)
        q2 = self.two_sided(2, x, -n_max - 1, n_max)
        out = []
        for n in range(n_max + 1):
            top = np.hstack([q1[n], q1[-n - 1]])
            bot = np.hstack([q2[n], q2[-n - 1]])
            out.append(np.vstack([top, bot]))
        return out


def recurrence_residual(model: QmcModel, values: dict[int, Array], x: complex) -> float:
    """Max norm of x Q_n - (Q_{n+1} A_n + Q_n B_n + Q_{n-1} C_n) over the
    interior indices of a computed table."""
    worst = 0.0
    for n in values:
        if n + 1 not in values or n - 1 not in values:
            continue
        a, b, c = model.block(n, "A"), model.block(n, "B"), model.block(n, "C")
        res = x * values[n] - values[n + 1] @ a - values[n] @ b - values[n - 1] @ c
        worst = max(worst, float(np.linalg.norm(res)))
    return worst
