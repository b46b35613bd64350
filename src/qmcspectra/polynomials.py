"""Matrix-valued polynomial families generated by the three-term block
recurrence of a chain.

Row convention: x Q_n(x) = Q_{n+1}(x) A_n + Q_n(x) B_n + Q_{n-1}(x) C_n,
so the polynomials multiply the block matrix from the left.  Four families
are provided, each as the initial data of one recurrence run: the main
family (Q_0 = I), the k-th associated family, the two-sided pair on the
integer line, and the doubled-dimension family of a folded line chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import LINE, QmcModel, _block_product
from .quantum_core import Array

MAX_CONDITION = 1e12


def _solve_right(num: Array, mat: Array, index: int, direction: str) -> Array:
    """num @ mat^{-1} with a condition guard naming the offending block;
    ``num`` may be a stack of blocks sharing the pivot ``mat``, factored
    once: the stack's rows are the right-hand sides of one solve."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise np.linalg.LinAlgError(
            f"{direction} recurrence pivot at site {index} is singular "
            f"(cond {cond:.3e})"
        )
    return np.linalg.solve(mat.T, num.reshape(-1, mat.shape[0]).T).T.reshape(num.shape)


def _check_range(n_lo: int, n_hi: int) -> None:
    if n_lo > n_hi:
        raise ValueError(f"empty index range: {n_lo} > {n_hi}")


@dataclass(frozen=True)
class PolyFamily:
    """Evaluator for the polynomial families attached to one model.

    Every family is initial data of one recurrence run.  ``x`` is one
    point or a 1-D array of points; for an array every Q_n is stacked over
    the points, and each pivot is checked and used once for all of them.
    """

    model: QmcModel

    def _start(self, x) -> tuple[Array, Array, Array]:
        """``x`` shaped to scale blocks, and I and 0 stacked over it."""
        d = self.model.block_dim
        x = np.asarray(x)
        shape = x.shape + (d, d)
        eye = np.broadcast_to(np.eye(d, dtype=complex), shape).copy()
        return x[..., None, None], eye, np.zeros(shape, dtype=complex)

    def _check_last(self, n: int) -> None:
        last = self.model.topology.hi
        if last is not None and n > last:
            raise ValueError(f"index {n} lies past the last site {last}")

    def _run(self, x, prev, cur, start, n_lo, n_hi) -> dict[int, Array]:
        """Q_{n_lo} .. Q_{n_hi} from Q_{start-1} = prev, Q_start = cur;
        forward steps invert A_n, backward steps invert C_n."""
        self._check_last(n_hi)
        table = {start - 1: prev, start: cur}
        for n in range(start, n_hi):
            a, b, c = (self.model.block(n, k) for k in "ABC")
            num = (x * table[n] - _block_product(None, table[n], b)
                   - _block_product(None, table[n - 1], c))
            table[n + 1] = _solve_right(num, a, n, "forward")
        for n in range(start - 1, n_lo, -1):
            a, b, c = (self.model.block(n, k) for k in "ABC")
            num = (x * table[n] - _block_product(None, table[n + 1], a)
                   - _block_product(None, table[n], b))
            table[n - 1] = _solve_right(num, c, n, "backward")
        return {n: table[n] for n in range(n_lo, n_hi + 1)}

    def main(self, x: complex | Array, n_max: int) -> list[Array]:
        """Q_0(x) .. Q_{n_max}(x) from Q_{-1} = 0, Q_0 = I."""
        _check_range(0, n_max)
        x, eye, zero = self._start(x)
        return list(self._run(x, zero, eye, 0, 0, n_max).values())

    def associated(self, k: int, x: complex, n_max: int) -> list[Array]:
        """The k-th associated family; zero up to index k, then degree
        n - k - 1 from Q_{k+1} = -A_k^{-1}."""
        if k < 0:
            raise ValueError(f"associated index k must be nonnegative, not {k}")
        _check_range(0, n_max)
        self._check_last(max(k, n_max))
        x, eye, zero = self._start(x)
        out = [zero.copy() for _ in range(min(k, n_max) + 1)]
        if n_max <= k:
            return out
        first = _solve_right(-eye, self.model.block(k, "A"), k, "forward")
        return out + list(self._run(x, zero, first, k + 1, k + 1, n_max).values())

    def _line(self, alphas, x, n_lo: int, n_hi: int) -> dict[int, Array]:
        """The line families ``alphas``, stacked in the rows of every Q_n."""
        if self.model.topology.kind != LINE:
            raise ValueError("two-sided families need a line model")
        if any(alpha not in (1, 2) for alpha in alphas):
            raise ValueError("alpha must be 1 or 2")
        _check_range(n_lo, n_hi)
        x, eye, zero = self._start(x)
        prev = np.concatenate([zero if a == 1 else eye for a in alphas], axis=-2)
        cur = np.concatenate([eye if a == 1 else zero for a in alphas], axis=-2)
        return self._run(x, prev, cur, 0, n_lo, n_hi)

    def two_sided(
        self, alpha: int, x: complex | Array, n_lo: int, n_hi: int
    ) -> dict[int, Array]:
        """Line family ``alpha`` in {1, 2} at the indices n_lo .. n_hi.

        Family 1 starts from Q_0 = I, Q_{-1} = 0; family 2 from Q_0 = 0,
        Q_{-1} = I."""
        return self._line((alpha,), x, n_lo, n_hi)

    def folded(self, x: complex, n_max: int) -> list[Array]:
        """Doubled-dimension family [[Q_n^1, Q_{-n-1}^1], [Q_n^2, Q_{-n-1}^2]];
        a negative ``n_max`` empties the two-sided range and raises there."""
        pair = self._line((1, 2), x, -n_max - 1, n_max)
        return [np.concatenate([pair[n], pair[-n - 1]], axis=-1) for n in range(n_max + 1)]


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
