"""Dense complex matrix utilities for quantum Markov chains.

Row-major vectorization, conjugation superoperators ``B @ X @ B*  <->
(B (x) conj(B)) vec(X)``, the 3-parameter compact form of real one-qubit
conjugations, and trace-preservation checks for column families of Kraus
maps.  All functions are pure and all containers are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Numerical tolerances.  The underlying algebra is exact; doubles need
# explicit slack.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_TP = 1e-10
TOL_PSD = 1e-10

Array = np.ndarray


def as_matrix(a, name: str = "matrix") -> Array:
    """Coerce to a complex 2-D array and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> Array:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def vec(a: Array) -> Array:
    """Stack the rows of a square matrix into a column vector.

    ``vec([[a, b], [c, d]]) == (a, b, c, d)``.
    """
    m = as_square(a, "vec argument")
    return m.reshape(-1)


def unvec(v) -> Array:
    """Inverse of :func:`vec`; the length must be a perfect square."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    n = round(len(w) ** 0.5)
    if n * n != len(w):
        raise ValueError(f"unvec needs a perfect-square length, got {len(w)}")
    return w.reshape(n, n)


def conj_rep(b: Array) -> Array:
    """Superoperator matrix of ``X -> B X B*`` under row-major vec.

    Returns the Kronecker product of ``B`` with its entrywise conjugate,
    so that ``conj_rep(B) @ vec(X) == vec(B @ X @ B.conj().T)``.
    """
    m = as_square(b, "conj_rep argument")
    return np.kron(m, m.conj())


@dataclass(frozen=True)
class KrausMap:
    """A completely positive map given by a list of square effect matrices."""

    effects: tuple[Array, ...]

    def __init__(self, effects) -> None:
        eff = tuple(as_square(e, "effect") for e in effects)
        if not eff:
            raise ValueError("KrausMap needs at least one effect")
        dim = eff[0].shape[0]
        for e in eff:
            if e.shape[0] != dim:
                raise ValueError("all effects must share one dimension")
        for e in eff:
            e.setflags(write=False)
        object.__setattr__(self, "effects", eff)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def apply(self, rho: Array) -> Array:
        """Direct action ``sum_i K_i rho K_i*``."""
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for k in self.effects:
            out += k @ rho @ k.conj().T
        return out


def superop_of(kraus: KrausMap | list | tuple) -> Array:
    """Matrix representation ``sum_i conj_rep(K_i)`` of a Kraus map."""
    effects = kraus.effects if isinstance(kraus, KrausMap) else tuple(kraus)
    if len(effects) == 0:
        raise ValueError("empty effect list")
    out = conj_rep(effects[0])
    for k in effects[1:]:
        out = out + conj_rep(k)
    return out


def compact_form(m) -> Array:
    """3x3 compact form of the conjugation induced by a real 2x2 matrix.

    Acting on real symmetric ``rho = [[x, y], [y, z]]`` represented as
    ``(x, y, z)``, the compact form reproduces ``conj_rep(m) @ vec(rho)``.
    It is multiplicative: ``compact_form(M @ R) == compact_form(M) @
    compact_form(R)``.  Only the real 2x2 case is supported.
    """
    a = as_square(m, "compact_form argument")
    if a.shape != (2, 2):
        raise ValueError("compact form is defined for 2x2 matrices only")
    if np.max(np.abs(a.imag)) > 0.0:
        raise ValueError("compact form requires real entries")
    full = conj_rep(a).real
    return np.array(
        [
            [full[0, 0], 2.0 * full[0, 1], full[0, 3]],
            [full[1, 0], full[1, 1] + full[1, 2], full[1, 3]],
            [full[3, 0], 2.0 * full[3, 1], full[3, 3]],
        ]
    )


def compact_vec(rho) -> Array:
    """Represent a real symmetric 2x2 matrix as its compact 3-vector."""
    m = as_square(rho, "compact_vec argument")
    if m.shape != (2, 2):
        raise ValueError("compact vectors represent 2x2 matrices only")
    if np.max(np.abs(m.imag)) > TOL_HERM or abs(m[0, 1] - m[1, 0]) > TOL_HERM:
        raise ValueError("compact vectors require a real symmetric matrix")
    return np.array([m[0, 0].real, m[0, 1].real, m[1, 1].real], dtype=complex)


def compact_unvec(v) -> Array:
    """Inverse of :func:`compact_vec`."""
    w = np.asarray(v).reshape(-1)
    if len(w) != 3:
        raise ValueError("compact vectors have length 3")
    return np.array([[w[0], w[1]], [w[1], w[2]]])


def trace_functional(block_dim: int, mode: str) -> Array:
    """Row vector t with t @ v = Tr(state) for the given representation."""
    if mode == "compact":
        if block_dim != 3:
            raise ValueError("compact mode uses 3-dimensional blocks")
        return np.array([1.0, 0.0, 1.0], dtype=complex)
    n = round(block_dim**0.5)
    if n * n != block_dim:
        raise ValueError(f"block dimension {block_dim} is not a perfect square")
    return vec(np.eye(n))


def check_tp_column(maps) -> tuple[bool, float]:
    """Check that the effects of a column family sum to the identity.

    ``maps`` is an iterable of :class:`KrausMap` (or bare effect lists)
    forming one column of a chain.  Returns ``(is_tp, defect)`` where the
    defect is ``|| sum K* K - I ||`` in operator 2-norm.
    """
    acc = None
    for m in maps:
        effects = m.effects if isinstance(m, KrausMap) else m
        for k in effects:
            k = as_square(k, "effect")
            term = k.conj().T @ k
            acc = term if acc is None else acc + term
    if acc is None:
        raise ValueError("no maps supplied")
    defect = float(np.linalg.norm(acc - np.eye(acc.shape[0]), 2))
    return defect <= TOL_TP, defect


def is_hermitian(m: Array) -> bool:
    m = np.asarray(m)
    scale = max(1.0, np.linalg.norm(m, 2))
    return float(np.linalg.norm(m - m.conj().T, 2)) <= TOL_HERM * scale


def hermitian_part(m: Array) -> Array:
    return 0.5 * (m + np.asarray(m).conj().T)


def min_eigenvalue(m: Array) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh(hermitian_part(m)).min())


@dataclass(frozen=True)
class Density:
    """A validated density matrix: Hermitian, PSD and unit trace."""

    matrix: Array

    def __init__(self, matrix) -> None:
        m = as_square(matrix, "density")
        if not is_hermitian(m):
            raise ValueError("density is not Hermitian within tolerance")
        if min_eigenvalue(m) < -TOL_PSD:
            raise ValueError("density has an eigenvalue below -TOL_PSD")
        if abs(np.trace(m) - 1.0) > TOL_TRACE:
            raise ValueError("density trace differs from 1 beyond tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
