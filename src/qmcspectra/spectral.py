"""Symmetrizers, finite spectral weights, and Stieltjes transforms.

The Stieltjes transform of the weight family attached to a chain is
evaluated exactly by :class:`SiteStieltjes` at any site of a segment,
half-line or line chain that is homogeneous outside finitely many sites:
the homogeneous fixed point closes each unbounded side and one
block-Schur sweep covers the rest.  Truncated corner resolvents, the bare
fixed point, corner perturbations of a homogeneous interior and the split
identities of folded line chains remain as independent cross-checks.
Every evaluator reports the residual of its defining equation alongside
the value.  :func:`transform_evaluator` holds the one route policy; the
CLI and the half-chains of a folded line chain both take their
evaluators from it.

Normalization: evaluators return corner resolvents ((z I - Phi)^{-1})_{00},
which equal the transform with the weight normalization folded in (the
products written "Pi0 B(z; W)").  With the standard normalization Pi0 = I
this is the transform itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import (
    HALF_LINE,
    LINE,
    ROLES,
    SEGMENT,
    QmcModel,
    _homogeneous_matrix,
    block_table,
    corner_resolvent,
    schur_sweep,
    truncate,
)
from .quantum_core import TOL_HERM, Array, hermitian_part

TOL_SYM = 1e-9
TOL_GROUP = 1e-8
RESIDUE_POINTS = 64


class SpectralError(RuntimeError):
    pass


class ConvergenceError(SpectralError):
    """Raised when an evaluator cannot meet its residual tolerance; carries
    the last iterate."""

    def __init__(self, message: str, value=None, residual=None):
        super().__init__(message)
        self.value = value
        self.residual = residual


# ---------------------------------------------------------------------
# Symmetrizer search
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Symmetrizer:
    """Sequence certificates for the existence of a positive weight family.

    pi[n] are the Hermitian positive products, r[n] their Cholesky factors
    (pi = r* r), and e[n] = r B r^{-1} the Hermitian witnesses.  On failure
    ``fail_index`` names the first site whose certificate breaks and
    ``defect`` quantifies the violation.
    """

    pi: dict
    r: dict
    e: dict
    success: bool
    fail_index: int | None = None
    defect: float | None = None
    reason: str = ""


def _cholesky_factor(pi: Array, tol_herm: float) -> Array | None:
    anti = float(np.linalg.norm(pi - pi.conj().T, 2))
    scale = max(1.0, float(np.linalg.norm(pi, 2)))
    if anti > tol_herm * scale:
        return None
    sym = hermitian_part(pi)
    try:
        low = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return None
    return low.conj().T


def find_symmetrizer(
    model: QmcModel,
    n_max: int,
    *,
    tol_sym: float = TOL_SYM,
    tol_herm: float = TOL_HERM,
) -> Symmetrizer:
    """Search for the product sequence certifying a positive weight family.

    pi[0] = I and pi[n+1] = (A_n*)^{-1} pi[n] C_{n+1}.  On line models the
    negative side is anchored through pi[-1] C_0 = A_{-1}* pi[0] and
    continued downward.  Success requires every pi[n] Hermitian positive
    definite and every r B r^{-1} Hermitian.
    """
    d = model.block_dim
    pi: dict[int, Array] = {0: np.eye(d, dtype=complex)}
    r: dict[int, Array] = {}
    e: dict[int, Array] = {}
    sites = [0]
    topo = model.topology
    hi = n_max if topo.hi is None else min(n_max, topo.hi)
    for n in range(1, hi + 1):
        a = model.block(n - 1, "A")
        c = model.block(n, "C")
        try:
            pi[n] = np.linalg.solve(a.conj().T, pi[n - 1] @ c)
        except np.linalg.LinAlgError as exc:
            raise SpectralError(f"singular block product at site {n}") from exc
        sites.append(n)
    if topo.kind == LINE:
        for n in range(0, n_max):
            a = model.block(-n - 1, "A")
            c = model.block(-n, "C")
            try:
                pi[-n - 1] = np.linalg.solve(c.T, (a.conj().T @ pi[-n]).T).T
            except np.linalg.LinAlgError as exc:
                raise SpectralError(f"singular block product at site {-n-1}") from exc
            sites.append(-n - 1)

    for n in sorted(sites, key=abs):
        factor = _cholesky_factor(pi[n], tol_herm)
        if factor is None:
            defect = float(np.linalg.norm(pi[n] - pi[n].conj().T, 2))
            if defect <= tol_herm * max(1.0, float(np.linalg.norm(pi[n], 2))):
                defect = float(-np.linalg.eigvalsh(hermitian_part(pi[n])).min())
                reason = f"pi[{n}] is not positive definite"
            else:
                reason = f"pi[{n}] is not Hermitian"
            return Symmetrizer(pi, r, e, False, n, defect, reason)
        r[n] = factor
        b = model.block(n, "B")
        witness = factor @ b @ np.linalg.inv(factor)
        herm_defect = float(np.linalg.norm(witness - witness.conj().T, 2))
        scale = max(1.0, float(np.linalg.norm(witness, 2)))
        if herm_defect > tol_sym * scale:
            return Symmetrizer(
                pi, r, e, False, n, herm_defect,
                f"r B r^{{-1}} at site {n} is not Hermitian",
            )
        e[n] = witness
    return Symmetrizer(pi, r, e, True)


# ---------------------------------------------------------------------
# Finite spectra and residue weights
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class WeightPoint:
    node: complex
    multiplicity: int
    weight: Array


@dataclass(frozen=True)
class DiscreteWeight:
    points: tuple[WeightPoint, ...]

    def nodes(self) -> Array:
        return np.array([p.node for p in self.points])

    def weights(self) -> Array:
        """The weights stacked in node order, shape (nodes, d, d)."""
        return np.array([p.weight for p in self.points])

    def total(self) -> Array:
        return sum(p.weight for p in self.points)

    def moment(self, n: int) -> Array:
        return sum((p.node**n) * p.weight for p in self.points)


def _cluster_eigenvalues(ev: Array, tol: float) -> list[list[int]]:
    """Connected components of |ev_i - ev_j| <= tol."""
    order = np.lexsort((ev.imag, ev.real))
    groups: list[list[int]] = []
    used = np.zeros(len(ev), dtype=bool)
    for idx in order:
        if used[idx]:
            continue
        stack = [idx]
        comp = []
        used[idx] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            close = np.where(~used & (np.abs(ev - ev[k]) <= tol))[0]
            for m in close:
                used[m] = True
                stack.append(m)
        groups.append(comp)
    return groups


def finite_spectrum_weights(
    model: QmcModel,
    *,
    tol_group: float = TOL_GROUP,
    quad_points: int = RESIDUE_POINTS,
) -> DiscreteWeight:
    """Eigenvalue nodes of a finite chain with matrix weights by residues.

    The weight of a node is the residue of z -> ((z I - Phi)^{-1})_{00}
    there, extracted by trapezoid contour quadrature on a small circle
    (radius min(1e-4, gap/10)); this handles simple and double poles
    uniformly.  Each cluster makes one ``corner_resolvent`` call with
    its ``quad_points`` contour points stacked, a (quad_points, d, d)
    array of corner blocks from one backward Schur sweep.  The weights
    always sum to the identity, the n = 0 moment of the corner block.
    """
    if model.topology.kind != SEGMENT:
        raise ValueError("finite spectra need a segment model")
    trunc = truncate(model, 0, model.topology.num_sites - 1)
    mat = trunc.matrix
    ev = np.linalg.eigvals(mat)
    groups = _cluster_eigenvalues(ev, tol_group)
    centers = np.array([ev[g].mean() for g in groups])
    if len(centers) > 1:
        dist = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(dist, np.inf)
        gaps = dist.min(axis=1)
        worst = float(gaps.min())
        if worst < 10.0 * tol_group:
            raise SpectralError(
                f"eigenvalue clusters only {worst:.3e} apart; grouping is "
                f"ambiguous at tolerance {tol_group:.1e}"
            )
    else:
        gaps = np.array([np.inf])

    depth = trunc.num_sites
    unit = np.exp(2j * np.pi * np.arange(quad_points) / quad_points)
    points = []
    for g, center, gap in zip(groups, centers, gaps):
        radius = min(1e-4, gap / 10.0) if np.isfinite(gap) else 1e-4
        zs = center + radius * unit
        corner = corner_resolvent(model, zs, depth)
        weight = np.einsum("k,kij->ij", zs - center, corner) / quad_points
        node = complex(center)
        if abs(node.imag) <= tol_group:
            node = complex(node.real, 0.0)
        points.append(WeightPoint(node, len(g), weight))
    points.sort(key=lambda p: (p.node.real, p.node.imag))
    return DiscreteWeight(tuple(points))


def double_root_weight(model: QmcModel, node: complex, h: float = 1e-5) -> Array:
    """Derivative-form residue for a double node: the derivative of
    -(node - z)^2 ((Phi - z I)^{-1})_{00} at the node, by central
    difference.  Retained as a cross-check on the contour route."""
    trunc = truncate(model, 0, model.topology.num_sites - 1)
    mat = trunc.matrix
    d = model.block_dim
    S = mat.shape[0]
    rhs = np.zeros((S, d), dtype=complex)
    rhs[:d] = np.eye(d)

    def g(z):
        corner = np.linalg.solve(mat - z * np.eye(S), rhs)[:d]
        return -((node - z) ** 2) * corner

    return (g(node + h) - g(node - h)) / (2.0 * h)


# ---------------------------------------------------------------------
# Stieltjes evaluators
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    value: Array
    residual: float
    method: str
    # warm-start payload for a subsequent evaluation at a nearby z (the
    # interior fixed point for corner evaluators, the value itself for
    # plain fixed-point evaluators, a pair of them for the two closures of
    # a site evaluator or the two halves of a folded line chain)
    state: Array | tuple | None = None

    def warm(self):
        return self.state if self.state is not None else self.value


class StieltjesEvaluator:
    """Callable z -> matrix with a declared method and residual reporting."""

    method = "abstract"
    tolerance = 1e-8

    def evaluate(self, z: complex, x0: Array | None = None) -> EvalResult:
        raise NotImplementedError

    def __call__(self, z: complex) -> Array:
        res = self.evaluate(z)
        if res.residual > self.tolerance:
            raise ConvergenceError(
                f"{self.method} evaluator residual {res.residual:.3e} above "
                f"tolerance {self.tolerance:.1e} at z={z}",
                res.value,
                res.residual,
            )
        return res.value

    def near_axis(self, x: float, delta: float, n_steps: int = 24) -> Array:
        """Boundary value at x + i*delta by continuation from far above the
        axis, passing each converged value down as the next starting point.

        Rungs whose residual misses the tolerance are geometrically
        bisected, which keeps the branch tracking honest across the
        spectral edges."""
        schedule = list(np.geomspace(max(10.0 * delta, 0.5), delta, n_steps))
        val = None
        warm = None
        d_prev = None
        k = 0
        ok_tol = max(self.tolerance, 1e-9)
        while k < len(schedule):
            dk = schedule[k]
            res = self.evaluate(complex(x, dk), x0=warm)
            if res.residual <= ok_tol or d_prev is None:
                val = res.value
                warm = res.warm()
                d_prev = dk
                k += 1
                continue
            if len(schedule) > 500 or d_prev / dk < 1.0 + 1e-9:
                raise ConvergenceError(
                    f"continuation to {x}+{delta}i stalled at height {dk}",
                    res.value,
                    res.residual,
                )
            schedule.insert(k, float(np.sqrt(d_prev * dk)))
        return val


def _warm_ladder(evaluator: StieltjesEvaluator, points):
    """Yield (z, EvalResult) at each point in turn, every evaluation
    warm-started from the previous one's :meth:`EvalResult.warm`.

    The one rung loop of the recurrence ladder, the jump at one and the
    residue probe."""
    warm = None
    for z in points:
        res = evaluator.evaluate(z, x0=warm)
        warm = res.warm()
        yield z, res


class TruncatedStieltjes(StieltjesEvaluator):
    """Corner resolvent of an absorbing truncation, window-doubled until
    the value stabilizes."""

    method = "truncated"

    def __init__(self, model: QmcModel, window: int = 800, tolerance: float = 1e-8,
                 max_doublings: int = 3):
        if model.topology.kind == LINE:
            raise ValueError(
                "truncated transforms need a chain bounded from below; fold "
                "line models first"
            )
        self.model = model
        self.window = window
        self.tolerance = tolerance
        self.max_doublings = max_doublings

    def evaluate(self, z: complex, x0: Array | None = None) -> EvalResult:
        topo = self.model.topology
        if topo.kind == SEGMENT:
            depth = topo.num_sites
            value = corner_resolvent(self.model, z, depth)
            return EvalResult(value, 0.0, self.method)
        window = self.window
        prev = corner_resolvent(self.model, z, window)
        residual = np.inf
        for _ in range(max(self.max_doublings, 1)):
            window *= 2
            cur = corner_resolvent(self.model, z, window)
            residual = float(np.linalg.norm(cur - prev, 2))
            prev = cur
            if residual <= self.tolerance:
                return EvalResult(cur, residual, self.method)
        return EvalResult(prev, residual, self.method)


def _quadratic_residual(a, b, c, z, x) -> float:
    try:
        target = np.linalg.solve(z * np.eye(a.shape[0]) - b - c @ x @ a, np.eye(a.shape[0]))
    except np.linalg.LinAlgError:
        return np.inf
    return float(np.linalg.norm(x - target, 2))


class HomogeneousStieltjes(StieltjesEvaluator):
    """Fixed point of X = (z I - B - C X A)^{-1} for a homogeneous
    interior, started from X = I/z, with Newton polishing when plain
    iteration stalls.

    The iteration is a contraction for z outside the support and selects
    the transform of the genuine measure (decaying branch), which is
    cross-validated against truncation in the tests.
    """

    method = "homogeneous_fp"

    def __init__(self, a: Array, b: Array, c: Array, *, fp_tol: float = 1e-12,
                 max_iter: int = 10_000, tolerance: float = 1e-8):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.c = np.asarray(c, dtype=complex)
        self.fp_tol = fp_tol
        self.max_iter = max_iter
        self.tolerance = tolerance

    @classmethod
    def from_model(cls, model: QmcModel, **kw) -> "HomogeneousStieltjes":
        return cls(model.block(1, "A"), model.block(1, "B"), model.block(2, "C"), **kw)

    def _newton(self, z: complex, x: Array, steps: int = 60) -> Array:
        d = self.a.shape[0]
        eye = np.eye(d, dtype=complex)
        for _ in range(steps):
            core = z * eye - self.b - self.c @ x @ self.a
            g = core @ x - eye
            if np.linalg.norm(g, 2) < 1e-14:
                break
            jac = np.kron(core, eye) - np.kron(self.c, (self.a @ x).T)
            try:
                h = np.linalg.solve(jac, -g.reshape(-1)).reshape(d, d)
            except np.linalg.LinAlgError:
                break
            x = x + h
        return x

    def evaluate(self, z: complex, x0: Array | None = None) -> EvalResult:
        d = self.a.shape[0]
        eye = np.eye(d, dtype=complex)
        warm = None
        if x0 is not None:
            # inside the support the genuine branch can repel the plain
            # iteration, so a supplied starting point goes straight to
            # Newton, which tracks the branch regardless of stability
            x = self._newton(z, np.asarray(x0, dtype=complex))
            r = _quadratic_residual(self.a, self.b, self.c, z, x)
            if r <= self.tolerance:
                return EvalResult(x, r, self.method, state=x)
            warm = (x, r)
        x = eye / z
        last_delta = np.inf
        for it in range(self.max_iter):
            try:
                nxt = np.linalg.solve(z * eye - self.b - self.c @ x @ self.a, eye)
            except np.linalg.LinAlgError:
                break  # iteration left its domain; Newton recovers
            last_delta = float(np.linalg.norm(nxt - x, 2))
            x = nxt
            if last_delta < self.fp_tol:
                break
            if it >= 200 and last_delta < 1e-3:
                break
        if last_delta >= self.fp_tol:
            x = self._newton(z, x)
        residual = _quadratic_residual(self.a, self.b, self.c, z, x)
        if warm is not None and warm[1] < residual:
            x, residual = warm
        return EvalResult(x, residual, self.method, state=x)


class CornerStieltjes(StieltjesEvaluator):
    """Transform of a chain whose corner blocks differ from a homogeneous
    interior.

    With corner blocks (b0, a0) and interior down block c, the value is
    (z I - b0 - c X(z) a0)^{-1} where X is the interior evaluator.  When
    only the hold block changes and the interior evaluator is the
    homogeneous fixed point, this coincides with the inverse-difference
    form (X(z)^{-1} - b0)^{-1}, which is used when a0/c are omitted.
    """

    method = "corner"

    def __init__(self, inner: StieltjesEvaluator, b_corner: Array, *,
                 a0: Array | None = None, c: Array | None = None,
                 tolerance: float = 1e-8):
        if (a0 is None) != (c is None):
            raise ValueError("supply both a0 and c, or neither")
        self.inner = inner
        self.b_corner = np.asarray(b_corner, dtype=complex)
        self.a0 = None if a0 is None else np.asarray(a0, dtype=complex)
        self.c = None if c is None else np.asarray(c, dtype=complex)
        self.tolerance = tolerance

    def evaluate(self, z: complex, x0: Array | None = None) -> EvalResult:
        inner = self.inner.evaluate(z, x0=x0)
        d = self.b_corner.shape[0]
        eye = np.eye(d, dtype=complex)
        if self.a0 is not None:
            core = z * eye - self.b_corner - self.c @ inner.value @ self.a0
        else:
            try:
                core = np.linalg.solve(inner.value, eye) - self.b_corner
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"inner transform singular at z={z}; candidate point mass"
                ) from exc
        try:
            value = np.linalg.solve(core, eye)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"corner inversion singular at z={z}; candidate point-mass "
                f"location"
            ) from exc
        residual = float(np.linalg.norm(core @ value - eye, 2)) + inner.residual
        return EvalResult(value, residual, self.method, state=inner.warm())


class SiteStieltjes(StieltjesEvaluator):
    """Diagonal block ((z I - Phi)^{-1})_{jj} at ``site`` of a segment,
    half-line or line model, exact for every eventually-homogeneous chain.

    Each unbounded side is homogeneous beyond the override sites and is
    closed there by its interior fixed point: ``HomogeneousStieltjes(A,
    B, C)`` above and the mirrored ``HomogeneousStieltjes(C, B, A)``
    below.  :func:`schur_sweep` eliminates the sites between each closure
    (or bounded edge) and ``site``, and the last pivot is solved at
    ``site``.  The residual sums the defining-equation residual of each
    fixed point and that of the last pivot solve; ``state`` carries both
    fixed points, (above, below), for warm starts.
    """

    method = "closed"

    def __init__(self, model: QmcModel, site: int = 0):
        topo = model.topology
        if not topo.contains(site):
            raise ValueError(f"site {site} outside the {topo.kind} topology")
        a, b, c = (_homogeneous_matrix(model, role) for role in ROLES)
        marks = [*model.overrides, site]
        # the first homogeneous site past every override, or the edge
        hi = max(marks) + 1 if topo.hi is None else topo.hi
        lo = min(marks) - 1 if topo.lo is None else topo.lo
        self.closures = (
            None if topo.hi is not None else HomogeneousStieltjes(a, b, c),
            None if topo.lo is not None else HomogeneousStieltjes(c, b, a),
        )
        self.sweeps = (
            range(hi - (topo.hi is None), site, -1),
            range(lo + (topo.lo is None), site),
        )
        self.table = block_table(model, lo, hi)
        self.lo = lo
        self.site = site

    def evaluate(self, z: complex, x0=None) -> EvalResult:
        ends = [
            None if fp is None else fp.evaluate(z, x0=warm)
            for fp, warm in zip(self.closures, x0 or (None, None))
        ]
        A, B, C = self.table
        k = self.site - self.lo
        eye = np.eye(B[k].shape[0], dtype=complex)
        core = z * eye - B[k]
        # the eliminated sides couple in through the blocks next to site
        for sites, end, into, back in zip(self.sweeps, ends, (C, A), (A, C)):
            y = schur_sweep(self.table, self.lo, sites, z=z,
                            closing=None if end is None else end.value)
            if y is not None:
                core = core - into[k - sites.step] @ y @ back[k]
        value = np.linalg.solve(core, eye)
        residual = float(np.linalg.norm(core @ value - eye, 2))
        residual += sum(end.residual for end in ends if end is not None)
        state = tuple(None if end is None else end.value for end in ends)
        return EvalResult(value, residual, self.method, state=state)


def transform_evaluator(model: QmcModel, method: str, window: int = 800) -> StieltjesEvaluator:
    """The transform evaluator of a chain, the one route policy.

    ``method="auto"`` gives :class:`SiteStieltjes` at site 0 for every
    model.  The explicit methods are cross-checks on chains bounded from
    below: ``homogeneous`` (the fixed point, half-lines without
    overrides), ``corner`` (the corner identity, half-lines whose only
    override is at site 0) and ``truncated`` (window-doubled truncation
    starting at ``window``).  Raises ``ValueError`` for a method the model
    does not admit.
    """
    if method == "auto":
        return SiteStieltjes(model)
    if method in ("homogeneous", "corner") and model.topology.kind != HALF_LINE:
        raise ValueError(f"{method} method needs a half-line model")
    if method == "homogeneous":
        if not model.homogeneous:
            raise ValueError("homogeneous method needs a model without overrides")
        return HomogeneousStieltjes.from_model(model)
    if method == "corner":
        if model.overrides and set(model.overrides) != {0}:
            raise ValueError("corner method supports overrides at site 0 only")
        return CornerStieltjes(
            HomogeneousStieltjes.from_model(model),
            model.block(0, "B"),
            a0=model.block(0, "A"),
            c=model.block(1, "C"),
        )
    if method == "truncated":
        return TruncatedStieltjes(model, window=window)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class FoldedTransform:
    """The four transform products of a folded line chain, with the weight
    normalizations folded in (products Pi_0 B11, Pi_-1 B22, ...)."""

    p11: Array
    p22: Array
    p12: Array
    p21: Array
    residual: float
    # the (plus, minus) warm states of the two half-chain evaluators
    state: tuple


def stieltjes_folded(
    a_minus1: Array,
    c0: Array,
    plus: StieltjesEvaluator,
    minus: StieltjesEvaluator,
    z: complex,
    *,
    pi0_plus: Array | None = None,
    pim1_minus: Array | None = None,
    x0: tuple | None = None,
) -> FoldedTransform:
    """Split identities expressing the line-chain transforms through the
    two half-line ones.  Operator order is load-bearing and preserved
    verbatim:

        P11 = Xp (I - A_{-1} Xm C_0 Xp)^{-1}
        P22 = Xm (I - C_0 Xp A_{-1} Xm)^{-1}
        P12 = P11 A_{-1} Xm,   P21 = P22 C_0 Xp

    where Xp/Xm are the plus/minus corner transforms with their weight
    normalizations included (pass pi0_plus / pim1_minus if your evaluators
    return bare transforms instead).  ``x0`` is the (plus, minus) pair of
    warm starts, as in the ``state`` of a previous result.
    """
    xp0, xm0 = x0 or (None, None)
    rp = plus.evaluate(z, x0=xp0)
    rm = minus.evaluate(z, x0=xm0)
    xp = rp.value if pi0_plus is None else np.asarray(pi0_plus) @ rp.value
    xm = rm.value if pim1_minus is None else np.asarray(pim1_minus) @ rm.value
    d = xp.shape[0]
    eye = np.eye(d, dtype=complex)
    mid_p = eye - a_minus1 @ xm @ c0 @ xp
    mid_m = eye - c0 @ xp @ a_minus1 @ xm
    try:
        p11 = np.linalg.solve(mid_p.T, xp.T).T
        p22 = np.linalg.solve(mid_m.T, xm.T).T
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular middle factor at z={z}") from exc
    p12 = p11 @ a_minus1 @ xm
    p21 = p22 @ c0 @ xp
    return FoldedTransform(
        p11, p22, p12, p21, rp.residual + rm.residual, (rp.warm(), rm.warm())
    )


def residue_probe(
    evaluator: StieltjesEvaluator,
    x0: complex,
    *,
    eps_ladder=(1e-2, 1e-3, 1e-4, 1e-5),
    direction: complex = 1j,
) -> Array:
    """Estimate the point mass of the underlying measure at x0 from
    eps * B(x0 + eps * direction), extrapolated down the ladder.

    The default approach direction is vertical, which stays clear of any
    surrounding continuous spectrum on the real axis; real-direction
    probes may hit singular evaluations (themselves a point-mass
    indicator)."""
    rungs = _warm_ladder(evaluator, [x0 + eps * direction for eps in eps_ladder])
    samples = [eps * direction * res.value for eps, (_, res) in zip(eps_ladder, rungs)]
    # remove the leading analytic background, linear in eps
    return samples[-1] + (samples[-1] - samples[-2]) / (
        eps_ladder[-2] / eps_ladder[-1] - 1.0
    )
