"""Symmetrizers, finite spectral weights, and Stieltjes transforms.

The Stieltjes transform of the weight family attached to a chain is
evaluated exactly by :class:`SiteStieltjes` at any site of a segment,
half-line or line chain that is homogeneous outside finitely many sites:
the homogeneous fixed point closes each unbounded side and one
block-Schur sweep covers the rest.  On a real ladder above 1, the ladder
of every recurrence verdict and of the jump at one, both closures are
solved for all rungs at once by cyclic reduction and the sweep runs
stacked over the rungs.  Truncated corner resolvents, the bare
fixed point, corner perturbations of a homogeneous interior and the split
identities of folded line chains remain as independent cross-checks.
Every evaluator reports the residual of its defining equation alongside
the value, except :class:`TruncatedStieltjes`, whose residual is the step
between its last two windows; it runs a whole ladder of points at once and
builds the homogeneous tail of each window from glued block ports of
runs of 2^j sites, in O(log window) stacked solves instead of one per
site.  :meth:`StieltjesEvaluator.ladder` is the one rung
walker of every ladder.  :func:`transform_evaluator` holds the one route
policy; the CLI and the half-chains of a folded line chain both take
their evaluators from it.

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
# stopping step of the homogeneous fixed-point iteration
FP_TOL = 1e-12
# cyclic reduction of a closure: iteration cap, and the relative step of
# the reduced pivot at which a point stops
CR_MAX_ITER = 40
CR_TOL = 1e-14


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


def _cholesky_factor(pi: Array) -> Array | None:
    anti = float(np.linalg.norm(pi - pi.conj().T, 2))
    scale = max(1.0, float(np.linalg.norm(pi, 2)))
    if anti > TOL_HERM * scale:
        return None
    sym = hermitian_part(pi)
    try:
        low = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return None
    return low.conj().T


def find_symmetrizer(model: QmcModel, n_max: int) -> Symmetrizer:
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
        factor = _cholesky_factor(pi[n])
        if factor is None:
            defect = float(np.linalg.norm(pi[n] - pi[n].conj().T, 2))
            if defect <= TOL_HERM * max(1.0, float(np.linalg.norm(pi[n], 2))):
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
        if herm_defect > TOL_SYM * scale:
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

    def moment(self, n: int, left: Array | None = None, right: Array | None = None) -> Array:
        """The spectral sum sum_k l_k^n L_k* W_k R_k over the nodes l_k.

        ``left`` and ``right`` are stacks in node order, shape (nodes, d,
        m), such as a polynomial family evaluated at the nodes; each is
        the identity when omitted.
        """
        terms = self.weights()
        if left is not None:
            terms = left.conj().swapaxes(-1, -2) @ terms
        if right is not None:
            terms = terms @ right
        return np.einsum("k,kij->ij", self.nodes() ** n, terms)


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


def finite_spectrum_weights(model: QmcModel) -> DiscreteWeight:
    """Eigenvalue nodes of a finite chain with matrix weights by residues.

    The weight of a node is the residue of z -> ((z I - Phi)^{-1})_{00}
    there, extracted by trapezoid contour quadrature on a small circle
    (radius min(1e-4, gap/10)); this handles simple and double poles
    uniformly.  Each cluster makes one ``corner_resolvent`` call with
    its ``RESIDUE_POINTS`` contour points stacked, a (points, d, d)
    array of corner blocks from one backward Schur sweep.  The weights
    always sum to the identity, the n = 0 moment of the corner block.
    """
    if model.topology.kind != SEGMENT:
        raise ValueError("finite spectra need a segment model")
    trunc = truncate(model, 0, model.topology.num_sites - 1)
    mat = trunc.matrix
    ev = np.linalg.eigvals(mat)
    groups = _cluster_eigenvalues(ev, TOL_GROUP)
    centers = np.array([ev[g].mean() for g in groups])
    if len(centers) > 1:
        dist = np.abs(centers[:, None] - centers[None, :])
        np.fill_diagonal(dist, np.inf)
        gaps = dist.min(axis=1)
        worst = float(gaps.min())
        if worst < 10.0 * TOL_GROUP:
            raise SpectralError(
                f"eigenvalue clusters only {worst:.3e} apart; grouping is "
                f"ambiguous at tolerance {TOL_GROUP:.1e}"
            )
    else:
        gaps = np.array([np.inf])

    depth = trunc.num_sites
    unit = np.exp(2j * np.pi * np.arange(RESIDUE_POINTS) / RESIDUE_POINTS)
    points = []
    for g, center, gap in zip(groups, centers, gaps):
        radius = min(1e-4, gap / 10.0) if np.isfinite(gap) else 1e-4
        zs = center + radius * unit
        corner = corner_resolvent(model, zs, depth)
        weight = np.einsum("k,kij->ij", zs - center, corner) / RESIDUE_POINTS
        node = complex(center)
        if abs(node.imag) <= TOL_GROUP:
            node = complex(node.real, 0.0)
        points.append(WeightPoint(node, len(g), weight))
    points.sort(key=lambda p: (p.node.real, p.node.imag))
    return DiscreteWeight(tuple(points))


def double_root_weight(model: QmcModel, node: complex) -> Array:
    """Derivative-form residue for a double node: the derivative of
    -(node - z)^2 ((Phi - z I)^{-1})_{00} at the node, by central
    difference with step 1e-5.  Retained as a cross-check on the contour
    route."""
    trunc = truncate(model, 0, model.topology.num_sites - 1)
    mat = trunc.matrix
    d = model.block_dim
    S = mat.shape[0]
    rhs = np.zeros((S, d), dtype=complex)
    rhs[:d] = np.eye(d)

    def g(z):
        corner = np.linalg.solve(mat - z * np.eye(S), rhs)[:d]
        return -((node - z) ** 2) * corner

    h = 1e-5
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

    def ladder(self, points):
        """Yield (z, EvalResult) at each point in turn, every evaluation
        warm-started from the previous one's :meth:`EvalResult.warm`.

        The one rung walker of the recurrence ladder, the jump at one and
        the residue probe; each z is the caller's own point object."""
        warm = None
        for z in points:
            res = self.evaluate(z, x0=warm)
            warm = res.warm()
            yield z, res

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

    def near_axis(self, x: float, delta: float) -> Array:
        """Boundary value at x + i*delta by continuation from far above the
        axis, passing each converged value down as the next starting point.

        Rungs whose residual misses the tolerance are geometrically
        bisected, which keeps the branch tracking honest across the
        spectral edges."""
        schedule = list(np.geomspace(max(10.0 * delta, 0.5), delta, 24))
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


def _port_solve(m, rhs):
    """Stacked solve of m x = rhs, NaN at the points where m is exactly
    singular instead of an error for the whole stack."""
    try:
        return np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(m) == 0
        x = np.linalg.solve(np.where(singular[..., None, None], np.eye(m.shape[-1]), m), rhs)
        x[singular] = np.nan
        return x


def _glue(p, q, a, c):
    """Port of the run ``p`` (near) followed by the run ``q`` (far).

    A port of a homogeneous run stacks its four corner blocks (first-first,
    first-last, last-first, last-last) of (z I - Phi)^{-1}; ``a`` couples
    the last site of ``p`` up into the first of ``q``, ``c`` couples back
    down.  One stacked solve with F = (I - Pnn C Q11 A)^{-1} and
    F' = I + Q11 A F Pnn C = (I - Q11 A Pnn C)^{-1}."""
    p11, p1n, pn1, pnn = p
    q11, q1n, qn1, qnn = q
    qa, pc = q11 @ a, pnn @ c
    d = a.shape[-1]
    x = _port_solve(np.eye(d) - pc @ qa, np.concatenate([pn1, pc @ q1n], axis=-1))
    f_pn1, g = x[..., :d], q1n + qa @ x[..., d:]  # F Pn1 and F' Q1n
    p1c, qna = p1n @ c, qn1 @ a
    return np.stack([p11 + p1c @ qa @ f_pn1, p1c @ g, qna @ f_pn1, qnn + qna @ pc @ g])


def _close(g, tail, a, c):
    """First-first block of the run ``g`` (a port) followed by a run whose
    first-first block is ``tail`` (None: no run)."""
    if tail is None:
        return g[0]
    sigma = c @ tail @ a
    return g[0] + g[1] @ sigma @ _port_solve(np.eye(a.shape[-1]) - g[3] @ sigma, g[2])


def _continued_corners(model: QmcModel, zs: Array, windows):
    """Corner stacks of the absorbing truncations of a chain bounded from
    below, one per window in ``windows`` (ascending), for the points
    ``zs``, each equal to ``corner_resolvent(model, zs, w)`` to rounding.

    Sites at and above h = max(overrides) + 1 hold the homogeneous B and
    A, and the C of the site above, so the inverse pivot at h after
    eliminating the tail above it is the first-first block of a
    homogeneous run of w - h sites.  The ports of runs of 2^j sites are
    built by gluing each to itself, and the tail of every window grows
    from the kept tail by closing it with the ports of the binary digits
    of its new length: O(log w) stacked solves per window instead of one
    per site.  Only the head sites below h are swept (:func:`schur_sweep`)
    for each window.  Sending a boolean mask keeps only those points, and
    their ports, for the later windows.  A non-finite port or tail raises
    ``np.linalg.LinAlgError`` naming the window and the points.
    """
    h = max(model.overrides, default=0) + 1
    table = block_table(model, 0, min(h, windows[-1] - 1))
    a, b, c = model.block(h, "A"), model.block(h, "B"), model.block(h + 1, "C")
    eye = np.eye(b.shape[0])
    ports, tail, done = [], None, 0
    for w in windows:
        new = max(w - h, 0) - done
        with np.errstate(all="ignore"):
            if new and not ports:
                # one site: all four corners are (z I - B)^{-1}
                ports.append(np.stack([_port_solve(zs[..., None, None] * eye - b, eye)] * 4))
            for j in range(new.bit_length()):
                if j == len(ports):
                    ports.append(_glue(ports[-1], ports[-1], a, c))
                if new >> j & 1:
                    tail = _close(ports[j], tail, a, c)
        done += new
        if tail is not None:
            bad = ~np.isfinite(tail).all(axis=(-2, -1))
            for port in ports:
                bad |= ~np.isfinite(port).all(axis=(0, -2, -1))
            if bad.any():
                raise np.linalg.LinAlgError(
                    f"non-finite homogeneous tail port for z in {zs[bad].tolist()} on window [0, {w - 1}]"
                )
        keep = yield schur_sweep(table, 0, range(min(h, w) - 1, -1, -1), z=zs, closing=tail)
        if keep is not None:
            zs, ports = zs[keep], [port[:, keep] for port in ports]
            tail = None if tail is None else tail[keep]


class TruncatedStieltjes(StieltjesEvaluator):
    """Corner resolvent of an absorbing truncation, window-doubled until
    the value stabilizes.

    A point stops at its first window whose step from the previous window
    is at most ``tolerance``, or else at the last of ``max_doublings``
    doublings.  Its residual is that step between its last two windows,
    not a defining-equation residual.  A ladder of points runs stacked,
    and each doubling extends the previous window's homogeneous tail by
    glued block ports (:func:`_continued_corners`): the same windows,
    values equal to a fresh sweep of every window to rounding, and
    O(log window) stacked solves per window.  A segment is swept once over
    all its sites, with residual 0.
    """

    method = "truncated"

    def __init__(self, model: QmcModel, window: int = 800, tolerance: float = 1e-8,
                 max_doublings: int = 3):
        if model.topology.kind == LINE:
            raise ValueError(
                "truncated transforms need a chain bounded from below; fold "
                "line models first"
            )
        if window < 1:
            raise ValueError(f"truncation window must be at least 1, not {window}")
        if max_doublings < 1:
            raise ValueError(f"max_doublings must be at least 1, not {max_doublings}")
        self.model = model
        self.window = window
        self.tolerance = tolerance
        self.max_doublings = max_doublings

    def evaluate(self, z: complex, x0: Array | None = None) -> EvalResult:
        ((_, res),) = self.ladder([z])
        return res

    def ladder(self, points):
        points = list(points)
        zs = np.array(points, dtype=complex)
        topo = self.model.topology
        if topo.kind == SEGMENT:
            values = corner_resolvent(self.model, zs, topo.num_sites)
            for z, value in zip(points, values):
                yield z, EvalResult(value, 0.0, self.method)
            return
        windows = [self.window * 2**k for k in range(self.max_doublings + 1)]
        results = [None] * len(points)
        active = np.arange(len(points))
        sweep = _continued_corners(self.model, zs, windows)
        prev, keep = next(sweep), None
        for k in range(1, len(windows)):
            cur = sweep.send(keep)
            steps = np.linalg.norm(cur - prev, 2, axis=(-2, -1))
            stop = (steps <= self.tolerance) | (k == len(windows) - 1)
            for i, value, step in zip(active[stop], cur[stop], steps[stop]):
                results[i] = EvalResult(value, float(step), self.method)
            keep = ~stop
            if not keep.any():
                break
            active, prev = active[keep], cur[keep]
        for z, res in zip(points, results):
            yield z, res


def _quadratic_residual(a, b, c, z, x):
    """||x - (z I - b - c x a)^{-1}||_2 at one point z, or at each point of
    an array z with x stacked to match; inf at every point when the
    solve fails."""
    eye = np.eye(a.shape[0])
    try:
        target = np.linalg.solve(np.multiply.outer(z, eye) - b - c @ x @ a,
                                 np.broadcast_to(eye, np.shape(x)))
    except np.linalg.LinAlgError:
        return np.full(np.shape(z), np.inf)[()]
    return np.linalg.norm(x - target, 2, axis=(-2, -1))


class HomogeneousStieltjes(StieltjesEvaluator):
    """Fixed point of X = (z I - B - C X A)^{-1} for a homogeneous
    interior, started from X = I/z, with Newton polishing when plain
    iteration stalls.

    The iteration is a contraction for z outside the support and selects
    the transform of the genuine measure (decaying branch), which is
    cross-validated against truncation in the tests.
    """

    method = "homogeneous_fp"

    def __init__(self, a: Array, b: Array, c: Array, *, tolerance: float = 1e-8):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.c = np.asarray(c, dtype=complex)
        self.tolerance = tolerance

    @classmethod
    def from_model(cls, model: QmcModel, **kw) -> "HomogeneousStieltjes":
        return cls(model.block(1, "A"), model.block(1, "B"), model.block(2, "C"), **kw)

    def _newton(self, z: complex, x: Array) -> Array:
        d = self.a.shape[0]
        eye = np.eye(d, dtype=complex)
        for _ in range(60):
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
        for it in range(10_000):
            try:
                nxt = np.linalg.solve(z * eye - self.b - self.c @ x @ self.a, eye)
            except np.linalg.LinAlgError:
                break  # iteration left its domain; Newton recovers
            last_delta = float(np.linalg.norm(nxt - x, 2))
            x = nxt
            if last_delta < FP_TOL:
                break
            if it >= 200 and last_delta < 1e-3:
                break
        if last_delta >= FP_TOL:
            x = self._newton(z, x)
        residual = _quadratic_residual(self.a, self.b, self.c, z, x)
        if warm is not None and warm[1] < residual:
            x, residual = warm
        return EvalResult(x, residual, self.method, state=x)

    def reduce(self, zs: Array) -> tuple[Array, Array, Array]:
        """The fixed point at every point of the real array ``zs`` at once,
        by cyclic reduction, with its certificate.

        With G = X A the closure solves A + (B - z) G + C G^2 = 0, and
        X = -U^{-1} for the reduced pivot U = B - z + C G that cyclic
        reduction converges to quadratically (Bini, Latouche & Meini,
        *Numerical Methods for Structured Markov Chains*, 2005).  Every
        step is one stacked solve over all points; the reduction stops once
        every point's pivot has moved by at most ``CR_TOL`` relative, in
        the Frobenius norm.
        Returns the values, their defining-equation residuals and a mask
        of the certified points: reduced within ``CR_MAX_ITER`` steps,
        residual at most ``FP_TOL`` relative to max(1, ||X||) and
        spectral radius of G below 1, the decaying branch.  A point that
        did not reduce has value NaN and residual inf.  Off the real axis
        the reduction can reach another solvent, so it serves real points
        above the support only.
        """
        d = self.a.shape[0]
        n = len(zs)
        mid = self.b - np.multiply.outer(zs, np.eye(d))
        hat = mid
        down = np.broadcast_to(self.a, mid.shape)
        up = np.broadcast_to(self.c, mid.shape)
        reduced = np.zeros(n, dtype=bool)
        # a point keeps reducing with the others once it has settled: its
        # later steps are below rounding, so they leave its pivot as it is
        with np.errstate(all="ignore"):
            for _ in range(CR_MAX_ITER):
                try:
                    k = np.linalg.solve(mid, np.concatenate((down, up), axis=-1))
                except np.linalg.LinAlgError:
                    break
                kd, ku = k[..., :d], k[..., d:]
                step = up @ kd
                hat = hat - step
                mid, down, up = mid - step - down @ ku, -down @ kd, -up @ ku
                reduced |= (np.linalg.norm(step, axis=(-2, -1))
                            <= CR_TOL * np.linalg.norm(hat, axis=(-2, -1)))
                if reduced.all():
                    break
        x = np.full(mid.shape, np.nan, dtype=complex)
        residual = np.full(n, np.inf)
        certified = np.zeros(n, dtype=bool)
        x[reduced] = -np.linalg.inv(hat[reduced])
        residual[reduced] = _quadratic_residual(self.a, self.b, self.c, zs[reduced], x[reduced])
        scale = np.maximum(1.0, np.linalg.norm(x[reduced], 2, axis=(-2, -1)))
        radius = np.abs(np.linalg.eigvals(x[reduced] @ self.a)).max(axis=-1)
        certified[reduced] = (residual[reduced] <= FP_TOL * scale) & (radius < 1.0)
        return x, residual, certified


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
                 a0: Array | None = None, c: Array | None = None):
        if (a0 is None) != (c is None):
            raise ValueError("supply both a0 and c, or neither")
        self.inner = inner
        self.b_corner = np.asarray(b_corner, dtype=complex)
        self.a0 = None if a0 is None else np.asarray(a0, dtype=complex)
        self.c = None if c is None else np.asarray(c, dtype=complex)

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

    A ladder whose points are all real and above 1 runs stacked: each
    closure is solved for every rung at once by
    :meth:`HomogeneousStieltjes.reduce`, then one stacked sweep per side
    and one stacked pivot solve give every rung, with the same residual
    and state as :meth:`evaluate`.  A rung that a closure does not
    certify is re-solved by :meth:`evaluate`, warm-started from the rung
    before it.  Any other ladder is walked rung by rung.
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
        state = tuple(None if end is None else end.value for end in ends)
        value, residual = self._pivot(z, state)
        residual = float(residual) + sum(end.residual for end in ends if end is not None)
        return EvalResult(value, residual, self.method, state=state)

    def ladder(self, points):
        points = list(points)
        zs = np.array(points, dtype=complex)
        if not (zs.size and np.all(zs.imag == 0) and np.all(zs.real > 1)):
            yield from super().ladder(points)
            return
        ends = [None if fp is None else fp.reduce(zs) for fp in self.closures]
        ok = np.ones(len(zs), dtype=bool)
        for end in ends:
            if end is not None:
                ok &= end[2]
        closings = [None if end is None else end[0][ok] for end in ends]
        values, residuals = self._pivot(zs[ok], closings)
        residuals += sum(end[1][ok] for end in ends if end is not None)
        warm = None
        for z, certified, i in zip(points, ok, np.cumsum(ok) - 1):
            if certified:
                state = tuple(None if c is None else c[i] for c in closings)
                res = EvalResult(values[i], float(residuals[i]), self.method, state=state)
            else:
                res = self.evaluate(z, x0=warm)
            warm = res.warm()
            yield z, res

    def _pivot(self, z, closings):
        """The inverse pivot at ``site`` and its solve residual, at one
        point z or stacked over an array of them, from the closings of the
        two sides (None at a bounded edge)."""
        A, B, C = self.table
        k = self.site - self.lo
        eye = np.eye(B[k].shape[0], dtype=complex)
        core = np.multiply.outer(z, eye) - B[k]
        # the eliminated sides couple in through the blocks next to site
        for sites, closing, into, back in zip(self.sweeps, closings, (C, A), (A, C)):
            y = schur_sweep(self.table, self.lo, sites, z=z, closing=closing)
            if y is not None:
                core = core - into[k - sites.step] @ y @ back[k]
        value = np.linalg.solve(core, np.broadcast_to(eye, core.shape))
        return value, np.linalg.norm(core @ value - eye, 2, axis=(-2, -1))


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
    x0: tuple | None = None,
) -> FoldedTransform:
    """Split identities expressing the line-chain transforms through the
    two half-line ones.  Operator order is load-bearing and preserved
    verbatim:

        P11 = Xp (I - A_{-1} Xm C_0 Xp)^{-1}
        P22 = Xm (I - C_0 Xp A_{-1} Xm)^{-1}
        P12 = P11 A_{-1} Xm,   P21 = P22 C_0 Xp

    where Xp/Xm are the values of ``plus`` and ``minus``, the plus/minus
    corner transforms with their weight normalizations included.  ``x0``
    is the (plus, minus) pair of warm starts, as in the ``state`` of a
    previous result.
    """
    xp0, xm0 = x0 or (None, None)
    rp = plus.evaluate(z, x0=xp0)
    rm = minus.evaluate(z, x0=xm0)
    xp, xm = rp.value, rm.value
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


def residue_probe(evaluator: StieltjesEvaluator, x0: complex) -> Array:
    """Estimate the point mass of the underlying measure at x0 from
    i eps B(x0 + i eps), extrapolated down the ladder eps = 1e-2 .. 1e-5.

    The approach is vertical, which stays clear of any surrounding
    continuous spectrum on the real axis."""
    eps_ladder = (1e-2, 1e-3, 1e-4, 1e-5)
    rungs = evaluator.ladder([x0 + eps * 1j for eps in eps_ladder])
    samples = [eps * 1j * res.value for eps, (_, res) in zip(eps_ladder, rungs)]
    # remove the leading analytic background, linear in eps
    return samples[-1] + (samples[-1] - samples[-2]) / (
        eps_ladder[-2] / eps_ladder[-1] - 1.0
    )
