"""Symmetrizers, finite spectral weights, and Stieltjes transforms.

A symmetrizer is certified by its defining condition, pi[n] > 0 with pi[n] B_n
Hermitian, in one scale-invariant pass (:func:`find_symmetrizer`).  The matrix
weights of a segment come from one eigendecomposition of its assembled window
(:func:`finite_spectrum_weights`): the weight of an eigenvalue cluster is the
00 corner of its spectral projector, read off the eigenvectors.  A cluster
whose eigenvectors are rank deficient or whose projector norm exceeds
``RESIDUE_KAPPA_MAX`` takes the exact Riesz projector of the Newton sign
iteration instead; the gate does not depend on the eigenvector basis.  A real
assembled matrix gives its real nodes real weights.

The Stieltjes transform of the weight family attached to a chain is
evaluated exactly by :class:`SiteStieltjes` at any site of a segment,
half-line or line chain that is homogeneous outside finitely many sites:
the homogeneous transform closes each unbounded side and one
block-Schur sweep covers the rest.  That sweep toward a site, with its
window and the end of each side, is the one elimination
(:class:`_Elimination`) behind the transform block, the first-return
block and the first passage into the site that ``statistics`` reads.
:func:`homogeneous_closure` is the one cyclic reduction of a homogeneous
interior, stacked over any points, real or complex: it closes every
point of a ladder at once for :class:`HomogeneousStieltjes` and for
each side of :class:`SiteStieltjes` (the ladder of a recurrence verdict,
of the jump at one and of the residue probe, or the one point of
``evaluate``), the fixed point serving only at the points it does not
certify, and at z = 1 it closes the exact reach probabilities and the
first-return block (:meth:`StieltjesEvaluator.return_block`) that
decides a recurrence verdict without a ladder.  Truncated corner
resolvents remain as an independent cross-check, and the split
identities of folded line chains live in ``folding`` alone; the
homogeneous transform of a cornerless half-line and the corner identity
around it (:class:`CornerStieltjes`) are library references that equal
the auto route.
Every evaluator reports the residual of its defining equation alongside
the value, except :class:`TruncatedStieltjes`, whose residual is the step
between its last two windows; it runs a whole ladder of points at once and
builds the homogeneous tail of each window from glued block ports of
runs of 2^j sites, in O(log window) stacked solves instead of one per
site.  Every ladder goes through :meth:`StieltjesEvaluator.ladder`,
which the closed and truncated evaluators run stacked, their
``evaluate`` being the one-point ladder; no state passes from one point
to the next.  :func:`transform_evaluator` holds the one route policy,
``auto`` or ``truncated``; the CLI and the half-chains of a folded line
chain both take their evaluators from it.

Normalization: evaluators return corner resolvents ((z I - Phi)^{-1})_{00},
which equal the transform with the weight normalization folded in (the
products written "Pi0 B(z; W)").  With the standard normalization Pi0 = I
this is the transform itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_model import (
    LINE,
    ROLES,
    SEGMENT,
    QmcModel,
    _block_product,
    _homogeneous_matrix,
    block_table,
    corner_resolvent,
    schur_sweep,
    truncate,
)
from .quantum_core import TOL_HERM, Array

TOL_SYM = 1e-9
TOL_GROUP = 1e-8
# a cluster's weight comes off its eigenvectors V[:, g] when its projector
# norm ||V[:, g] V^-1[g, :]||_2 is at most RESIDUE_KAPPA_MAX and their
# sigma_min / sigma_max above RESIDUE_RANK_MIN, else off its Riesz
# projector, whose sign iteration takes at most SIGN_MAX_ITER Newton steps
RESIDUE_KAPPA_MAX = 1e4
RESIDUE_RANK_MIN = 1e-8
SIGN_MAX_ITER = 50
# stopping step of the homogeneous fixed-point iteration (Newton finishes
# it when the contraction is slower than 1/2 per step)
FP_TOL = 1e-12
# cyclic reduction of a closure: iteration cap, and the relative step of
# the reduced pivot at which a point stops
CR_MAX_ITER = 40
CR_TOL = 1e-14
# window doublings of a truncated transform after its first window
TRUNC_MAX_DOUBLINGS = 3


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
    """Verdict of the symmetrizer search, with the products it tested.

    ``pi[n]`` are the products of :func:`find_symmetrizer` at every site
    it built.  ``success`` says whether every certificate held; on
    failure ``fail_index`` names the first site, in order of |n|, whose
    certificate breaks, ``reason`` the check that broke and ``defect`` by how much.
    """

    pi: dict
    success: bool
    fail_index: int | None = None
    defect: float | None = None
    reason: str = ""


def find_symmetrizer(model: QmcModel, n_max: int) -> Symmetrizer:
    """Search for the product sequence certifying a positive weight family.

    pi[0] = I and pi[n+1] = (A_n*)^{-1} pi[n] C_{n+1}.  On line models the
    negative side is anchored through pi[-1] C_0 = A_{-1}* pi[0] and
    continued downward.  The certificate is the condition itself, tested at
    every site at once on P = pi[n] / ||pi[n]||_2, so that no check depends
    on the scale of pi[n]: P is Hermitian within ``TOL_HERM`` (defect
    ||pi[n] - pi[n]*||_2), positive definite (defect minus the least
    eigenvalue of the Hermitian part of pi[n]), and P B_n Hermitian in the
    metric of P: with H = U L U* the Hermitian part of P, the matrix
    W = L^(1/2) U* B_n U L^(-1/2), whose anti-Hermitian part is
    L^(-1/2) U* (H B_n - B_n* H) U L^(-1/2), is Hermitian within ``TOL_SYM``
    max(1, ||W||_2) (defect ||W - W*||_2).  In this metric a small eigenvalue
    of P does not hide a skew part of P B_n in its direction.  The first
    failing site in order of |n|, and its first failing check, decide.
    """
    pi: dict[int, Array] = {0: np.eye(model.block_dim, dtype=complex)}
    topo = model.topology
    hi = n_max if topo.hi is None else min(n_max, topo.hi)
    for n in range(1, hi + 1):
        a = model.block(n - 1, "A")
        c = model.block(n, "C")
        try:
            pi[n] = np.linalg.solve(a.conj().T, pi[n - 1] @ c)
        except np.linalg.LinAlgError as exc:
            raise SpectralError(f"singular block product at site {n}") from exc
    if topo.kind == LINE:
        for n in range(0, n_max):
            a = model.block(-n - 1, "A")
            c = model.block(-n, "C")
            try:
                pi[-n - 1] = np.linalg.solve(c.T, (a.conj().T @ pi[-n]).T).T
            except np.linalg.LinAlgError as exc:
                raise SpectralError(f"singular block product at site {-n-1}") from exc
    # every site at once, each check on p = pi[n] / ||pi[n]||_2; NaN fails
    sites = sorted(pi, key=abs)
    p = np.stack([pi[n] for n in sites])
    scale = np.linalg.norm(p, 2, axis=(1, 2))
    p /= np.where(scale > 0, scale, 1.0)[:, None, None]
    skew = np.linalg.norm(p - p.conj().swapaxes(1, 2), 2, axis=(1, 2))
    lam, u = np.linalg.eigh((p + p.conj().swapaxes(1, 2)) / 2)
    # B_n in the metric of h = u lam u*, the Hermitian part of p:
    # lam^(1/2) u* B_n u lam^(-1/2), whose anti-Hermitian part is
    # lam^(-1/2) u* (h B_n - (h B_n)*) u lam^(-1/2)
    root = np.sqrt(np.where(lam > 0, lam, 1.0))
    w = u.conj().swapaxes(1, 2) @ np.stack([model.block(n, "B") for n in sites]) @ u
    w = root[:, :, None] * w / root[:, None, :]
    w_skew = np.linalg.norm(w - w.conj().swapaxes(1, 2), 2, axis=(1, 2))
    hermitian = skew <= TOL_HERM
    positive = lam[:, 0] > 0
    symmetric = w_skew <= TOL_SYM * np.maximum(1.0, np.linalg.norm(w, 2, axis=(1, 2)))
    failing = np.flatnonzero(~(hermitian & positive & symmetric))
    if not failing.size:
        return Symmetrizer(pi, True)
    k = failing[0]
    n = sites[k]
    if not hermitian[k]:
        return Symmetrizer(pi, False, n, float(scale[k] * skew[k]), f"pi[{n}] is not Hermitian")
    if not positive[k]:
        return Symmetrizer(pi, False, n, float(-scale[k] * lam[k, 0]),
                           f"pi[{n}] is not positive definite")
    return Symmetrizer(pi, False, n, float(w_skew[k]), f"pi[{n}] B_{n} is not Hermitian")


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
        the identity when omitted.  Residue weights drop the higher Laurent
        terms: where a defective eigenvalue reaches the corner, the sum gives
        the powers of the segment's diagonalizable part, not its own powers.
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


def _eigenvector_clusters(vec: Array, inv: Array, groups: list[list[int]]) -> Array:
    """Which clusters take their weight off the eigenvectors: those whose
    columns V_g have numerical rank k (sigma_min / sigma_max above
    ``RESIDUE_RANK_MIN``, tested for k > 1) and whose spectral projector
    V_g W_g, W = V^-1, has 2-norm at most ``RESIDUE_KAPPA_MAX``, the
    square root of the largest eigenvalue of (V_g* V_g)(W_g W_g*).  Both
    tests run stacked over the clusters of one size k, and the norm does
    not depend on the basis V_g R, R^-1 W_g that ``eig`` picks."""
    sizes = np.array([len(g) for g in groups])
    keep = np.zeros(len(groups), dtype=bool)
    for k in np.unique(sizes):
        cols = np.array([g for g in groups if len(g) == k])
        v, w = np.moveaxis(vec[:, cols], 0, 1), inv[cols]
        gram = (v.conj().swapaxes(1, 2) @ v) @ (w @ w.conj().swapaxes(1, 2))
        keep[sizes == k] = np.abs(np.linalg.eigvals(gram)).max(axis=1) <= RESIDUE_KAPPA_MAX**2
        if k > 1:
            sv = np.linalg.svd(v, compute_uv=False)
            keep[sizes == k] &= sv[:, -1] > RESIDUE_RANK_MIN * sv[:, 0]
    return keep


def _riesz_corner(mat: Array, center: complex, gap: float, d: int) -> Array:
    """The d x d corner of the spectral projector of the eigenvalues of
    ``mat`` within gap/2 of ``center``, exact for defective clusters too:
    P = (I - sign(X))/2 for the Cayley transform X = (M - I)^-1 (M + I) of
    M = (mat - center)/r, r = gap/2, which takes the disc |mu| < 1 to the
    left half-plane.  sign(X) is the limit of the Newton iteration
    X <- (X + X^-1)/2 (Roberts 1980; Higham, Functions of Matrices, ch. 5),
    stopped by Higham's test ||dX||^2 <= n u ||X|| / ||X^-1|| (1-norms).
    A lone cluster (infinite gap) has M = 0, X = -I and P = I.  A real
    matrix and a real centre keep the iteration real."""
    eye = np.eye(len(mat))
    m = (mat - center * eye) / (gap / 2.0)
    x = np.linalg.solve(m - eye, m + eye)
    for _ in range(SIGN_MAX_ITER):
        xinv = np.linalg.inv(x)
        x, step = (x + xinv) / 2.0, np.linalg.norm(xinv - x, 1) / 2.0
        if step**2 * np.linalg.norm(xinv, 1) <= len(x) * np.finfo(float).eps * np.linalg.norm(x, 1):
            return (eye[:d, :d] - x[:d, :d]) / 2.0
    raise SpectralError(f"sign iteration around {center} did not converge in {SIGN_MAX_ITER} steps")


def finite_spectrum_weights(model: QmcModel) -> DiscreteWeight:
    """Eigenvalue nodes of a finite chain with matrix weights by residues.

    The weight of a node is the residue of z -> ((z I - Phi)^{-1})_{00}
    there, the 00 corner of the spectral projector of its eigenvalue
    cluster.  One ``np.linalg.eig`` of the assembled segment gives the
    nodes and the projectors: with V the eigenvectors, W = V^{-1} and d
    the block size, the weight of cluster g is V[:d, g] W[g, :d].  The
    gate (:func:`_eigenvector_clusters`) refuses a cluster whose
    eigenvectors are numerically rank deficient (sigma_min / sigma_max of
    V[:, g] at most ``RESIDUE_RANK_MIN``) or whose projector V[:, g] W[g, :]
    has 2-norm above ``RESIDUE_KAPPA_MAX``, a defective or nearly
    defective eigenvalue; neither test depends on the eigenvector basis
    that ``eig`` returns.  A refused cluster, and every cluster when V is
    singular, takes the corner of its exact Riesz projector from the
    Newton sign iteration (:func:`_riesz_corner`) on a circle of radius
    gap/2 around its centre.  When every entry of the assembled segment
    is real, a cluster whose centre is real to ``TOL_GROUP`` has a real
    node and a real weight: the node is a ``float`` and the weight a
    float64 array, the real part of the eigenvector product or the real
    iteration's corner.  The weights sum to the identity, the n = 0
    moment of the corner block, to rounding: within 1e-14 (max entry) on
    the bundled segments at their defaults.
    """
    if model.topology.kind != SEGMENT:
        raise ValueError("finite spectra need a segment model")
    mat = truncate(model, 0, model.topology.num_sites - 1).matrix
    ev, vec = np.linalg.eig(mat)
    groups = _cluster_eigenvalues(ev, TOL_GROUP)
    centers = np.array([ev[g].mean() for g in groups])
    dist = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(dist, np.inf)
    gaps = dist.min(axis=1)
    if gaps.min() < 10.0 * TOL_GROUP:
        raise SpectralError(
            f"eigenvalue clusters only {gaps.min():.3e} apart; grouping is "
            f"ambiguous at tolerance {TOL_GROUP:.1e}"
        )
    d = model.block_dim
    mat = mat.real if not np.any(mat.imag) else mat  # a real table iterates in real arithmetic
    try:
        inv = np.linalg.inv(vec)
        by_vectors = _eigenvector_clusters(vec, inv, groups)
    except np.linalg.LinAlgError:
        by_vectors = np.zeros(len(groups), dtype=bool)
    points = []
    for g, center, gap, eigen in zip(groups, centers, gaps, by_vectors):
        node = complex(center.real, 0.0) if abs(center.imag) <= TOL_GROUP else complex(center)
        real = mat.dtype == float and node.imag == 0.0
        node = node.real if real else node
        weight = vec[:d, g] @ inv[g, :d] if eigen else _riesz_corner(mat, node, gap, d)
        points.append(WeightPoint(node, len(g), weight.real.copy() if real else weight))
    return DiscreteWeight(tuple(sorted(points, key=lambda p: (p.node.real, p.node.imag))))


# ---------------------------------------------------------------------
# Stieltjes evaluators
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    value: Array
    residual: float
    method: str


class StieltjesEvaluator:
    """Callable z -> matrix with a declared method and residual reporting."""

    method = "abstract"
    tolerance = 1e-8

    def evaluate(self, z: complex) -> EvalResult:
        raise NotImplementedError

    def ladder(self, points):
        """Yield (z, EvalResult) at each point, each z the caller's own
        point object, by :meth:`evaluate` at each in turn; the closed and
        truncated evaluators run the whole ladder stacked."""
        for z in points:
            yield z, self.evaluate(z)

    def return_block(self) -> tuple[Array, float] | None:
        """The exact first-return block F at z = 1 with the residual that
        certifies it, or None when the evaluator has no such block: then
        recurrence is judged on its ladder."""
        return None

    def certify(self, z: complex, res: EvalResult) -> Array:
        """The value of ``res``, evaluated at ``z``, if its residual is
        within ``tolerance``; else a ConvergenceError naming z."""
        if not res.residual <= self.tolerance:
            raise ConvergenceError(
                f"{self.method} evaluator residual {res.residual:.3e} above "
                f"tolerance {self.tolerance:.1e} at z={z}",
                res.value,
                res.residual,
            )
        return res.value

    def __call__(self, z: complex) -> Array:
        return self.certify(z, self.evaluate(z))


def _port_solve(m, rhs=None):
    """Stacked solve of m x = rhs, or inverse of m without ``rhs``, NaN at
    the points where m is exactly singular instead of an error for the
    whole stack."""
    solve = np.linalg.inv if rhs is None else lambda mat: np.linalg.solve(mat, rhs)
    try:
        return solve(m)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(m) == 0
        x = solve(np.where(singular[..., None, None], np.eye(m.shape[-1]), m))
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
    ``zs``; on a non-normal interior they drift from
    ``corner_resolvent(model, zs, w)`` as w grows (:class:`TruncatedStieltjes`).

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
    is at most ``tolerance``, or else at the last of
    ``TRUNC_MAX_DOUBLINGS`` doublings.  Its residual is that step between
    its last two windows, not a defining-equation residual.  A ladder of
    points runs stacked, and each doubling extends the previous window's
    homogeneous tail by glued block ports (:func:`_continued_corners`) in
    O(log window) stacked solves per window.  On a non-normal interior the
    glued ports drift from a fresh sweep of the same window: on
    ``tilted_shear_half_line()`` at -0.5+0.2i they are 1.9e-15 (relative)
    off at 20 sites, 1.7e-3 at 100 and 2.65 from 200 on, while the step
    between windows, the residual, is 0.  A segment is swept once over
    all its sites, with residual 0.
    """

    method = "truncated"

    def __init__(self, model: QmcModel, window: int = 800):
        if model.topology.kind == LINE:
            raise ValueError(
                "truncated transforms need a chain bounded from below; fold "
                "line models first"
            )
        if window < 1:
            raise ValueError(f"truncation window must be at least 1, not {window}")
        self.model = model
        self.window = window

    def evaluate(self, z: complex) -> EvalResult:
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
        windows = [self.window * 2**k for k in range(TRUNC_MAX_DOUBLINGS + 1)]
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
    an array z with x stacked to match; inf at each point where the solve
    is singular or overflows, or x is not finite."""
    eye = np.eye(a.shape[0])
    residual = np.full(np.shape(z), np.inf)
    with np.errstate(all="ignore"):
        diff = x - _port_solve(np.multiply.outer(z, eye) - b - _block_product(c, x, a))
    finite = np.isfinite(diff).all(axis=(-2, -1))
    residual[finite] = np.linalg.svd(diff[finite], compute_uv=False)[..., 0]
    return residual[()]


def _fixed_spaces(phi: Array) -> tuple[Array, Array]:
    """Orthonormal bases of the fixed vectors of ``phi`` (columns) and of
    its fixed functionals (rows): the singular vectors of phi - I whose
    singular values are at most ``FP_TOL``."""
    u, sv, vh = np.linalg.svd(phi - np.eye(phi.shape[0]))
    fixed = sv <= FP_TOL
    return vh[fixed].conj().T, u[:, fixed].conj().T


def _drift(a: Array, b: Array, c: Array, t: Array, v: Array | None = None) -> float | None:
    """Mean drift m = t (A - C) v per step of a trace-preserving interior
    in its invariant states v, t v = 1 (Carbone & Pautrat, Ann. Henri
    Poincare 17, 2016): positive upward.  None when the invariant states
    do not all drift alike, as in a reducible interior whose enclosures
    move differently.  ``v`` holds the fixed vectors of A + B + C
    (:func:`_fixed_spaces`) when the caller has them."""
    v = _fixed_spaces(a + b + c)[0] if v is None else v
    mass, drift = t @ v, t @ (a - c) @ v
    norm = float(np.vdot(mass, mass).real)
    if norm <= FP_TOL:
        return None
    m = complex(drift @ mass.conj()) / norm
    if np.linalg.norm(drift - m * mass) > FP_TOL:
        return None
    return m.real


def homogeneous_closure(a, b, c, zs, t=None) -> tuple[Array, Array, Array]:
    """Y = (z I - B - G A)^{-1} of a homogeneous interior at every point
    of ``zs`` at once, real or complex, with its certificate.

    G = C Y is the minimal solvent of z G = C + G B + G^2 A, the first
    passage one level down at s = 1/z, and Y is the decaying fixed point
    Y = (z I - B - C Y A)^{-1} of the transform.  Cyclic reduction of the
    transposed equation converges quadratically to the reduced pivot
    (B - z + G A)^T = -Y^{-T}, one stacked solve per step (Bini, Latouche
    & Meini, *Numerical Methods for Structured Markov Chains*, 2005).  Its
    k-th iterate is the corner of the absorbing window of 2^k sites.  A
    point leaves the reduction, without stopping the others, at its first
    non-finite step or once its pivot has moved by at most ``CR_TOL``
    relative, in the Frobenius norm: two windows agree.

    At z = 1, given the trace functional ``t`` of a trace-preserving
    interior whose drift is at most 0, every fixed functional l of
    A + B + C keeps l G = l, so G = X + Q with Q the projection onto them,
    and X solves X = (I - Q) C + X (B + Q A) + X^2 A with the root 1 of a
    recurrent interior shifted to 0 (He, Meini & Rhee, SIAM J. Matrix
    Anal. Appl. 23, 2002); unshifted, a null-recurrent interior reduces
    only linearly.  Its reduced pivot is the same (B - 1 + G A)^T.

    Returns the values, their residuals ||Y - (z I - B - C Y A)^{-1}||
    and a mask of the certified points: reduced within ``CR_MAX_ITER``
    steps, residual at most ``FP_TOL`` relative to max(1, ||Y||) and, on
    the real axis away from 1, spectral radius of Y A below 1, the
    decaying branch (it is 1 at z = 1 on a recurrent interior); off the
    axis the stop test selects the branch, the limit of the windows.  A
    point that did not reduce has value NaN and residual inf.  When the
    invariant states of a trace-preserving interior drift apart no single
    shift applies, and z = 1 is not reduced: it comes back uncertified,
    NaN with residual inf.

    One SVD gives the fixed spaces of A + B + C, for the drift and for Q.
    Every norm is computed directly over the stack, and the residual's
    C Y A is one :func:`~qmcspectra.chain_model._block_product`.
    """
    zs, d = np.asarray(zs), a.shape[0]
    at_one, apart = zs == 1.0, False
    mid, down = b - np.multiply.outer(zs, np.eye(d)), np.broadcast_to(c, zs.shape + (d, d))
    phi = a + b + c
    if t is not None and at_one.any() and (
            np.linalg.norm(t @ phi - t) <= FP_TOL * np.linalg.norm(t)):
        v, ell = _fixed_spaces(phi)
        m = _drift(a, b, c, t, v)
        apart = m is None
        if not apart and m <= FP_TOL:
            q = at_one[..., None, None] * (ell.conj().T @ ell)
            mid, down = mid + q @ a, down - q @ c
    # no single shift applies to states that drift apart, so such a point
    # at 1 is not reduced at all
    live = np.flatnonzero(~(at_one & apart))
    hat = mid = np.ascontiguousarray(mid[live].swapaxes(-1, -2))
    down, up = down[live].swapaxes(-1, -2), np.broadcast_to(a.T, mid.shape)
    pivots = np.full(zs.shape + (d, d), np.nan, dtype=complex)
    with np.errstate(all="ignore"):
        for _ in range(CR_MAX_ITER):
            if not live.size:
                break
            k = _port_solve(mid, np.concatenate((down, up), axis=-1))
            kd, ku = k[..., :d], k[..., d:]
            step = up @ kd
            hat = hat - step
            mid, down, up = mid - step - down @ ku, -down @ kd, -up @ ku
            moved = np.sqrt(np.sum((step.conj() * step).real, axis=(-2, -1)))
            size = CR_TOL * np.sqrt(np.sum((hat.conj() * hat).real, axis=(-2, -1)))
            going = (moved > size) & np.isfinite(moved)  # neither settled nor overflowed
            if not going.all():
                settled = (moved <= size) & np.isfinite(size)
                pivots[live[settled]] = hat[settled]
                live, hat, mid, down, up = (x[going] for x in (live, hat, mid, down, up))
        y = -_port_solve(pivots).swapaxes(-1, -2)
    residual = _quadratic_residual(a, b, c, zs, y)
    done, certified = np.isfinite(residual), np.zeros(zs.shape, dtype=bool)
    scale = np.maximum(1.0, np.linalg.svd(y[done], compute_uv=False)[..., 0])
    radius = np.abs(np.linalg.eigvals(y[done] @ a)).max(axis=-1)
    branch = (radius < 1.0) | at_one[done] | (np.imag(zs[done]) != 0)
    certified[done] = (residual[done] <= FP_TOL * scale) & branch
    return y, residual, certified


class HomogeneousStieltjes(StieltjesEvaluator):
    """The decaying solution X of X = (z I - B - C X A)^{-1} for a
    homogeneous interior, the transform of the genuine measure.

    Every point of a ladder, real or complex, is closed by one stacked
    :func:`homogeneous_closure`; :meth:`evaluate` is the one-point ladder.
    Only at a point that the closure does not certify is the fixed point
    iterated from X = I/z, with Newton polishing when plain iteration
    stalls or contracts by less than half per step.  An iterate that
    overflows, or a fixed point whose residual is not finite, raises
    :class:`ConvergenceError` with the last finite iterate.
    """

    method = "homogeneous_fp"

    def __init__(self, a: Array, b: Array, c: Array):
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.c = np.asarray(c, dtype=complex)

    @classmethod
    def from_model(cls, model: QmcModel) -> "HomogeneousStieltjes":
        return cls(*(_homogeneous_matrix(model, role) for role in ROLES))

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

    def evaluate(self, z: complex) -> EvalResult:
        ((_, res),) = self.ladder([z])
        return res

    def ladder(self, points):
        points = list(points)
        for z, value, residual in zip(points, *self.closings(points)):
            yield z, EvalResult(value, float(residual), self.method)

    def closings(self, points) -> tuple[Array, Array]:
        """Values and residuals at every point: the stacked closure, and
        the fixed point at each point that the closure leaves uncertified."""
        y, residual, certified = homogeneous_closure(
            self.a, self.b, self.c, np.array(points, dtype=complex))
        for i in np.flatnonzero(~certified):
            y[i], residual[i] = self._fixed_point(points[i])
        return y, residual

    def _fixed_point(self, z: complex) -> tuple[Array, float]:
        d = self.a.shape[0]
        eye = np.eye(d, dtype=complex)
        x = eye / z
        last_delta = ratio = np.inf
        with np.errstate(all="ignore"):
            for it in range(10_000):
                try:
                    nxt = np.linalg.solve(z * eye - self.b - self.c @ x @ self.a, eye)
                except np.linalg.LinAlgError:
                    break  # iteration left its domain; Newton recovers
                step = nxt - x
                if not np.isfinite(step).all():
                    raise ConvergenceError(
                        f"homogeneous fixed point overflowed at z={z}",
                        x, _quadratic_residual(self.a, self.b, self.c, z, x))
                delta = float(np.linalg.norm(step, 2))
                x = nxt
                ratio, last_delta = delta / last_delta, delta
                if delta < FP_TOL:
                    break
                if it >= 200 and delta < 1e-3:
                    break
        # at the observed contraction ratio q the error left after a step
        # delta is at most delta q / (1 - q), which delta bounds only for
        # q <= 1/2; a slower contraction, or none, is finished by Newton
        if not (last_delta < FP_TOL and ratio <= 0.5):
            x = self._newton(z, x)
        residual = _quadratic_residual(self.a, self.b, self.c, z, x)
        if not np.isfinite(residual):
            raise ConvergenceError(
                f"homogeneous fixed point did not converge at z={z}: its residual is not finite",
                x, residual)
        return x, residual

    def near_axis(self, x: float, delta: float) -> Array:
        """Boundary value at x + i*delta by continuation from far above the
        axis: each rung below the first is Newton's method started from the
        value of the rung above it, which tracks the branch where the plain
        iteration is repelled.

        Rungs whose residual misses the tolerance are geometrically
        bisected, which keeps the branch tracking honest across the
        spectral edges.

        The continuation certifies only the residual, not the branch, so
        it follows the transform's branch only on a symmetrizable
        interior.  On a non-symmetrizable one it can land on another
        solution of the same equation: on ``tilted_shear_half_line`` it
        is 18.3 off a 4,000-site corner resolvent at 0.2 + 0.01i."""
        schedule = list(np.geomspace(max(10.0 * delta, 0.5), delta, 24))
        val, d_prev, k = self.evaluate(complex(x, schedule[0])).value, schedule[0], 1
        while k < len(schedule):
            z = complex(x, schedule[k])
            nxt = self._newton(z, val)
            residual = _quadratic_residual(self.a, self.b, self.c, z, nxt)
            if residual <= self.tolerance:
                val, d_prev, k = nxt, schedule[k], k + 1
                continue
            if len(schedule) > 500 or d_prev / schedule[k] < 1.0 + 1e-9:
                raise ConvergenceError(
                    f"continuation to {x}+{delta}i stalled at height {schedule[k]}",
                    nxt, residual)
            schedule.insert(k, float(np.sqrt(d_prev * schedule[k])))
        return val


class CornerStieltjes(StieltjesEvaluator):
    """Transform of a chain whose corner blocks differ from a homogeneous
    interior: the reference for the corner identity.

    With corner blocks (b0, a0) and interior down block c, the value is
    (z I - b0 - c X(z) a0)^{-1} where X is the interior evaluator.  When
    only the hold block changes and the interior evaluator is the
    homogeneous transform, this coincides with the inverse-difference
    form (X(z)^{-1} - b0)^{-1}, which is used when a0/c are omitted.
    Around ``HomogeneousStieltjes.from_model`` of a half-line whose only
    override is at site 0, it equals the auto route, ``SiteStieltjes`` at
    site 0, bit for bit.
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

    def evaluate(self, z: complex) -> EvalResult:
        inner = self.inner.evaluate(z)
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
        return EvalResult(value, residual, self.method)


def _passage_power(g: Array, phi: Array, k: int) -> Array:
    """G^k of a one-level passage G, exact at every k where the fixed
    functionals l of the interior ``phi`` = A + B + C keep l G = l within
    ``FP_TOL``, as at z = 1 on a recurrent side: there G = X + Q with
    Q = l* l and X = G - Q G, so Q X = 0 and
    G^k = X^k + (I - X)^{-1} (I - X^k) Q keeps l G^k = l to rounding,
    where the plain power, used everywhere else, loses about k roundings."""
    ell = _fixed_spaces(phi)[1]
    if not ell.size or np.linalg.norm(ell @ g - ell) > FP_TOL:
        return np.linalg.matrix_power(g, k)
    eye, q = np.eye(g.shape[0]), ell.conj().T @ ell
    x = g - q @ g
    xk = np.linalg.matrix_power(x, k)
    return xk + np.linalg.solve(eye - x, (eye - xk) @ q)


class _Elimination:
    """Block-Schur elimination of a chain toward one site j: the kernel of
    :class:`SiteStieltjes`, of its return block and of the first passage
    into j (``statistics.first_passage_gf`` and the closed reach).

    Each unbounded side is cut at the first site past every override, j
    and ``source``, and closed there by its interior, the triple in
    ``ends``: (A, B, C) above j, the mirror (C, B, A) below.  A source
    farther out on an unbounded side stands in at the first homogeneous
    site past every override and j, ``lift`` levels nearer; its
    :meth:`couplings` carry it there by G^lift (:func:`_passage_power`),
    G = C Y (A Y below) the passage one level toward j, so no sweep or
    table grows with its distance.  A bounded side, and both sides of a
    given absorbing ``window`` (lo, hi), end at an edge.  A source other
    than j keeps only its own side.  One ``block_table`` serves every sweep; ``hold`` is B_j.
    :meth:`passage` is the one first-passage assembly, and
    :meth:`closed_passage` runs it at s = 1 from the closure of each side.
    """

    def __init__(self, model: QmcModel, site: int, source: int | None = None,
                 window: tuple[int, int] | None = None):
        topo = model.topology
        self.site = site
        self.source = None if source == site else source
        self.trace_vec = model.trace_vec
        self.lift = 0
        if window is None:
            marks = [*model.overrides, site]
            above, below = max(marks) + 1, min(marks) - 1
            if self.source is not None and topo.hi is None and self.source > above:
                self.source, self.lift = above, self.source - above
            elif self.source is not None and topo.lo is None and self.source < below:
                self.source, self.lift = below, below - self.source
            marks += [] if self.source is None else [self.source]
            lo = min(marks) - 1 if topo.lo is None else topo.lo
            hi = max(marks) + 1 if topo.hi is None else topo.hi
            closed = (topo.hi is None, topo.lo is None)
        else:
            (lo, hi), closed = window, (False, False)
        free = self.source is None
        kept = (free or self.source > site, free or self.source < site)
        a, b, c = (_homogeneous_matrix(model, role) for role in ROLES)
        self.ends = tuple(end if keep and shut else None
                          for end, keep, shut in zip(((a, b, c), (c, b, a)), kept, closed))
        # a closed side starts next to its cut site, whose inverse pivot is
        # the closing; an unkept side is not swept
        self.sweeps = (range(hi - closed[0], site, -1) if kept[0] else None,
                       range(lo + closed[1], site) if kept[1] else None)
        self.lo = lo if kept[1] else site
        self.table = block_table(model, self.lo, hi if kept[0] else site)
        self.hold = self.table[1][site - self.lo]

    def couplings(self, closings=(None, None), **points) -> list:
        """The coupling into j of each kept side, above first: C_{j+1} Y A_j
        and A_{j-1} Y C_j with Y the inverse pivot next to j, or, for a
        source away from j, C_{j+1} x or A_{j-1} x with x the solution
        there for an identity source, or for G^lift at a stand-in source
        (G = C Y above, A Y below, Y the closing, which must be given then).
        Each side is one :func:`schur_sweep`
        from its far end, started from its closing (None at an edge), at
        the ``z=`` or ``s=`` points; a side with neither sites nor closing
        adds nothing.  A singular pivot raises ``np.linalg.LinAlgError``."""
        A, B, C = self.table
        k = self.site - self.lo
        out = []
        for sites, closing, end, into, back in zip(self.sweeps, closings, self.ends,
                                                   (C, A), (A, C)):
            if sites is None:
                continue
            if self.source is None:
                y = schur_sweep(self.table, self.lo, sites, closing=closing, **points)
                if y is not None:
                    out.append(_block_product(into[k - sites.step], y, back[k]))
            else:
                lifted = (_passage_power(end[2] @ closing, sum(end), self.lift) if self.lift
                          else np.eye(B[k].shape[0]))
                x = schur_sweep(self.table, self.lo, sites, source_site=self.source,
                                source=lifted, closing=closing, **points)
                out.append(_block_product(into[k - sites.step], x, None))
        return out

    def passage(self, s, closings=(None, None)) -> Array:
        """First-passage block into j at one ``s`` or an array of them, of
        shape ``np.shape(s) + (d, d)``: F_ji(s) = s (coupling of the source's
        side) from the source i, or F_jj(s) = s (B_j + s (sum of the
        couplings)) without one, from the :meth:`couplings` at ``s=``."""
        s3 = np.asarray(s)[..., None, None]
        couplings = self.couplings(closings, s=s)
        if self.source is not None:
            (acc,) = couplings
        else:
            acc = self.hold
            for coupling in couplings:
                acc = acc + s3 * coupling
        return s3 * acc

    def closed_passage(self) -> tuple[Array, float] | None:
        """(F(1), closure residual): :meth:`passage` at s = 1 with each
        closed side closed by one :func:`homogeneous_closure` call at the
        single point 1, given the trace functional so that the root of a
        recurrent interior is shifted; the residual sums theirs (0 without
        a closure).  None when a closure is not certified or a pivot is
        singular."""
        closings, residual = [], 0.0
        for end in self.ends:
            if end is None:
                closings.append(None)
                continue
            (y,), (r,), (certified,) = homogeneous_closure(*end, np.ones(1), self.trace_vec)
            if not certified:
                return None
            closings.append(y)
            residual += float(r)
        try:
            return self.passage(1.0, closings), residual
        except np.linalg.LinAlgError:
            return None


class SiteStieltjes(StieltjesEvaluator):
    """Diagonal block ((z I - Phi)^{-1})_{jj} at ``site`` of a segment,
    half-line or line model, exact for every eventually-homogeneous chain.

    Each unbounded side is homogeneous beyond the override sites and is
    closed there by its interior: ``HomogeneousStieltjes(A, B, C)`` above
    and the mirrored ``HomogeneousStieltjes(C, B, A)`` below.  The
    elimination toward ``site`` (:class:`_Elimination`) sweeps the sites
    between each closure (or bounded edge) and ``site``, and the last
    pivot is solved at ``site``.  The residual sums the defining-equation
    residual of each closure and that of the last pivot solve.

    Every ladder, real or complex, runs stacked: each closure closes all
    its points at once (:meth:`HomogeneousStieltjes.closings`), then one
    stacked sweep per side and one stacked pivot solve give every rung;
    :meth:`evaluate` is the one-point ladder.

    :meth:`return_block` is the first-return block F_jj(1) of the same
    elimination (:meth:`_Elimination.closed_passage`), each side closed
    once at z = 1, shifted when the drift of the interior allows.
    """

    method = "closed"

    def __init__(self, model: QmcModel, site: int = 0):
        if not model.topology.contains(site):
            raise ValueError(f"site {site} outside the {model.topology.kind} topology")
        self.elimination = _Elimination(model, site)
        self.closures = tuple(None if end is None else HomogeneousStieltjes(*end)
                              for end in self.elimination.ends)

    def evaluate(self, z: complex) -> EvalResult:
        ((_, res),) = self.ladder([z])
        return res

    def ladder(self, points):
        points = list(points)
        closings, residuals = zip(*((None, 0.0) if fp is None else fp.closings(points)
                                    for fp in self.closures))
        # the pivot z I - B_j - (couplings of both sides) at every point
        zs, hold = np.array(points, dtype=complex), self.elimination.hold
        eye = np.eye(hold.shape[0], dtype=complex)
        core = np.multiply.outer(zs, eye) - hold
        for coupling in self.elimination.couplings(closings, z=zs):
            core = core - coupling
        values = np.linalg.solve(core, np.broadcast_to(eye, core.shape))
        residual = np.linalg.norm(core @ values - eye, 2, axis=(-2, -1)) + sum(residuals)
        for z, value, r in zip(points, values, residual):
            yield z, EvalResult(value, float(r), self.method)

    def return_block(self) -> tuple[Array, float] | None:
        """First-return block F_jj(1) at ``site`` with the summed residual
        of its closures at z = 1 (0 on a segment): the
        :meth:`_Elimination.closed_passage` of its elimination."""
        return self.elimination.closed_passage()


def transform_evaluator(model: QmcModel, method: str, window: int = 800) -> StieltjesEvaluator:
    """The transform evaluator of a chain, the one route policy.

    ``method="auto"`` gives :class:`SiteStieltjes` at site 0 for every
    model; it is the route of ``qmc stieltjes``.  ``method="truncated"``
    gives the window-doubled truncation starting at ``window``, a library
    cross-check on chains bounded from below that the CLI does not offer.
    Raises ``ValueError`` for any other method or a model the route does
    not admit.
    """
    if method == "auto":
        return SiteStieltjes(model)
    if method == "truncated":
        return TruncatedStieltjes(model, window=window)
    raise ValueError(f"unknown method {method!r}")


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
