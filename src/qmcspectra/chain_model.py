"""Block-tridiagonal quantum Markov chains on a segment, the half-line or
the integer line.

A model stores one superoperator triple per site: ``A_n`` moves mass from
site ``n`` to ``n+1``, ``B_n`` holds at ``n`` and ``C_n`` moves from ``n``
to ``n-1``.  Direct (truncated) linear algebra on the assembled block
matrix is the brute-force oracle against which every spectral formula in
the package is checked; :func:`schur_sweep` is the one block-tridiagonal
kernel of the exact and windowed routes, closed either by an absorbing
edge or by the inverse pivot of a homogeneous tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .quantum_core import (
    TOL_TP,
    Array,
    Density,
    KrausMap,
    as_square,
    check_tp_column,
    compact_form,
    compact_unvec,
    compact_vec,
    superop_of,
    trace_functional,
    unvec,
    vec,
)

SEGMENT = "segment"
HALF_LINE = "half_line"
LINE = "line"

# Default truncation radius for infinite topologies; nearest-neighbor
# locality makes any n-step quantity at site 0 exact once the window
# radius exceeds n.
DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class Topology:
    kind: str
    num_sites: int | None = None

    def __post_init__(self):
        if self.kind not in (SEGMENT, HALF_LINE, LINE):
            raise ValueError(f"unknown topology {self.kind!r}")
        n = self.num_sites
        if n is not None and (isinstance(n, bool) or not isinstance(n, (int, np.integer))):
            raise ValueError(f"num_sites must be an integer, got {n!r}")
        if self.kind == SEGMENT:
            if self.num_sites is None or self.num_sites < 1:
                raise ValueError("segment needs num_sites >= 1")
        elif self.num_sites is not None:
            raise ValueError("num_sites only applies to segments")

    @property
    def lo(self) -> int | None:
        return None if self.kind == LINE else 0

    @property
    def hi(self) -> int | None:
        return self.num_sites - 1 if self.kind == SEGMENT else None

    def contains(self, site: int) -> bool:
        if self.lo is not None and site < self.lo:
            return False
        if self.hi is not None and site > self.hi:
            return False
        return True

    def clip(self, lo: int, hi: int) -> tuple[int, int]:
        """The window [lo, hi] clipped to the sites of the topology."""
        if self.lo is not None:
            lo = max(lo, self.lo)
        if self.hi is not None:
            hi = min(hi, self.hi)
        return lo, hi


def segment(num_sites: int) -> Topology:
    return Topology(SEGMENT, num_sites)


def half_line() -> Topology:
    return Topology(HALF_LINE)


def line() -> Topology:
    return Topology(LINE)


@dataclass(frozen=True)
class Block:
    """One superoperator block, optionally with its Kraus effects."""

    matrix: Array
    effects: tuple[Array, ...] | None = None

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def block_from_kraus(effects, mode: str = "full") -> Block:
    """Build a block from effect matrices in full or compact mode."""
    km = KrausMap(effects)
    if mode == "full":
        return Block(superop_of(km), km.effects)
    if mode == "compact":
        if km.dim != 2:
            raise ValueError("compact mode is restricted to 2x2 effects")
        mat = sum(compact_form(e) for e in km.effects)
        return Block(np.asarray(mat, dtype=complex), km.effects)
    raise ValueError(f"unknown mode {mode!r}")


def block_from_matrix(matrix) -> Block:
    return Block(as_square(matrix, "block"))


ROLES = ("A", "B", "C")


@dataclass(frozen=True)
class QmcModel:
    """A nearest-neighbor QMC with homogeneous blocks plus sparse overrides.

    ``blocks[role]`` is the homogeneous block (or None for zero);
    ``overrides[site][role]`` replaces it at a single site.  ``block_dim``
    is the size of the blocks, which must all agree, and ``dim`` is N for
    full-mode blocks of size N^2, 2 for compact-mode blocks of size 3 and
    None for abstract blocks (e.g. folded chains) of any size.
    """

    topology: Topology
    mode: str
    blocks: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    substochastic: bool = False
    trace_vec: Array | None = None
    block_dim: int = field(init=False)
    dim: int | None = field(init=False)

    def __post_init__(self):
        if self.mode not in ("full", "compact", "abstract"):
            raise ValueError(f"unknown mode {self.mode!r}")
        overridden = [b for ov in self.overrides.values() for b in ov.values()]
        sizes = {b.dim for b in [*self.blocks.values(), *overridden] if b is not None}
        if not sizes:
            raise ValueError("model defines no blocks")
        if len(sizes) > 1:
            raise ValueError("inconsistent block dimensions")
        (block_dim,) = sizes
        dim = {"full": round(block_dim**0.5), "compact": 2}.get(self.mode)
        if self.mode == "full" and dim * dim != block_dim:
            raise ValueError("full-mode blocks must be N^2-dimensional")
        if self.mode == "compact" and block_dim != 3:
            raise ValueError("compact-mode blocks must be 3x3")
        object.__setattr__(self, "block_dim", block_dim)
        object.__setattr__(self, "dim", dim)
        tv = self.trace_vec
        if tv is None:
            if self.mode == "abstract":
                # no canonical trace on abstract blocks; default to the
                # all-ones functional unless the caller supplies one
                tv = np.ones(self.block_dim)
            else:
                tv = trace_functional(self.block_dim, self.mode)
        tv = np.asarray(tv, dtype=complex).reshape(-1)
        if tv.shape[0] != self.block_dim:
            raise ValueError("trace vector has wrong length")
        if not np.isfinite(tv).all():
            raise ValueError("trace vector has non-finite entries")
        tv.setflags(write=False)
        object.__setattr__(self, "trace_vec", tv)

    # -- block lookup -------------------------------------------------

    def _raw_block(self, site: int, role: str) -> Block | None:
        ov = self.overrides.get(site)
        if ov is not None and role in ov:
            return ov[role]
        return self.blocks.get(role)

    def block_object(self, site: int, role: str) -> Block | None:
        """The block at a site, or None when absent or clipped at an edge.

        A-transitions out of the top edge and C-transitions out of the
        bottom edge do not exist on bounded topologies.
        """
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if not self.topology.contains(site):
            return None
        if role == "A" and not self.topology.contains(site + 1):
            return None
        if role == "C" and not self.topology.contains(site - 1):
            return None
        return self._raw_block(site, role)

    def block(self, site: int, role: str) -> Array:
        blk = self.block_object(site, role)
        if blk is None:
            return np.zeros((self.block_dim, self.block_dim), dtype=complex)
        return blk.matrix

    # -- validation ---------------------------------------------------

    def column_defect(self, site: int) -> float:
        """Trace-preservation defect of the full column leaving a site.

        Uses the Kraus criterion ``|| sum K*K - I ||`` when every outgoing
        block carries effects, otherwise the defect of the trace
        functional under the summed superoperators.  Blocks clipped at an
        edge count as missing mass.
        """
        roles = [r for r in ROLES if self._raw_block(site, r) is not None]
        outgoing = [self.block_object(site, r) for r in roles]
        present = [b for b in outgoing if b is not None]
        if present and all(b.effects is not None for b in present):
            _, defect = check_tp_column([b.effects for b in present])
            return defect
        total = sum(
            (b.matrix for b in present),
            np.zeros((self.block_dim, self.block_dim), dtype=complex),
        )
        t = self.trace_vec
        return float(np.linalg.norm(t @ total - t))

    def tp_report(self) -> dict[int, float]:
        """Column defects for representative sites: every site of a
        segment; otherwise the overrides, 0, 1, 2 and 4, mirrored on a
        line."""
        topo = self.topology
        if topo.kind == SEGMENT:
            sites = list(range(topo.num_sites))
        else:
            candidates = set(self.overrides)
            candidates.update({0, 1, 2, 4})
            if topo.kind == LINE:
                candidates.update({-1, -2, -4})
            sites = sorted(s for s in candidates if topo.contains(s))
        return {s: self.column_defect(s) for s in sites}

    def validate(self) -> dict[int, float]:
        report = self.tp_report()
        # a NaN defect (blocks whose sum overflows) is broken too
        bad = {s: d for s, d in report.items() if not d <= TOL_TP}
        if bad and not self.substochastic:
            worst = max(bad.values())
            raise ValueError(
                f"columns {sorted(bad)} break trace preservation "
                f"(worst defect {worst:.3e}); set substochastic=true to allow"
            )
        # substochastic allows a defect, but no non-finite one, which JSON cannot carry
        broken = sorted(s for s, d in report.items() if not np.isfinite(d))
        if broken:
            raise ValueError(f"columns {broken} have non-finite defects")
        return report

    # -- convenience --------------------------------------------------

    def state_vec(self, rho) -> Array:
        """Representation vector of a density block for this model.

        Raises ``ValueError`` when its length is not ``block_dim``."""
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim == 1:
            v = rho
        elif self.mode == "compact":
            v = compact_vec(rho)
        else:
            v = vec(rho)
        if v.shape != (self.block_dim,):
            raise ValueError(
                f"density of shape {rho.shape} gives a state vector of shape "
                f"{v.shape}, but the model's blocks act on shape ({self.block_dim},)"
            )
        return v

    def state_matrix(self, v) -> Array:
        return compact_unvec(v) if self.mode == "compact" else unvec(v)

    def trace_of(self, v) -> float:
        return complex(self.trace_vec @ np.asarray(v).reshape(-1)).real


def build_model(spec: dict) -> QmcModel:
    """Build and validate a model from its dictionary form.

    See :func:`model_to_dict` for the schema.  Trace-preservation defects
    are reported; columns violating TP raise unless the model is flagged
    substochastic.
    """
    try:
        kind = spec["topology"]
        mode = spec.get("mode", "full")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model spec missing field: {exc}") from exc
    topo = Topology(kind, spec.get("num_sites"))
    substochastic = spec.get("substochastic", False)
    if not isinstance(substochastic, bool):
        raise ValueError(f"substochastic must be true or false, got {substochastic!r}")

    def parse_block(bs) -> Block:
        if not isinstance(bs, dict):
            raise ValueError(f"a blockspec is an object, got {bs!r}")
        if "kraus" in bs:
            if not isinstance(bs["kraus"], (list, tuple)):
                raise ValueError(f"kraus must be a list of matrices, got {bs['kraus']!r}")
            return block_from_kraus([decode_matrix(k) for k in bs["kraus"]], mode)
        if "matrix" in bs:
            return block_from_matrix(decode_matrix(bs["matrix"]))
        raise ValueError("blockspec needs 'kraus' or 'matrix'")

    homogeneous = spec.get("homogeneous") or {}
    if not isinstance(homogeneous, dict):
        raise ValueError("homogeneous must map block roles to blockspecs")
    blocks = {}
    for role, bs in homogeneous.items():
        if role not in ROLES:
            raise ValueError(f"unknown block role {role!r}")
        if bs is not None:
            blocks[role] = parse_block(bs)
    overrides = {}
    entries = spec.get("overrides") or []
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"overrides must be a list of objects, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict) or "site" not in entry:
            raise ValueError(f"an override is an object with a 'site', got {entry!r}")
        site = entry["site"]
        if isinstance(site, bool) or not isinstance(site, (int, np.integer)):
            raise ValueError(f"override site must be an integer, got {site!r}")
        if not topo.contains(site):
            raise ValueError(f"override site {site} outside topology")
        if site in overrides:
            raise ValueError(f"override site {site} appears twice")
        unknown = [key for key in entry if key != "site" and key not in ROLES]
        if unknown:
            raise ValueError(f"unknown block role {unknown[0]!r} in the override of site {site}")
        overrides[site] = {
            role: parse_block(entry[role]) for role in ROLES if role in entry
        }

    trace_vec = None
    if mode == "abstract" and "trace" in spec:
        if not isinstance(spec["trace"], (list, tuple)):
            raise ValueError(f"trace must be a list of entries, got {spec['trace']!r}")
        trace_vec = np.array([_decode_entry(e) for e in spec["trace"]])
    model = QmcModel(
        topology=topo,
        mode=mode,
        blocks=blocks,
        overrides=overrides,
        substochastic=substochastic,
        trace_vec=trace_vec,
    )
    for key in ("dim", "block_dim"):
        if spec.get(key) not in (None, getattr(model, key)):
            raise ValueError(f"{key} disagrees with the supplied blocks")
    model.validate()
    return model


def _decode_entry(e) -> complex:
    pair = isinstance(e, (list, tuple))
    if pair and len(e) != 2:
        raise ValueError("complex entries are [re, im] pairs")
    parts = e if pair else (e,)
    # complex() would read JSON true/false as 1 and 0 and parse "1+2j"
    if not any(isinstance(p, (bool, str)) for p in parts):
        try:
            return complex(*parts)
        except TypeError:
            pass
    raise ValueError(f"an entry is a number or an [re, im] pair, got {e!r}")


def decode_matrix(rows) -> Array:
    """Decode a row-major nested array whose entries are [re, im] pairs
    or bare reals."""
    try:
        return np.array([[_decode_entry(e) for e in row] for row in rows], dtype=complex)
    except TypeError:
        raise ValueError(f"a matrix is a list of rows, got {rows!r}") from None


def encode_matrix(m: Array) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[e.real, e.imag] for e in row] for row in m]


def model_to_dict(model: QmcModel) -> dict:
    def encode_block(b: Block | None):
        if b is None:
            return None
        if b.effects is not None:
            return {"kraus": [encode_matrix(e) for e in b.effects]}
        return {"matrix": encode_matrix(b.matrix)}

    out = {
        "topology": model.topology.kind,
        "dim": model.dim,
        "mode": model.mode,
        "substochastic": model.substochastic,
    }
    if model.topology.kind == SEGMENT:
        out["num_sites"] = model.topology.num_sites
    if model.mode == "abstract":
        out["trace"] = [[v.real, v.imag] for v in model.trace_vec]
    if model.blocks:
        out["homogeneous"] = {
            role: encode_block(b) for role, b in model.blocks.items()
        }
    if model.overrides:
        out["overrides"] = [
            {"site": s, **{r: encode_block(b) for r, b in ov.items()}}
            for s, ov in sorted(model.overrides.items())
        ]
    return out


def load_model(path) -> QmcModel:
    with open(path) as fh:
        return build_model(json.load(fh))


def load_density_matrix(path) -> Array:
    """The matrix of a density file ``{"matrix": ...}``, validated as a
    :class:`~qmcspectra.quantum_core.Density`: square, finite, Hermitian,
    positive semidefinite and of unit trace.  Any malformed file raises
    ``ValueError``."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError(f'a density file is an object {{"matrix": ...}}, got {data!r}')
    return Density(decode_matrix(data["matrix"])).matrix


# ---------------------------------------------------------------------
# Truncation and dense assembly
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense block-tridiagonal assembly of a site window with absorbing
    boundary outside it."""

    model: QmcModel
    lo: int
    hi: int
    matrix: Array

    @property
    def num_sites(self) -> int:
        return self.hi - self.lo + 1

    def block(self, j: int, i: int) -> Array:
        d = self.model.block_dim
        jj, ii = j - self.lo, i - self.lo
        return self.matrix[jj * d : (jj + 1) * d, ii * d : (ii + 1) * d]


def truncate(model: QmcModel, lo: int, hi: int) -> TruncatedOperator:
    """Assemble the dense window [lo, hi] of the block matrix."""
    lo, hi = model.topology.clip(lo, hi)
    if hi < lo:
        raise ValueError("empty truncation window")
    d = model.block_dim
    S = hi - lo + 1
    A, B, C = block_table(model, lo, hi)
    out = np.zeros((S * d, S * d), dtype=complex)
    for k in range(S):
        out[k * d : (k + 1) * d, k * d : (k + 1) * d] = B[k]
        if k + 1 < S:
            out[(k + 1) * d : (k + 2) * d, k * d : (k + 1) * d] = A[k]
            out[k * d : (k + 1) * d, (k + 1) * d : (k + 2) * d] = C[k + 1]
    return TruncatedOperator(model, lo, hi, out)


def segment_window(model: QmcModel, lo: int, hi: int) -> QmcModel:
    """The window [lo, hi] as a segment with sites relabeled to 0..hi-lo,
    in the chain's sparse form: its homogeneous blocks and the overrides
    inside the window.  The segment's own edges clip A at hi and C at lo,
    the absorbing boundary.  An empty window, or one not inside the
    topology, raises ``ValueError``."""
    if hi < lo or model.topology.clip(lo, hi) != (lo, hi):
        raise ValueError(f"window [{lo}, {hi}] not inside the topology")
    return QmcModel(
        topology=segment(hi - lo + 1),
        mode=model.mode,
        blocks=dict(model.blocks),
        overrides={s - lo: ov for s, ov in model.overrides.items() if lo <= s <= hi},
        substochastic=True,
        trace_vec=model.trace_vec,
    )


# ---------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------


class LatticeState:
    """Mass distribution over sites: one representation vector per site."""

    def __init__(self, offset: int, data: Array):
        self.offset = int(offset)
        self.data = np.asarray(data, dtype=complex)
        if self.data.ndim != 2:
            raise ValueError("state data must be (num_sites, block_dim)")

    @classmethod
    def from_density(cls, model: QmcModel, site: int, rho) -> "LatticeState":
        if not model.topology.contains(site):
            raise ValueError(f"site {site} outside topology")
        return cls(site, model.state_vec(rho)[None, :])

    @property
    def sites(self) -> range:
        return range(self.offset, self.offset + self.data.shape[0])

    def site_vector(self, site: int) -> Array:
        if site in self.sites:
            return self.data[site - self.offset]
        return np.zeros(self.data.shape[1], dtype=complex)

    def items(self):
        for k, v in zip(self.sites, self.data):
            yield k, v


def _homogeneous_matrix(model: QmcModel, role: str) -> Array:
    blk = model.blocks.get(role)
    if blk is None:
        return np.zeros((model.block_dim, model.block_dim), dtype=complex)
    return blk.matrix


def evolve(model: QmcModel, state: LatticeState, n: int) -> LatticeState:
    """Apply the block recursion n times over an auto-growing window."""
    if n < 0:
        raise ValueError("step count must be nonnegative")
    out = state
    for _ in range(n):
        out = step(model, out)
    return out


def step(model: QmcModel, state: LatticeState) -> LatticeState:
    """One step of the block recursion.  The window grows by one site on
    each side, clipped to the topology; mass sent past a bounded edge is
    dropped, which is the absorbing boundary."""
    first, olds, n = state.offset, state.data, len(state.data)
    # row r holds site first - 1 + r; B holds mass, A moves it up, C down
    new = np.zeros((n + 2, model.block_dim), dtype=complex)
    for role, shift in (("B", 1), ("A", 2), ("C", 0)):
        part = olds @ _homogeneous_matrix(model, role).T
        for site, ov in model.overrides.items():
            if role in ov and 0 <= site - first < n:
                part[site - first] = ov[role].matrix @ olds[site - first]
        new[shift : shift + n] += part
    lo, hi = model.topology.clip(first - 1, first + n)
    return LatticeState(lo, new[lo - first + 1 : hi - first + 2])


def total_trace(model: QmcModel, state: LatticeState) -> float:
    return float((state.data @ model.trace_vec).sum().real)


def site_prob(model: QmcModel, i: int, j: int, rho, n: int) -> float:
    """Probability of finding the walker at site j after n steps from a
    density concentrated at site i."""
    return float(site_prob_series(model, i, j, rho, n)[n])


def site_prob_series(model: QmcModel, i: int, j: int, rho, n_max: int) -> Array:
    """p_{ji}(n) for n = 0..n_max in one sweep."""
    if not model.topology.contains(i) or not model.topology.contains(j):
        raise ValueError("site outside topology")
    if n_max < 0:
        raise ValueError("step count must be nonnegative")
    state = LatticeState.from_density(model, i, rho)
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        out[n] = model.trace_of(state.site_vector(j))
        if n < n_max:
            state = step(model, state)
    return out


# ---------------------------------------------------------------------
# Resolvent / generating-function blocks on truncations
# ---------------------------------------------------------------------


def resolvent_block(
    model: QmcModel,
    j: int,
    i: int,
    s: complex,
    window: int = DEFAULT_WINDOW,
) -> Array:
    """Block (j, i) of (I - s Phi)^(-1) on the truncated window.

    This is the generating function of the n-step blocks from i to j,
    solved densely on the :func:`truncate` assembly of the window
    [-window, window] on a line, [0, window] on a half-line, clipped to
    a segment.  The window must exceed the mixing depth at the evaluation
    point for the value to represent the untruncated chain; it is the
    reference that the exact routes are tested against.
    """
    lo, hi = model.topology.clip(-window, window)
    if not (lo <= i <= hi and lo <= j <= hi):
        raise ValueError("requested sites outside truncation window")
    trunc = truncate(model, lo, hi)
    d = model.block_dim
    n = trunc.matrix.shape[0]
    rhs = np.zeros((n, d), dtype=complex)
    ii = i - lo
    rhs[ii * d : (ii + 1) * d] = np.eye(d)
    try:
        sol = np.linalg.solve(np.eye(n) - s * trunc.matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular resolvent solve at s={s} on window [{lo}, {hi}]"
        ) from exc
    jj = j - lo
    return sol[jj * d : (jj + 1) * d]


def block_table(model: QmcModel, lo: int, hi: int) -> tuple[list, list, list]:
    """The blocks A, B, C of the sites lo..hi as three lists, entry k
    belonging to site lo + k.

    Every entry equals ``model.block(lo + k, role)``.  Only the override
    sites and the edges of the topology are looked up one by one; every
    other entry is a reference to the one homogeneous block.  Sweeps
    index these lists instead of calling ``model.block`` per site.
    """
    topo = model.topology
    if hi < lo or not (topo.contains(lo) and topo.contains(hi)):
        raise ValueError(f"window [{lo}, {hi}] not inside the topology")
    special = [k for k in (*model.overrides, topo.lo, topo.hi) if k is not None and lo <= k <= hi]
    table = []
    for role in ROLES:
        row = [_homogeneous_matrix(model, role)] * (hi - lo + 1)
        for site in special:
            row[site - lo] = model.block(site, role)
        table.append(row)
    return tuple(table)


def _block_product(left: Array | None, stack: Array, right: Array | None) -> Array:
    """``left @ stack @ right`` for a stack of blocks over any leading axes
    and one block on each side, as two 2-D GEMMs in matmul's order: the
    transposed rows times ``left.T``, then the rows times ``right``, where
    stacked matmul makes one small product per point.  ``None`` omits a
    factor."""
    lead, n = stack.shape[:-2], stack.shape[-1]
    if left is not None:
        rows = stack.swapaxes(-1, -2).reshape(-1, stack.shape[-2]) @ left.T
        stack = rows.reshape(lead + (n, -1)).swapaxes(-1, -2)
    if right is not None:
        stack = (stack.reshape(-1, n) @ right).reshape(lead + (stack.shape[-2], -1))
    return stack


def schur_sweep(
    table: tuple,
    lo: int,
    sites: range,
    *,
    z: complex | Array | None = None,
    s: complex | Array | None = None,
    source_site: int | None = None,
    source: Array | None = None,
    closing: Array | None = None,
) -> Array:
    """Block-Schur (block-Thomas) elimination over ``sites`` of a window.

    ``table`` is the window's :func:`block_table`, entry 0 at site ``lo``.
    The operator is z I - Phi when ``z`` is given and I - s Phi when
    ``s`` is, restricted to ``sites``: rows outside them are dropped.
    ``sites`` runs in elimination order, ascending or descending.  The
    points ``z`` or ``s`` are one value or an array; the sweep runs once
    for all of them, with one stacked solve per site, and the result has
    shape ``np.shape(points) + (d, d)``.  The coupling to the eliminated
    neighbour and the source's path are 2-D GEMMs over the point stack
    (:func:`_block_product`).  Without a source the result is
    the inverse of the last pivot, the diagonal block of the restricted
    inverse at the last site.  With ``source``, the right-hand-side block
    at ``source_site`` (zero elsewhere), it is the solution at the last site.
    The sweep starts from an absorbing edge unless ``closing`` is given:
    the inverse pivot of the already-eliminated neighbour before the
    first site, which must lie in the table.  An empty ``sites`` returns
    ``closing``.  A singular pivot raises ``np.linalg.LinAlgError``
    naming the site, the points and the window.
    """
    A, B, C = table
    step = sites.step
    if closing is not None and sites and not 0 <= sites[0] - step - lo < len(B):
        raise ValueError(f"closing neighbour of site {sites[0]} outside the table")
    # block from the previously eliminated site into this one, and back
    into, back = (A, C) if step > 0 else (C, A)
    eye = np.eye(B[0].shape[0], dtype=complex)
    if s is None:
        name, points = "z", np.asarray(z)
        hop, diag = None, points[..., None, None] * eye
    else:
        name, points = "s", np.asarray(s)
        hop = points[..., None, None]
        diag = np.broadcast_to(eye, hop.shape[:-2] + eye.shape)
    rhs = np.broadcast_to(eye, diag.shape)
    Y, x = closing, None
    for k in sites:
        m = diag - (B[k - lo] if hop is None else hop * B[k - lo])
        if Y is not None:
            c = _block_product(into[k - step - lo], Y, back[k - lo])
            m = m - (c if hop is None else (hop * hop) * c)
        try:
            Y = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            # an exactly zero LU pivot, the case solve rejects, gives det 0
            bad = np.atleast_1d(points)[np.atleast_1d(np.linalg.det(m) == 0)]
            raise np.linalg.LinAlgError(
                f"singular block-Schur pivot at site {k} for {name} in {bad.tolist()} "
                f"on window [{lo}, {lo + len(B) - 1}]"
            ) from None
        if k == source_site:
            x = _block_product(None, Y, source)
        elif x is not None:
            c = _block_product(into[k - step - lo], x, None)
            x = Y @ (c if hop is None else hop * c)
    return Y if source is None else x


def corner_resolvent(model: QmcModel, z: complex | Array, depth: int) -> Array:
    """Corner block ((z I - Phi)^(-1))_{00} of the depth-site truncation.

    Evaluated by backward Schur elimination from the far end
    (:func:`schur_sweep`), which is exact for the truncated operator and
    costs O(depth) small solves.  ``z`` is one point or an array of
    points; the sweep runs once for all of them, with one stacked solve
    per site, and the result has shape ``np.shape(z) + (d, d)``.  Only
    defined for half-line or segment topologies.
    """
    if model.topology.kind == LINE:
        raise ValueError("corner resolvent needs a bounded-from-below chain")
    _, hi = model.topology.clip(0, depth - 1)
    return schur_sweep(block_table(model, 0, hi), 0, range(hi, -1, -1), z=z)
