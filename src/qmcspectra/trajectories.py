"""Monte Carlo unraveling of open quantum walks.

A trajectory carries a pure lattice position plus a conditioned internal
density; at each step one Kraus branch (direction, effect) is drawn with
probability Tr(K rho K*), the state is renormalized, and substochastic
columns kill the trajectory with the missing mass.  Branch mass above one
has no such reading and raises ``ArithmeticError``.  One walker steps a
batch of trajectories for both samplers: a path is a batch of one, and
the ensemble, an independent oracle for the site occupations of direct
evolution, counts sites in chunks of ``CHUNK`` trajectories.  The chunks
run on as many threads as there are chunks and processors this process
may use (``os.sched_getaffinity``, else ``os.cpu_count``).

Randomness comes from the counter-based Philox4x64-10 generator keyed by
(seed, trajectory index): trajectory t consumes the stream of
``numpy.random.Generator(Philox(key=[seed, t])).random``, bit for bit, so
the ensemble is independent of evaluation order, chunking and worker
count.  No generator object is built: one vectorized Philox evaluation in
uint64 arithmetic draws the streams of a whole chunk of trajectories.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain_model import QmcModel
from .quantum_core import Array

DEAD = np.iinfo(np.int64).min
NEG_TOL = 1e-12
MASS_TOL = 1e-9
CHUNK = 20_000  # trajectories per run; bounds the scratch of one run


def _integer(name: str, value) -> int:
    """``value`` as a Python int; ``ValueError`` for anything that is not
    an integer (a float such as 1.5 is not silently truncated)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class TrajectoryConfig:
    model: QmcModel
    site: int
    rho: Array
    steps: int
    n_traj: int
    seed: int = 0

    def __post_init__(self):
        for name in ("site", "steps", "n_traj", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.model.mode != "full":
            raise ValueError("trajectory sampling needs a full-mode model")
        if not self.model.topology.contains(self.site):
            raise ValueError(f"site {self.site} outside topology")
        if self.steps < 0 or self.n_traj < 1:
            raise ValueError("need steps >= 0 and n_traj >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.model.dim, self.model.dim):
            raise ValueError("density has wrong shape for the model")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class OccupationEstimate:
    """Monte Carlo site-occupation table with standard errors."""

    site_lo: int
    means: Array  # (steps + 1, num_sites)
    stderrs: Array
    n_traj: int
    seed: int

    def _at(self, table: Array, step: int, site: int) -> float:
        k = site - self.site_lo
        return float(table[step, k]) if 0 <= k < table.shape[1] else 0.0

    def mean(self, step: int, site: int) -> float:
        return self._at(self.means, step, site)

    def stderr(self, step: int, site: int) -> float:
        return self._at(self.stderrs, step, site)

    def sites(self) -> range:
        return range(self.site_lo, self.site_lo + self.means.shape[1])


def _branches(model: QmcModel, site: int):
    """(shift, effect) branches leaving a site; every present block must
    expose Kraus effects."""
    out = []
    for role, shift in (("C", -1), ("B", 0), ("A", 1)):
        blk = model.block_object(site, role)
        if blk is None:
            continue
        if blk.effects is None:
            raise ValueError(
                f"block {role} at site {site} has no Kraus effects; "
                f"trajectory unraveling needs an OQW-form model"
            )
        for k in blk.effects:
            out.append((shift, k))
    return out


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC '11): round multipliers
# and Weyl key increments
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
PHILOX_ROUNDS = 10
LOW32 = np.uint64(0xFFFFFFFF)


def _mulhi(a: Array, m: int) -> Array:
    """High 64 bits of the 128-bit products a * m, through 32-bit halves
    with wrapping uint64 arithmetic."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    lo = a & LOW32
    hi = a >> np.uint64(32)
    cross = lo * m_lo
    cross >>= np.uint64(32)
    lo *= m_hi
    cross += lo
    np.multiply(hi, m_lo, out=lo)
    hi *= m_hi
    # cross <= (2**32 - 1)**2 + 2 * (2**32 - 1) = 2**64 - 1: it never wraps
    cross += lo & LOW32
    lo >>= np.uint64(32)
    hi += lo
    cross >>= np.uint64(32)
    hi += cross
    return hi


def _philox(seed: int, t0: int, t1: int, blocks: int) -> list[Array]:
    """The four output words, each (t1 - t0, blocks), of Philox4x64-10
    under keys (seed, t) for t in [t0, t1) and counters (b, 0, 0, 0) for
    b = 1..blocks.

    All (key, block) pairs run through the rounds at once, in place: a
    round leaves new word i in the slot of old word i + 1, so after r
    rounds word i lies in slot (i + r) % 4.
    """
    x = np.zeros((4, t1 - t0, blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    key0 = seed
    key1 = np.arange(t0, t1, dtype=np.uint64)[:, None]
    for r in range(PHILOX_ROUNDS):
        if r:
            key0 = (key0 + PHILOX_W[0]) % 2**64
            key1 += np.uint64(PHILOX_W[1])
        c0, c1, c2, c3 = (x[(i + r) % 4] for i in range(4))
        c1 ^= _mulhi(c2, PHILOX_M[1])
        c1 ^= np.uint64(key0)
        c2 *= np.uint64(PHILOX_M[1])
        c3 ^= _mulhi(c0, PHILOX_M[0])
        c3 ^= key1
        c0 *= np.uint64(PHILOX_M[0])
    return [x[(i + PHILOX_ROUNDS) % 4] for i in range(4)]


def _stream_uniforms(seed: int, t0: int, t1: int, steps: int) -> Array:
    """Uniforms (t1 - t0, steps): row t - t0 is exactly
    ``Generator(Philox(key=[seed, t])).random(steps)``.

    numpy increments the block counter before each block, so block b of a
    stream is Philox4x64-10 of counter (b, 0, 0, 0) from b = 1; its four
    words x become (x >> 11) * 2**-53 in order, and the tail of the last
    block is dropped.  The keys run in slices of about t1 - t0 (key, block)
    pairs, so the scratch grows with the number of trajectories and not
    with their length.
    """
    n, blocks = t1 - t0, -(-steps // 4)
    out = np.empty((n, steps))
    rows = -(-n // max(1, blocks))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        for i, word in enumerate(_philox(seed, t0 + a, t0 + b, blocks)):
            dest = out[a:b, i::4]
            np.multiply(word[:, : dest.shape[1]] >> np.uint64(11), 2.0**-53, out=dest)
    return out


def _window(config: TrajectoryConfig) -> tuple[int, int]:
    """Lowest and highest site a trajectory can reach in config.steps."""
    return config.model.topology.clip(config.site - config.steps, config.site + config.steps)


def _step(model: QmcModel, sites: Array, states: Array, r: Array) -> None:
    """Advance trajectories one step in place, the one branch-selection
    step of both samplers.

    ``sites`` (n,) and ``states`` (n, dim, dim) hold the trajectories and
    ``r`` (n,) their uniforms for this step.  Live trajectories are grouped
    by their pre-step site; each draws the first branch whose cumulative
    probability Tr(K rho K*) exceeds its uniform, is renormalized and
    moved, and is killed (site ``DEAD``) when the uniform lies beyond the
    branch mass.  Raises ``ArithmeticError`` naming the site when a branch
    probability is negative or a group's branch mass exceeds 1.
    """
    # group by the pre-step site table; writes go into `sites` so a
    # trajectory cannot be stepped twice
    orig_sites = sites.copy()
    alive = orig_sites != DEAD
    for s in np.unique(orig_sites[alive]):
        idx = np.where(orig_sites == s)[0]
        branches = _branches(model, int(s))
        kmats = np.stack([k for _, k in branches])
        shifts = np.array([sh for sh, _ in branches])
        probs = np.einsum(
            "bij,tjk,bik->tb", kmats, states[idx], kmats.conj()
        ).real
        if probs.min() < -NEG_TOL:
            raise ArithmeticError(
                f"negative branch probability {probs.min()} at site {s}"
            )
        np.clip(probs, 0.0, None, out=probs)
        cum = np.cumsum(probs, axis=1)
        if cum[:, -1].max() > 1.0 + MASS_TOL:
            raise ArithmeticError(
                f"branch probabilities sum to {cum[:, -1].max()} > 1 at site {s}"
            )
        choice = (r[idx, None] >= cum).sum(axis=1)  # == len(branches): kill
        for b in range(len(branches)):
            loc = np.where(choice == b)[0]
            if len(loc) == 0:
                continue
            sel = idx[loc]
            k = kmats[b]
            new = np.einsum("ij,tjk,lk->til", k, states[sel], k.conj())
            states[sel] = new / probs[loc, b][:, None, None]
            sites[sel] = s + shifts[b]
        killed = idx[choice == len(branches)]
        if len(killed):
            sites[killed] = DEAD


def _walk(config: TrajectoryConfig, t0: int, t1: int):
    """Yield (sites, states) of trajectories [t0, t1), started at
    ``config.site`` in ``config.rho``, at step 0 and after every step; the
    arrays are updated in place."""
    n, dim = t1 - t0, config.model.dim
    uniforms = _stream_uniforms(config.seed, t0, t1, config.steps)
    sites = np.full(n, config.site, dtype=np.int64)
    states = np.broadcast_to(config.rho, (n, dim, dim)).copy()
    yield sites, states
    for step in range(config.steps):
        _step(config.model, sites, states, uniforms[:, step])
        yield sites, states


def sample_trajectory(config: TrajectoryConfig, index: int = 0):
    """One sampled path: a list of (site, conditioned density) per step,
    with (None, None) entries after a kill event.  Trajectory ``index``
    draws the same stream, and takes the same steps, as it does in
    :func:`estimate_site_prob`; it must lie in [0, 2**64)."""
    index = _integer("index", index)
    if not 0 <= index < 2**64:
        raise ValueError(f"trajectory index must lie in [0, 2**64), got {index}")
    return [
        (None, None) if sites[0] == DEAD else (int(sites[0]), states[0].copy())
        for sites, states in _walk(config, index, index + 1)
    ]


def _run_block(config: TrajectoryConfig, t0: int, t1: int) -> Array:
    """Occupation counts (steps + 1, window) for trajectories [t0, t1)."""
    lo, hi = _window(config)
    return np.array([
        np.bincount(sites[sites != DEAD] - lo, minlength=hi - lo + 1)
        for sites, _ in _walk(config, t0, t1)
    ])


def estimate_site_prob(config: TrajectoryConfig) -> OccupationEstimate:
    """Ensemble occupation estimate; bit-identical for a given seed.

    Its chunks of ``CHUNK`` trajectories run on min(chunks, processors this
    process may use) workers, so ``taskset`` caps them; one worker runs them
    in the calling thread.  The counts are summed in chunk order."""
    n = config.n_traj
    blocks = [(t0, min(t0 + CHUNK, n)) for t0 in range(0, n, CHUNK)]
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(blocks), len(affinity(0)) if affinity else os.cpu_count() or 1)
    run = lambda b: _run_block(config, *b)
    if workers == 1:
        parts = list(map(run, blocks))
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(run, blocks))
    means = sum(parts[1:], parts[0]) / n
    stderrs = np.sqrt(np.clip(means * (1.0 - means), 0.0, None) / n)
    return OccupationEstimate(_window(config)[0], means, stderrs, n, config.seed)
