"""Monte Carlo unraveling of open quantum walks.

A trajectory carries a pure lattice position plus a conditioned internal
density; at each step one Kraus branch (direction, effect) is drawn with
probability Tr(K rho K*), the state is renormalized, and substochastic
columns kill the trajectory with the missing mass.  Branch mass above one
has no such reading and raises ``ArithmeticError``.  One step, shared by
the single-path sampler and the ensemble, does the drawing for a batch of
trajectories.  The ensemble is a statistically independent oracle for the
site-occupation numbers computed by direct evolution.

Randomness comes from the counter-based Philox generator keyed by
(seed, trajectory index), so trajectory t consumes its own stream and the
ensemble is independent of evaluation order and worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain_model import QmcModel
from .quantum_core import Array

DEAD = np.iinfo(np.int64).min
NEG_TOL = 1e-12
MASS_TOL = 1e-9

THREADS_ENV = "QMC_SPECTRA_THREADS"


@dataclass(frozen=True)
class TrajectoryConfig:
    model: QmcModel
    site: int
    rho: Array
    steps: int
    n_traj: int
    seed: int = 0

    def __post_init__(self):
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


def _stream_uniforms(seed: int, index: int, steps: int) -> Array:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    return gen.random(steps)


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


def sample_trajectory(config: TrajectoryConfig, index: int = 0):
    """One sampled path: a list of (site, conditioned density) per step,
    with (None, None) entries after a kill event.  Trajectory ``index``
    draws the same stream, and takes the same steps, as it does in
    :func:`estimate_site_prob`."""
    u = _stream_uniforms(config.seed, index, config.steps)
    sites = np.array([config.site], dtype=np.int64)
    states = config.rho[None].copy()
    path = [(config.site, config.rho.copy())]
    for step in range(config.steps):
        _step(config.model, sites, states, u[step : step + 1])
        if sites[0] == DEAD:
            path.append((None, None))
        else:
            path.append((int(sites[0]), states[0].copy()))
    return path


def _run_block(config: TrajectoryConfig, t0: int, t1: int) -> Array:
    """Occupation counts (steps + 1, window) for trajectories [t0, t1)."""
    steps = config.steps
    n = t1 - t0
    dim = config.model.dim
    lo, hi = _window(config)
    width = hi - lo + 1

    uniforms = np.empty((n, steps), dtype=float)
    for t in range(n):
        uniforms[t] = _stream_uniforms(config.seed, t0 + t, steps)

    sites = np.full(n, config.site, dtype=np.int64)
    states = np.broadcast_to(config.rho, (n, dim, dim)).copy()
    counts = np.zeros((steps + 1, width))
    counts[0, config.site - lo] = n

    for step in range(steps):
        _step(config.model, sites, states, uniforms[:, step])
        landed = sites[sites != DEAD]
        if len(landed):
            counts[step + 1] += np.bincount(landed - lo, minlength=width)
    return counts


def estimate_site_prob(config: TrajectoryConfig) -> OccupationEstimate:
    """Ensemble occupation estimate; bit-identical for a given seed."""
    workers = max(1, int(os.environ.get(THREADS_ENV, "1")))
    chunk = max(1, min(config.n_traj, 20_000))
    bounds = list(range(0, config.n_traj, chunk)) + [config.n_traj]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda b: _run_block(config, b[0], b[1]), blocks)
            )
    else:
        parts = [_run_block(config, t0, t1) for t0, t1 in blocks]
    means = sum(parts[1:], parts[0]) / config.n_traj
    stderrs = np.sqrt(np.clip(means * (1.0 - means), 0.0, None) / config.n_traj)
    return OccupationEstimate(_window(config)[0], means, stderrs, config.n_traj, config.seed)
