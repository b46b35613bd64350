import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qmcspectra import models, site_prob, trajectories
from qmcspectra.chain_model import (
    Block,
    LatticeState,
    QmcModel,
    block_from_matrix,
    evolve,
    segment,
    total_trace,
)
from qmcspectra.quantum_core import min_eigenvalue, superop_of
from qmcspectra.trajectories import (
    TrajectoryConfig,
    estimate_site_prob,
    sample_trajectory,
)


def reference_uniforms(seed, t0, t1, steps):
    """Uniforms of trajectories [t0, t1) from numpy's own generator, one
    key at a time: what ``trajectories._stream_uniforms`` must reproduce
    bit for bit."""
    out = np.empty((t1 - t0, steps))
    for row, t in enumerate(range(t0, t1)):
        key = np.array([seed, t], dtype=np.uint64)
        out[row] = np.random.Generator(np.random.Philox(key=key)).random(steps)
    return out


def set_processors(monkeypatch, count, affinity=True):
    """Let this process see ``count`` processors: through the affinity
    call, or, with ``affinity`` false, as a platform without that call."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)


def ping_pong_model():
    eye = np.eye(2)
    return QmcModel(
        topology=segment(2),
        mode="full",
        blocks={},
        overrides={
            0: {"A": Block(superop_of([eye]), (eye,))},
            1: {"C": Block(superop_of([eye]), (eye,))},
        },
        substochastic=False,
    )


def test_deterministic_model_gives_deterministic_path():
    m = ping_pong_model()
    cfg = TrajectoryConfig(m, 0, np.eye(2) / 2, steps=5, n_traj=1, seed=3)
    path = sample_trajectory(cfg)
    assert [s for s, _ in path] == [0, 1, 0, 1, 0, 1]


def test_config_validation():
    m = models.flip_channel_half_line(0.7, 0.8)
    with pytest.raises(ValueError, match="full-mode"):
        TrajectoryConfig(m, 0, np.eye(2) / 2, 3, 10)
    m2 = models.shear_coin_segment()
    with pytest.raises(ValueError):
        TrajectoryConfig(m2, 9, np.eye(2) / 2, 3, 10)
    with pytest.raises(ValueError):
        TrajectoryConfig(m2, 0, np.eye(3) / 3, 3, 10)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_rejects_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match="seed"):
        TrajectoryConfig(ping_pong_model(), 0, np.eye(2) / 2, 3, 10, seed)
    TrajectoryConfig(ping_pong_model(), 0, np.eye(2) / 2, 3, 10, 2**64 - 1)


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("seed", "3"), ("site", 0.5), ("steps", 2.0), ("n_traj", 10.0)],
)
def test_config_rejects_non_integer_fields(field, value):
    args = dict(model=ping_pong_model(), site=0, rho=np.eye(2) / 2, steps=3, n_traj=10)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrajectoryConfig(**{**args, field: value})


def test_config_takes_numpy_integers_as_ints():
    m = models.shear_coin_segment()
    rho = np.eye(2) / 2
    cfg = TrajectoryConfig(m, np.int64(1), rho, np.int32(3), np.uint16(200), np.uint64(9))
    assert all(type(v) is int for v in (cfg.site, cfg.steps, cfg.n_traj, cfg.seed))
    plain = estimate_site_prob(TrajectoryConfig(m, 1, rho, 3, 200, 9))
    assert np.array_equal(estimate_site_prob(cfg).means, plain.means)


@pytest.mark.parametrize("index", [1.5, -1, 2**64, "2"])
def test_sample_trajectory_rejects_bad_index(index):
    cfg = TrajectoryConfig(ping_pong_model(), 0, np.eye(2) / 2, 3, 1)
    with pytest.raises(ValueError, match="index"):
        sample_trajectory(cfg, index)


def test_sample_trajectory_takes_last_uint64_index():
    cfg = TrajectoryConfig(ping_pong_model(), 0, np.eye(2) / 2, 3, 1)
    assert [s for s, _ in sample_trajectory(cfg, np.uint64(2**64 - 1))] == [0, 1, 0, 1]


@pytest.mark.parametrize("seed", [0, 11, 12345, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("steps", [0, 1, 3, 5, 16, 57])
def test_stream_is_numpy_philox_bit_for_bit(seed, steps):
    for t0, t1 in ((0, 37), (20_000, 20_021), (2**64 - 3, 2**64)):
        got = trajectories._stream_uniforms(seed, t0, t1, steps)
        assert got.shape == (t1 - t0, steps)
        assert np.array_equal(got, reference_uniforms(seed, t0, t1, steps))


@pytest.mark.parametrize(
    "model, site, steps, n_traj",
    [
        (models.diagonal_coin_line_walk(), 0, 9, 1500),
        (models.shear_coin_segment(3, "full"), 1, 6, 1200),
        (models.three_site_absorbing_oqw(), 1, 7, 1000),
    ],
)
def test_estimate_matches_per_key_generators(monkeypatch, model, site, steps, n_traj):
    rho = np.array([[0.6, 0.15], [0.15, 0.4]])
    cfg = TrajectoryConfig(model, site, rho, steps, n_traj, seed=2**63 + 5)
    fast = estimate_site_prob(cfg)
    monkeypatch.setattr(trajectories, "_stream_uniforms", reference_uniforms)
    assert np.array_equal(fast.means, estimate_site_prob(cfg).means)


def test_superoperator_only_blocks_rejected():
    mat = superop_of([np.eye(2) / np.sqrt(2)])
    m = QmcModel(
        topology=segment(2),
        mode="full",
        blocks={},
        overrides={0: {"A": block_from_matrix(mat)}, 1: {"C": block_from_matrix(mat)}},
        substochastic=True,
    )
    cfg = TrajectoryConfig(m, 0, np.eye(2) / 2, steps=2, n_traj=4)
    with pytest.raises(ValueError, match="Kraus"):
        sample_trajectory(cfg)


def test_conditioned_states_stay_unit_trace_psd():
    m = models.uniform_hopping_half_line(0.5, 0.3, 0.4, 0.25, 0.25)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]])
    cfg = TrajectoryConfig(m, 1, rho, steps=12, n_traj=1, seed=9)
    for t in range(4):
        for site, state in sample_trajectory(cfg, t):
            if site is None:
                continue
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-10)
            assert min_eigenvalue(state) > -1e-10


def test_same_seed_bit_identical():
    m = models.shear_coin_segment()
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    cfg = TrajectoryConfig(m, 2, rho, steps=4, n_traj=3000, seed=11)
    a = estimate_site_prob(cfg)
    b = estimate_site_prob(cfg)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.stderrs, b.stderrs)
    c = estimate_site_prob(TrajectoryConfig(m, 2, rho, 4, 3000, seed=12))
    assert not np.array_equal(a.means, c.means)


def test_worker_count_does_not_change_results(monkeypatch):
    # 25,000 trajectories are two chunks: one processor runs both in the
    # calling thread, three run them on a pool
    m = models.shear_coin_segment()
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    cfg = TrajectoryConfig(m, 2, rho, steps=3, n_traj=25_000, seed=4)
    set_processors(monkeypatch, 1)
    serial = estimate_site_prob(cfg)
    set_processors(monkeypatch, 3)
    threaded = estimate_site_prob(cfg)
    assert np.array_equal(serial.means, threaded.means)
    assert np.array_equal(serial.stderrs, threaded.stderrs)


@pytest.mark.parametrize(
    "n_traj, count, affinity, pool",
    [(20_000, 2, True, None), (20_001, 2, True, 2), (20_001, 3, False, 2)],
    ids=["one-chunk", "two-chunks", "cpu-count-fallback"],
)
def test_pool_starts_only_for_two_chunks(monkeypatch, n_traj, count, affinity, pool):
    # workers = min(chunks, processors); one worker starts no thread
    pools, threads = [], []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    start = threading.Thread.start

    def spy_start(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy_start)
    monkeypatch.setattr(trajectories, "ThreadPoolExecutor", SpyPool)
    set_processors(monkeypatch, count, affinity)
    m = models.shear_coin_segment()
    estimate_site_prob(TrajectoryConfig(m, 2, np.eye(2) / 2, steps=1, n_traj=n_traj))
    assert pools == ([] if pool is None else [pool])
    assert bool(threads) == (pool is not None)


def test_estimate_step_zero_is_delta():
    m = models.shear_coin_segment()
    cfg = TrajectoryConfig(m, 1, np.eye(2) / 2, steps=2, n_traj=500, seed=0)
    est = estimate_site_prob(cfg)
    assert est.mean(0, 1) == 1.0
    assert est.mean(0, 0) == 0.0


def test_one_step_split_matches_exact_probabilities():
    m = models.diagonal_coin_line_walk()
    rho = np.array([[0.7, 0.1], [0.1, 0.3]])
    cfg = TrajectoryConfig(m, 0, rho, steps=1, n_traj=100_000, seed=21)
    est = estimate_site_prob(cfg)
    for target in (-1, 1):
        exact = site_prob(m, 0, target, rho, 1)
        se = max(est.stderr(1, target), 1e-4)
        assert abs(est.mean(1, target) - exact) < 3 * se


def test_multi_effect_blocks_estimate():
    m = models.uniform_hopping_half_line(0.5, 0.3, 0.4, 0.25, 0.25)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]])
    cfg = TrajectoryConfig(m, 2, rho, steps=6, n_traj=60_000, seed=5)
    est = estimate_site_prob(cfg)
    for site in (0, 2, 4):
        exact = site_prob(m, 2, site, rho, 6)
        se = max(est.stderr(6, site), 1e-4)
        assert abs(est.mean(6, site) - exact) < 4 * se


def test_kill_events_match_absorbed_mass():
    m = models.three_site_absorbing_oqw()
    rho = np.eye(2) / 2
    cfg = TrajectoryConfig(m, 1, rho, steps=2, n_traj=50_000, seed=5)
    est = estimate_site_prob(cfg)
    alive = est.means[2].sum()
    exact = total_trace(m, evolve(m, LatticeState.from_density(m, 1, rho), 2))
    se = np.sqrt(exact * (1 - exact) / cfg.n_traj)
    assert abs(alive - exact) < 3 * se


def test_estimate_invariants():
    m = models.shear_coin_segment()
    cfg = TrajectoryConfig(m, 2, np.eye(2) / 2, steps=5, n_traj=2_000, seed=7)
    est = estimate_site_prob(cfg)
    assert est.means.min() >= 0.0 and est.means.max() <= 1.0
    for step in range(6):
        row_sum = est.means[step].sum()
        sigma = np.sqrt((est.stderrs[step] ** 2).sum())
        assert row_sum <= 1.0 + 3 * sigma + 1e-12
    assert est.mean(2, 99) == 0.0 and est.stderr(2, 99) == 0.0
    assert list(est.sites()) == [0, 1, 2]


def test_flip_channel_full_mode_occupation():
    # the full-mode flip chain is a genuine OQW; ten-step occupations must
    # match direct evolution, and the compact representation of the same
    # chain gives identical probabilities
    m = models.flip_channel_half_line(0.7, 0.8, mode="full")
    mc = models.flip_channel_half_line(0.7, 0.8)
    rho = np.array([[0.55, 0.15], [0.15, 0.45]])
    cfg = TrajectoryConfig(m, 0, rho, steps=10, n_traj=50_000, seed=13)
    est = estimate_site_prob(cfg)
    for site in (0, 2, 4):
        exact = site_prob(m, 0, site, rho, 10)
        assert exact == pytest.approx(site_prob(mc, 0, site, rho, 10), abs=1e-12)
        se = max(est.stderr(10, site), 1e-4)
        assert abs(est.mean(10, site) - exact) < 3 * se


def test_single_paths_replay_the_ensemble():
    # trajectory t draws the same Philox stream in both samplers, so the
    # site histogram of the single paths is the ensemble's count table
    m = models.three_site_absorbing_oqw()
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    cfg = TrajectoryConfig(m, 1, rho, steps=6, n_traj=300, seed=17)
    est = estimate_site_prob(cfg)
    counts = np.zeros_like(est.means)
    for t in range(cfg.n_traj):
        for step, (site, _) in enumerate(sample_trajectory(cfg, t)):
            if site is not None:
                counts[step, site - est.site_lo] += 1
    assert counts[-1].sum() < cfg.n_traj  # some paths were killed
    assert np.array_equal(counts / cfg.n_traj, est.means)


@pytest.mark.parametrize("sampler", [estimate_site_prob, sample_trajectory])
def test_branch_mass_above_one_raises(sampler):
    # r + s + t = 1.3: the columns carry more mass than a trajectory can
    # split, which direct evolution shows as total trace 1.3^n
    m = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.4, 0.4)
    cfg = TrajectoryConfig(m, 0, np.eye(2) / 2, steps=3, n_traj=2000, seed=1)
    with pytest.raises(ArithmeticError, match="at site 0"):
        sampler(cfg)
