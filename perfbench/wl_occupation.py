"""occupation: Monte Carlo occupation estimates and direct evolution on
Kraus-form chains.  No resolvent runs here.

Models: diagonal_coin_line_walk, shear_coin_segment (full mode), the
full-mode uniform_hopping_half_line and three_site_absorbing_oqw.

Cycle of 20 queries, cheapest class first (cost on a 2-core x86 box).
The classes that hold p50 and p90 use one chain and one size each, so
those quantiles do not jump between models from run to run.
  7 cheap, ~15-35 ms, percentiles 0-35:
     4 site_prob_series by direct evolution to step 600, one per chain
     3 estimate_site_prob, 1000 trajectories, on the three other chains
  7 estimate_site_prob, 2000 trajectories, line walk  ~65 ms    35-70 (p50)
  6 estimate_site_prob, 4000 trajectories, line walk  ~150 ms   70-100 (p90)
"""

from __future__ import annotations

import math

import numpy as np

from qmcspectra import chain_model, models, trajectories

from common import Query, all_ok, birth_death, close, density, key

HORIZON = 600
SIGMAS = 4.0
MIX = (("series", "line"), ("series", "hop"), ("series", "shear"), ("series", "three"),
       ("mc1000", "hop"), ("mc1000", "shear"), ("mc1000", "three"),
       *[("mc2000", "line")] * 7, *[("mc4000", "line")] * 6)
STEPS = {"line": 16, "hop": 16, "shear": 12, "three": 10}


def _model(name, rng):
    if name == "line":
        return models.diagonal_coin_line_walk(), {}, 0
    if name == "shear":
        return models.shear_coin_segment(3, "full"), {}, int(rng.integers(0, 3))
    if name == "three":
        return models.three_site_absorbing_oqw(), {}, 1
    r, t = 0.3, 0.25  # fixed: survival, and so the cost, depends on them
    s = 1.0 - r - t
    a, b = rng.uniform(0.3, 0.6, size=2)
    return (models.uniform_hopping_half_line(s, a, b, r, t),
            {"s": s, "a": a, "b": b, "r": r, "t": t}, int(rng.integers(0, 4)))


def _hop_rows(params, site, horizon):
    return birth_death(params["r"], params["s"], params["t"], site, horizon, site + horizon + 2)


def _log_binom(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def exact_series(name, model, params, site, target, rho, horizon):
    """Occupation of `target` for n = 0..horizon by a route that never
    calls chain_model.step.

    line: the diagonal coins commute, so |0> walks up with probability
    1/3 and |1> with 1/2: binomial closed forms.  hop: A and C are
    multiples of the identity and B is s times a trace-preserving map,
    so traces follow a scalar birth-death chain killed below 0.  The two
    three-site segments: powers of the dense 12 x 12 matrix."""
    out = np.zeros(horizon + 1)
    if name == "line":
        shift = target - site
        for n in range(horizon + 1):
            if (n + shift) % 2 or abs(shift) > n:
                continue
            ups = (n + shift) // 2
            for weight, p in ((rho[0, 0].real, 1 / 3), (rho[1, 1].real, 1 / 2)):
                out[n] += weight * math.exp(_log_binom(n, ups) + ups * math.log(p)
                                            + (n - ups) * math.log(1 - p))
        return out
    if name == "hop":
        return _hop_rows(params, site, horizon)[:, target]
    mat = chain_model.truncate(model, 0, 2).matrix
    d = model.block_dim
    vec = np.zeros(3 * d, dtype=complex)
    vec[site * d:(site + 1) * d] = model.state_vec(rho)
    for n in range(horizon + 1):
        out[n] = model.trace_of(vec[target * d:(target + 1) * d])
        vec = mat @ vec
    return out


def _series_query(name, rng):
    model, params, site = _model(name, rng)
    rho = density(rng)
    lo = model.topology.lo
    target = site + int(rng.integers(-2, 3))
    if lo is not None:
        target = max(target, lo)
    if model.topology.hi is not None:
        target = min(target, model.topology.hi)

    def run():
        return chain_model.site_prob_series(model, site, target, rho, HORIZON)

    def check(out):
        exact = exact_series(name, model, params, site, target, rho, HORIZON)
        state = chain_model.evolve(model, chain_model.LatticeState.from_density(model, site, rho), HORIZON)
        total = chain_model.total_trace(model, state)
        if name == "line":  # trace preserving: mass balance is exact
            balance = close(total, 1.0, 1e-10, "total mass after evolution")
        elif name == "hop":  # mass lost only through the bottom edge
            alive = _hop_rows(params, site, HORIZON)[-1].sum()
            balance = close(total, alive, 1e-10, "total mass vs birth-death chain")
        else:
            balance = (0.0 <= total <= 1.0 + 1e-12, f"total mass {total}")
        return all_ok(close(out, exact, 1e-10, f"series {site}->{target} vs independent route"),
                      balance)
    return Query("series", key("series", model=name, site=site, target=target, rho=rho, **params),
                 run, check)


def _mc_query(kind, name, rng):
    model, params, site = _model(name, rng)
    rho = density(rng)
    steps = STEPS[name]
    n_traj = int(kind[2:])
    seed = int(rng.integers(0, 2**31))

    def run():
        est = trajectories.estimate_site_prob(
            trajectories.TrajectoryConfig(model, site, rho, steps, n_traj, seed))
        return est.site_lo, est.means, est.stderrs

    def check(out):
        site_lo, means, stderrs = out
        exact = {j: chain_model.site_prob(model, site, j, rho, steps)
                 for j in range(site_lo, site_lo + means.shape[1])}
        # the start site and the most occupied other site, at the last step
        cells = {site, max((j for j in exact if j != site), key=exact.get)}
        checks = []
        for j in sorted(cells):
            k = j - site_lo
            se = max(stderrs[steps, k], math.sqrt(0.01 / n_traj))
            z = abs(means[steps, k] - exact[j]) / se
            checks.append((z < SIGMAS, f"site {j} step {steps}: {z:.2f} sigma"))
        return all_ok(*checks)
    return Query(kind, key(kind, model=name, site=site, rho=rho, seed=seed, **params), run, check)


def build(seed: int, workdir) -> list[Query]:
    rng = np.random.default_rng([seed, 3])
    cycle = [_series_query(name, rng) if kind == "series" else _mc_query(kind, name, rng)
             for kind, name in MIX]
    order = rng.permutation(len(cycle))
    return [cycle[k] for k in order]
