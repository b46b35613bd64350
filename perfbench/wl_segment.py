"""segment_spectra: one query is the full spectral analysis of one finite
segment chain.

find_symmetrizer decides the route.  Symmetrizable chains get
finite_spectrum_weights and a small table of km_probability values;
the others get nonsym_finite_weights and a table of km_row0 blocks.
Either way one dense contour-residue extraction runs per query.

Cycle of 20 queries, cheapest class first (cost on a 2-core x86 box,
one BLAS thread):
  2 shear_coin_segment, 2 five_site_lazy_shear_chain,
  2 random_symmetrizable_segment (S=4)        25-45 ms     percentiles  0-30
  8 uniform_hopping_segment S=8              50-100 ms    percentiles 30-70
  2 uniform_hopping_segment S=16             0.3-0.4 s    percentiles 70-80
  4 uniform_hopping_segment S=24             0.75-1.3 s   percentiles 80-100
so p50 sits in the S=8 class and p90 in the S=24 class, each at least
10 percentile points from a class boundary.
"""

from __future__ import annotations

import numpy as np

from qmcspectra import chain_model, models, nonsymmetric, spectral, statistics
from qmcspectra.polynomials import PolyFamily

from common import Query, all_ok, close, density, key

MIX = (("shear", 2), ("five", 2), ("random", 2), ("S8", 8), ("S16", 2), ("S24", 4))
MOMENT_MAX = 6
TOL = 1e-8


def _hopping_params(rng, num_sites):
    """Draw (s, a, b, r, t) whose eigenvalue clusters stay well apart, so
    the cluster count is fixed at 2 S and no draw trips the ambiguity
    guard of the residue extraction."""
    theta = np.pi * np.arange(1, num_sites + 1) / (num_sites + 1)
    while True:
        s = rng.uniform(0.3, 0.5)
        a, b = rng.uniform(0.3, 0.6, size=2)
        r, t = rng.uniform(0.1, 0.25, size=2)
        holds = (s, s * (1.0 - 2.0 * (a * a + b * b)))
        nodes = np.sort(np.concatenate(
            [h + 2.0 * np.sqrt(r * t) * np.cos(theta) for h in holds]))
        if np.diff(nodes).min() > 2e-3:
            return s, a, b, r, t


def _analysis(model, rho, table):
    """The timed part: returns plain data for the oracle."""
    num_sites = model.topology.num_sites
    try:
        sym = spectral.find_symmetrizer(model, num_sites - 1)
        symmetric = sym.success
    except spectral.SpectralError:
        symmetric = False
    if symmetric:
        weight = spectral.finite_spectrum_weights(model)
        polys = PolyFamily(model)
        values = [statistics.km_probability(weight, polys, sym, i, j, rho, n)
                  for i, j, n in table]
    else:
        system = nonsymmetric.nonsym_finite_weights(model)
        weight = system.weight
        values = [nonsymmetric.km_row0(system, i, n) for i, _, n in table]
    nodes = np.array([p.node for p in weight.points])
    weights = np.array([p.weight for p in weight.points])
    return symmetric, nodes, weights, values


def _oracle(model, rho, table, expect_symmetric):
    d = model.block_dim

    def check(out):
        symmetric, nodes, weights, values = out
        mat = chain_model.truncate(model, 0, model.topology.num_sites - 1).matrix
        rho_vec = model.state_vec(rho)
        if symmetric != expect_symmetric:
            return False, f"symmetrizer success {symmetric}, expected {expect_symmetric}"
        eye = np.eye(d)
        checks = [close(weights.sum(axis=0), eye, TOL, "weights sum to I")]
        power = np.eye(mat.shape[0], dtype=complex)
        worst = 0.0
        for n in range(MOMENT_MAX + 1):
            moment = np.einsum("k,kij->ij", nodes**n, weights)
            worst = max(worst, float(np.abs(moment - power[:d, :d]).max()))
            power = power @ mat
        checks.append(close(worst, 0.0, TOL, f"moments n<={MOMENT_MAX} vs powers"))
        for (i, j, n), got in zip(table, values):
            exact = chain_model.site_prob(model, i, j, rho, n)
            if symmetric:
                checks.append(close(got, exact, TOL, f"km_probability({i}->{j}, n={n}) vs evolution"))
            else:
                direct = np.linalg.matrix_power(mat, n)[:d, i * d:(i + 1) * d]
                checks.append(close(got, direct, TOL, f"km_row0(i={i}, n={n}) vs power"))
                prob = complex(model.trace_vec @ (got @ rho_vec)).real
                checks.append(close(prob, exact, TOL, f"km_row0 probability ({i}->0, n={n}) vs evolution"))
        return all_ok(*checks)

    return check


def _make(kind, rng):
    if kind == "shear":
        model, symmetric = models.shear_coin_segment(), False
        rho = density(rng)
        table = [(int(rng.integers(0, 3)), 0, int(rng.integers(0, 11))) for _ in range(4)]
        params = {}
    elif kind == "five":
        model, symmetric = models.five_site_lazy_shear_chain(), False
        rho = density(rng, real=True)
        table = [(int(rng.integers(0, 5)), 0, int(rng.integers(0, 9))) for _ in range(4)]
        params = {}
    elif kind == "random":
        model = models.random_symmetrizable_segment(rng, num_sites=4, block_dim=4)
        symmetric = True
        rho = density(rng)
        table = [(int(rng.integers(0, 4)), int(rng.integers(0, 4)), int(rng.integers(0, 9)))
                 for _ in range(4)]
        params = {"b0": model.block(0, "B")}
    else:
        num_sites = int(kind[1:])
        s, a, b, r, t = _hopping_params(rng, num_sites)
        model = models.uniform_hopping_segment(num_sites, s, a, b, r, t)
        symmetric = True
        rho = density(rng)
        table = [(int(rng.integers(0, 5)), int(rng.integers(0, 5)), int(rng.integers(0, 9)))
                 for _ in range(4)]
        params = {"s": s, "a": a, "b": b, "r": r, "t": t}
    return Query(
        kind=kind,
        key=key(kind, rho=rho, table=table, **params),
        run=lambda: _analysis(model, rho, table),
        check=_oracle(model, rho, table, symmetric),
    )


def build(seed: int, workdir) -> list[Query]:
    rng = np.random.default_rng([seed, 1])
    cycle = [_make(kind, rng) for kind, count in MIX for _ in range(count)]
    order = rng.permutation(len(cycle))
    return [cycle[k] for k in order]
