import dataclasses
import warnings

import numpy as np
import pytest

from qmcspectra import models, spectral, statistics
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    line,
    resolvent_block,
    segment,
    site_prob_series,
    truncate,
)
from qmcspectra.polynomials import PolyFamily
from qmcspectra.spectral import (
    FP_TOL,
    HomogeneousStieltjes,
    SiteStieltjes,
    TruncatedStieltjes,
    _Elimination,
    find_symmetrizer,
    finite_spectrum_weights,
)
from qmcspectra.statistics import (
    classify_from_samples,
    classify_recurrence,
    first_passage_gf,
    jump_at_one,
    km_block,
    km_probability,
    positive_recurrent,
    reach_analysis,
    trace_action,
)

from conftest import random_density

SQ2 = np.sqrt(2.0)


def first_passage_poly(model, j, i, s):
    """Polynomial route F_ji(s) = Q_j(1/s)^{-1} Q_i(1/s), valid for i < j."""
    if not i < j:
        raise ValueError("polynomial route needs i < j")
    x = 1.0 / s
    q = PolyFamily(model).main(x, j)
    return np.linalg.solve(q[j], q[i])


# -- spectral probabilities -------------------------------------------


def test_km_matches_power_oracle(rng):
    m = models.uniform_hopping_segment(5, 0.5, 0.4, 0.3, 0.2, 0.3)
    sym = find_symmetrizer(m, 4)
    assert sym.success
    w = finite_spectrum_weights(m)
    pf = PolyFamily(m)
    t = truncate(m, 0, 4).matrix
    d = m.block_dim
    for n in range(11):
        power = np.linalg.matrix_power(t, n)
        for (j, i) in [(0, 0), (2, 1), (4, 0), (1, 3)]:
            got = km_block(w, pf, sym, j, i, n)
            assert np.abs(got - power[j * d : (j + 1) * d, i * d : (i + 1) * d]).max() < 1e-9


def test_km_probability_values(rng):
    m = models.uniform_hopping_segment(5, 0.5, 0.4, 0.3, 0.2, 0.3)
    sym = find_symmetrizer(m, 4)
    w = finite_spectrum_weights(m)
    pf = PolyFamily(m)
    rho = random_density(rng)
    assert km_probability(w, pf, sym, 2, 2, rho, 0) == pytest.approx(1.0, abs=1e-10)
    series = site_prob_series(m, 1, 3, rho, 9)
    for n in (2, 5, 9):
        assert km_probability(w, pf, sym, 1, 3, rho, n) == pytest.approx(
            series[n], abs=1e-9
        )


def test_km_scalar_chain_matches_classical_formula():
    # scalar birth-death chain: the spectral sum against the eigensystem
    # of the symmetrized matrix is the classical result
    p_up, r_hold, q_down = 0.3, 0.2, 0.5
    blocks = {
        "A": Block(np.array([[p_up]], dtype=complex)),
        "B": Block(np.array([[r_hold]], dtype=complex)),
        "C": Block(np.array([[q_down]], dtype=complex)),
    }
    m = QmcModel(
        topology=segment(6), mode="abstract",
        blocks=blocks, substochastic=True, trace_vec=np.array([1.0]),
    )
    sym = find_symmetrizer(m, 5)
    w = finite_spectrum_weights(m)
    pf = PolyFamily(m)
    t = truncate(m, 0, 5).matrix
    for n in (3, 6):
        power = np.linalg.matrix_power(t, n)
        for (j, i) in [(0, 0), (3, 1)]:
            got = km_block(w, pf, sym, j, i, n)[0, 0].real
            assert got == pytest.approx(power[j, i].real, abs=1e-10)


def test_km_requires_symmetrizer():
    m = models.shear_coin_segment()
    sym = find_symmetrizer(m, 2)
    w = finite_spectrum_weights(m)
    with pytest.raises(ValueError, match="symmetrizer"):
        km_block(w, PolyFamily(m), sym, 1, 1, 2)


@pytest.fixture
def hopping_segment_km():
    m = models.uniform_hopping_segment(5, 0.4, 0.5, 0.45, 0.2, 0.15)
    sym = find_symmetrizer(m, 4)
    assert sym.success
    return finite_spectrum_weights(m), PolyFamily(m), sym


def test_km_block_rejects_negative_steps(hopping_segment_km):
    # the sum at n = -1 is an inverse moment, not a transition block
    w, pf, sym = hopping_segment_km
    with pytest.raises(ValueError, match="step count must be nonnegative"):
        km_block(w, pf, sym, 0, 0, -1)


@pytest.mark.parametrize("j, i, bad", [(7, 0, 7), (0, 5, 5), (-1, 2, -1)])
def test_km_block_rejects_sites_off_the_segment(hopping_segment_km, j, i, bad):
    w, pf, sym = hopping_segment_km
    with pytest.raises(ValueError, match=f"site {bad} outside topology"):
        km_block(w, pf, sym, j, i, 2)


def test_km_probability_inherits_the_argument_checks(hopping_segment_km, density2):
    w, pf, sym = hopping_segment_km
    with pytest.raises(ValueError, match="step count must be nonnegative"):
        km_probability(w, pf, sym, 0, 0, density2, -1)
    with pytest.raises(ValueError, match="site 7 outside topology"):
        km_probability(w, pf, sym, 0, 7, density2, 2)


# -- first passage ----------------------------------------------------


def test_first_passage_zero_at_s_zero(density2):
    m = models.three_site_absorbing_oqw()
    assert np.abs(first_passage_gf(m, 1, 0, 0.0)).max() == 0.0


def _corner_passage(m, s):
    """The adjacent-site closed form F_10(s) = s A_0 (I - s B_0)^{-1}."""
    a0, b0 = m.block(0, "A"), m.block(0, "B")
    return s * np.linalg.solve((np.eye(m.block_dim) - s * b0).T, a0.T).T


def test_three_site_first_passage_matrix():
    m = models.three_site_absorbing_oqw()
    s = 0.7
    target = (s / 4) * np.array(
        [[1, 0, 0, 0], [-1, -SQ2, 0, 0], [-1, 0, -SQ2, 0], [1, SQ2, SQ2, 2]]
    )
    assert np.abs(first_passage_gf(m, 1, 0, s) - target).max() < 1e-12
    assert np.abs(first_passage_poly(m, 1, 0, s) - target).max() < 1e-12
    assert np.abs(first_passage_gf(m, 1, 0, s) - _corner_passage(m, s)).max() < 1e-12


def test_coin_deformation_first_column():
    for g in (0.3, 1.0, 2.0):
        m = models.corner_coin_oqw(g)
        k = 2 + 2 * g * g
        s = 0.55
        col = s / (k - s) * np.array([2 * g * g, SQ2 * g, SQ2 * g, 1.0])
        f = first_passage_gf(m, 1, 0, s)
        assert np.abs(f[:, 0] - col).max() < 1e-12
        assert np.abs(f - _corner_passage(m, s)).max() < 1e-12


@pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
def test_first_passage_resolvent_identity(s):
    # Phi_jj(s) F_ji(s) = Phi_ji(s) - delta_ji I on truncations
    from qmcspectra.chain_model import resolvent_block

    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    d = m.block_dim
    for (j, i) in [(1, 0), (2, 2), (0, 3)]:
        f = first_passage_gf(m, j, i, s, window=48)
        phi_jj = resolvent_block(m, j, j, s, 48)
        phi_ji = resolvent_block(m, j, i, s, 48)
        delta = np.eye(d) if i == j else np.zeros((d, d))
        assert np.abs(phi_jj @ f - (phi_ji - delta)).max() < 1e-8


@pytest.mark.parametrize("make", [
    lambda: models.uniform_hopping_segment(8, 0.4, 0.5, 0.5, 0.3, 0.3),
    models.three_site_absorbing_oqw,
    models.five_site_lazy_shear_chain,
    models.shear_coin_segment,
], ids=["hopping", "three_site", "lazy_shear", "shear_coin"])
def test_return_block_is_first_passage_to_the_same_site(make):
    # F_jj(1) = B_j + F_j,j+1(1) A_j + F_j,j-1(1) C_j: the first-return
    # block of the transform is the first passage from j to itself
    m = make()
    for j in range(m.topology.num_sites):
        f, residual = SiteStieltjes(m, j).return_block()
        assert residual == 0.0
        assert np.abs(f - first_passage_gf(m, j, j, 1.0)).max() <= 1e-14


@pytest.mark.parametrize("site", [0, 1, 3])
def test_half_line_return_block_is_deep_window_first_passage(site):
    # the walk drifts down toward the edge, so a deep absorbing window
    # loses nothing above it
    m = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.4, 0.2)
    f, _ = SiteStieltjes(m, site).return_block()
    assert np.abs(f - first_passage_gf(m, site, site, 1.0, window=400)).max() <= 1e-12


def _dense_masked_gf(m, j, i, s, lo, hi):
    # s P_j Phi (I - s Q_j Phi)^{-1} on the dense window [lo, hi], every
    # block looked up per site
    d = m.block_dim
    n = (hi - lo + 1) * d
    phi = np.zeros((n, n), dtype=complex)
    for site in range(lo, hi + 1):
        k = (site - lo) * d
        for dst, role in ((site - 1, "C"), (site, "B"), (site + 1, "A")):
            if lo <= dst <= hi:
                phi[(dst - lo) * d : (dst - lo + 1) * d, k : k + d] = m.block(site, role)
    jj, ii = j - lo, i - lo
    masked = phi.copy()
    masked[jj * d : (jj + 1) * d, :] = 0.0
    rhs = np.zeros((n, d), dtype=complex)
    rhs[ii * d : (ii + 1) * d] = np.eye(d)
    sol = np.linalg.solve(np.eye(n) - s * masked, rhs)
    return s * (phi @ sol)[jj * d : (jj + 1) * d]


def _held_line():
    # the hopping line with another hold block at both edges of the
    # window [-16, 16] and at 17, past it
    m = models.uniform_hopping_line(0.3, 0.2, 0.6, 0.4, 0.3)
    hold = models.uniform_hopping_line(0.1, 0.4, 0.3, 0.4, 0.3).blocks["B"]
    return dataclasses.replace(m, overrides={k: {"B": hold} for k in (-16, 16, 17)})


@pytest.mark.parametrize(
    "make, window, lo, hi, pairs",
    [
        (lambda: models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4), 32, 0, 32,
         [(3, 1), (1, 4), (2, 2), (0, 0), (32, 32), (0, 32)]),
        (lambda: models.uniform_hopping_line(0.3, 0.2, 0.6, 0.4, 0.3), 16, -16, 16,
         [(0, -3), (-2, 2), (1, 1), (-16, -13), (16, 16)]),
        (_held_line, 16, -16, 16, [(16, -16), (-16, 16), (0, 16), (-16, -16), (16, 16)]),
        (lambda: models.uniform_hopping_segment(12, 0.3, 0.2, 0.6, 0.4, 0.3), 64, 0, 11,
         [(0, 11), (11, 0), (5, 5), (11, 11)]),
        (lambda: models.corner_coin_oqw(0.7), 20, 0, 20, [(1, 0), (0, 3), (0, 0), (2, 1)]),
    ],
    ids=["half_line", "line", "held_line", "segment", "corner_coin"],
)
def test_first_passage_stack_matches_dense_masked_oracle(make, window, lo, hi, pairs):
    m = make()
    d = m.block_dim
    s = np.array([0.0, 0.3, 0.6 + 0.3j, 0.9, 0.99])
    for j, i in pairs:
        got = first_passage_gf(m, j, i, s, window=window)
        assert got.shape == (len(s), d, d)
        assert np.abs(got[0]).max() == 0.0
        for k, sk in enumerate(s):
            want = _dense_masked_gf(m, j, i, sk, lo, hi)
            assert np.abs(got[k] - want).max() < 1e-12
            single = first_passage_gf(m, j, i, sk, window=window)
            assert single.shape == (d, d)
            assert np.abs(single - want).max() < 1e-12


def test_first_passage_singular_pivot_names_site_s_and_window():
    # site 2 only holds, trace preserving, so I - s B_2 vanishes at s = 1
    hop = Block(np.eye(2, dtype=complex) / 2)
    hold = {"B": Block(np.eye(2, dtype=complex)), "C": Block(np.zeros((2, 2), dtype=complex))}
    m = QmcModel(topology=segment(3), mode="abstract",
                 blocks={"A": hop, "C": hop}, overrides={2: hold}, substochastic=True)
    with pytest.raises(np.linalg.LinAlgError, match=r"site 2 for s in \[1\.0\] on window \[0, 2\]"):
        first_passage_gf(m, 0, 1, np.array([0.5, 1.0]))
    assert np.isfinite(first_passage_gf(m, 0, 1, 0.5)).all()
    # masking the hold site removes its pivot
    assert np.isfinite(first_passage_gf(m, 2, 1, 1.0)).all()


def test_first_passage_singular_pivot_on_a_line_counts_from_the_window():
    # the same hold site 2 on a line: the window [-2, 2] is solved as the
    # segment 0..4, whose sites 2..4, chain sites 0..2, hold the source
    hop = Block(np.eye(2, dtype=complex) / 2)
    hold = {"B": Block(np.eye(2, dtype=complex)), "C": Block(np.zeros((2, 2), dtype=complex))}
    m = QmcModel(topology=line(), mode="abstract",
                 blocks={"A": hop, "C": hop}, overrides={2: hold}, substochastic=True)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"site 4 for s in \[1\.0\] on window \[2, 4\], counted from chain site -2"):
        first_passage_gf(m, 0, 1, np.array([0.5, 1.0]), window=2)


@pytest.mark.parametrize(
    "params", [(0.4, 0.5, 0.5, 0.3, 0.3), (0.3, 0.2, 0.4, 0.5, 0.2), (0.3, 0.2, 0.4, 0.2, 0.5)],
    ids=["balanced", "drift_in", "drift_out"],
)
def test_reach_analysis_matches_dense_route(params):
    # the site traces form a lazy birth-death walk (down r, up t) killed
    # below 0, so the reach probability from i is min(1, r/t)^i; the
    # generating function on the window stays the dense window's below 1
    r, t = params[3], params[4]
    m = models.uniform_hopping_half_line(*params)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    ladder = np.array([1.0 - 2.0**-k for k in range(4, 25)])
    for i in (1, 3):
        res = reach_analysis(m, i, 0, rho, window=64)
        assert res.route == "closed" and res.residual <= FP_TOL
        ((s1, sample),) = res.ladder
        assert s1 == 1.0 and abs(sample - res.probability) < 1e-15 and not res.extrapolated
        assert abs(res.probability - min(1.0, r / t) ** i) < 1e-12
        blocks = first_passage_gf(m, 0, i, ladder, window=64)
        for s, f in zip(ladder, blocks):
            assert np.abs(f - _dense_masked_gf(m, 0, i, s, 0, 64)).max() < 1e-12


def test_first_passage_covers_whole_long_segment():
    # a segment longer than window + 1 sites is solved whole, so sites
    # above the window are reachable and no mass leaks out at the window
    m = models.uniform_hopping_segment(100, 0.4, 0.5, 0.5, 0.3, 0.3)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    for i, j in ((80, 70), (70, 90), (60, 75), (99, 0)):
        got = first_passage_gf(m, j, i, np.array([0.0, 0.5, 0.99]), window=64)
        for g, sk in zip(got, (0.0, 0.5, 0.99)):
            assert np.abs(g - _dense_masked_gf(m, j, i, sk, 0, 99)).max() < 1e-12
    # the balanced walk leaks out above site 99, so from 80 it reaches 70
    # before 100 with probability 2/3
    res = reach_analysis(m, 80, 70, rho, window=64)
    dense = trace_action(m, _dense_masked_gf(m, 70, 80, 1.0, 0, 99), m.state_vec(rho))
    assert res.route == "closed"
    assert abs(res.probability - dense) < 1e-12
    assert abs(res.probability - 2.0 / 3.0) < 1e-12


def test_polynomial_and_resolvent_paths_agree():
    m = models.flip_channel_half_line(0.6, 0.7)
    for (j, i, s) in [(2, 0, 0.5), (3, 1, 0.4), (1, 0, 0.8)]:
        a = first_passage_gf(m, j, i, s, window=64)
        b = first_passage_poly(m, j, i, s)
        assert np.abs(a - b).max() < 1e-8
    with pytest.raises(ValueError):
        first_passage_poly(m, 1, 1, 0.5)


def test_reach_probability_values():
    m = models.three_site_absorbing_oqw()
    for a, b in [(0.5, 0.2), (1.0, 0.0), (0.3, -0.35), (0.25, 0.31), (0.5, -0.5)]:
        rho = np.array([[a, b], [b, 1 - a]])
        assert reach_analysis(m, 0, 1, rho).probability == pytest.approx(
            (1 + SQ2 * b) / 2, abs=1e-8
        )
    res = reach_analysis(m, 1, 1, np.eye(2) / 2)
    assert res.probability == 1.0


def test_reach_to_the_source_site_checks_the_site():
    # the source is its own target, but it must still be a site of the
    # chain, as for any other pair
    with pytest.raises(ValueError, match="outside the segment topology"):
        reach_analysis(models.three_site_absorbing_oqw(), 7, 7, np.eye(2) / 2)


@pytest.mark.parametrize(
    "model, source, expect",
    [
        (models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4), 65, 0.5**65),
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.2, 0.4), 70, 0.5**70),
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.2, 0.4), -70, 1.0),
    ],
    ids=["half-line", "line-above", "line-below"],
)
def test_reach_from_past_the_fallback_window_is_closed(model, source, expect):
    # down 0.2 and up 0.4 per step: gambler's ruin reaches 0 from n above
    # with probability (1/2)^n, and from below with probability 1, at any
    # distance and whatever the fallback ladder's window (64 sites)
    res = reach_analysis(model, source, 0, np.eye(2) / 2)
    assert res.route == "closed"
    assert res.probability == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize(
    "model, i, j",
    [
        (models.three_site_absorbing_oqw(), 0, 3),
        (models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4), -1, 0),
        (models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4), 65, -5),
    ],
    ids=["segment", "half-line-source", "half-line-target"],
)
def test_reach_rejects_a_site_outside_the_topology(model, i, j):
    with pytest.raises(ValueError, match="topology"):
        reach_analysis(model, i, j, np.eye(2) / 2)


def _marked_at(model, site):
    """The same chain with an override at ``site`` equal to its interior
    block, which puts the site among the marks of every elimination."""
    overrides = {s: dict(ov) for s, ov in model.overrides.items()}
    overrides.setdefault(site, {})["A"] = Block(model.block(site, "A"))
    return dataclasses.replace(model, overrides=overrides)


@pytest.mark.parametrize(
    "model, source, target",
    [
        (models.tilted_shear_half_line(corner=True), 300, 2),
        (models.tilted_shear_line(), 300, 1),
        (models.tilted_shear_line(), -300, 1),
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.2, 0.4), -40, 3),
    ],
    ids=["half-line", "line-above", "line-below", "hop-line-below"],
)
def test_reach_from_a_far_source_equals_the_full_sweep(model, source, target):
    # unmarked, the source stands in next to the target and is lifted by a
    # power of the one-level passage; marked, the sweep visits every site
    rho = random_density(np.random.default_rng(abs(source)), 2).real
    lifted = reach_analysis(model, source, target, rho)
    swept = reach_analysis(_marked_at(model, source), source, target, rho)
    assert _Elimination(model, target, source).lift == abs(source - target) - 1
    assert _Elimination(_marked_at(model, source), target, source).lift == 0
    assert (lifted.route, swept.route) == ("closed", "closed")
    assert lifted.probability == pytest.approx(swept.probability, rel=1e-11, abs=1e-300)


def test_reach_table_does_not_grow_with_the_distance():
    model = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25)
    elimination = _Elimination(model, 0, 10**6)
    assert elimination.lift == 10**6 - 1
    assert len(elimination.table[1]) == 3
    res = reach_analysis(model, 10**6, 0, np.eye(2) / 2)
    assert res.route == "closed"
    assert res.probability == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("exponent", [2, 6, 8, 9, 12])
@pytest.mark.parametrize(
    "model, sign",
    [
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.2, 0.4), -1),
        (models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25), 1),
        (models.uniform_hopping_half_line(0.5, 0.5, 0.5, 0.25, 0.25), 1),
    ],
    ids=["line", "half-line", "balanced-half-line"],
)
def test_reach_of_a_recurrent_side_is_certain_at_any_distance(model, sign, exponent):
    # the plain power G^k loses about k roundings (2.4e-8 at k = 10^8 on the
    # line); split along the fixed functionals, t G^k = t to rounding
    source = sign * 10**exponent
    block, _ = _Elimination(model, 0, source).closed_passage()
    for rho in (np.array([[0.6, 0.2], [0.2, 0.4]]), np.diag([1.0, 0.0])):
        assert abs(trace_action(model, block, model.state_vec(rho)) - 1.0) <= 1e-14
        assert reach_analysis(model, source, 0, rho).route == "closed"


@pytest.mark.parametrize("source", [5, 50, 1000])
def test_reach_of_a_transient_side_keeps_the_plain_power(source):
    # (0.2, 0.4) leaks mass at every level, so t G != t and G^k is the
    # plain power: the reach from k is (1/2)^k
    model = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4)
    res = reach_analysis(model, source, 0, np.array([[0.6, 0.2], [0.2, 0.4]]))
    assert res.probability == pytest.approx(0.5**source, rel=1e-12)


def test_reach_probability_certain_capture():
    for g in (0.3, 1.0, 2.0):
        m = models.corner_coin_oqw(g)
        for _ in range(2):
            rho = random_density(np.random.default_rng(int(10 * g)))
            assert reach_analysis(m, 0, 1, rho).probability == pytest.approx(1.0, abs=1e-6)


def test_reach_probability_window_invariance(density2):
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    rho = np.real(density2 + density2.T) / 2
    rho = rho / np.trace(rho)
    p64 = reach_analysis(m, 0, 2, rho, window=64).probability
    p128 = reach_analysis(m, 0, 2, rho, window=128).probability
    assert p64 == pytest.approx(p128, abs=1e-9)


def test_balanced_reach_is_one_at_every_window():
    # the window-64 ladder answered the gambler's-ruin value 1 - 3/65
    # = 0.953846 of its absorbing window here; the null-recurrent interior
    # needs the shifted solvent, and the result is independent of window
    m = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.3)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    for res in (reach_analysis(m, 3, 0, rho), reach_analysis(m, 3, 0, rho, window=64)):
        assert res.route == "closed"
        assert abs(res.probability - 1.0) < 1e-10


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the coin line's invariant states drift apart (ROADMAP item 15), "
                          "so the reach answers for the absorbing window")
@pytest.mark.filterwarnings("ignore:no certified passage closure")
def test_coin_line_reach_is_certain():
    # the coins are diagonal, so each basis state walks a classical chain,
    # down 2/3 against up 1/3 or symmetric: both reach 0 from 3 surely.
    # The window [-64, 64] answers 1 - 3/65, its own gambler's ruin
    res = reach_analysis(models.diagonal_coin_line_walk(), 3, 0, np.diag([0.0, 1.0]))
    assert abs(res.probability - 1.0) < 1e-12


def _hopping_regime(rng, regime):
    """(s, a, b, r, t) with rates drawn as in the benchmark's reach class:
    r, t in [0.15, 0.45], |t - r| >= 0.1 unless balanced, s = 1 - r - t
    at least 0.1."""
    while True:
        r, t = rng.uniform(0.15, 0.45, size=2)
        if regime == "balanced":
            t = r
        elif (t - r if regime == "up" else r - t) < 0.1:
            continue
        s = 1.0 - r - t
        if s >= 0.1:
            a, b = rng.uniform(0.3, 0.6, size=2)
            return s, a, b, r, t


@pytest.mark.parametrize("regime", ["up", "down", "balanced"])
def test_reach_is_closed_in_every_hopping_regime(regime):
    rng = np.random.default_rng(14)
    for _ in range(4):
        s, a, b, r, t = _hopping_regime(rng, regime)
        m = models.uniform_hopping_half_line(s, a, b, r, t)
        rho = random_density(rng)
        for start in (2, 3, 4):
            res = reach_analysis(m, start, 0, rho, window=64)
            assert res.route == "closed" and res.residual <= FP_TOL
            assert abs(res.probability - min(1.0, r / t) ** start) < 1e-12


@pytest.mark.parametrize("r, t", [(0.2, 0.4), (0.4, 0.2), (0.3, 0.3)])
def test_line_reach_both_ways_matches_birth_death(r, t):
    # above the target the passage solvent closes the sweep, below it the
    # mirror solvent with A and C swapped
    m = models.uniform_hopping_line(1.0 - r - t, 0.5, 0.4, r, t)
    rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
    for i, j in ((3, 0), (1, -2), (-3, 0), (-1, 1)):
        res = reach_analysis(m, i, j, rho)
        want = min(1.0, r / t) ** (i - j) if i > j else min(1.0, t / r) ** (j - i)
        assert res.route == "closed"
        assert abs(res.probability - want) < 1e-12


@pytest.mark.parametrize("corner", [False, True])
def test_closed_reach_matches_deep_window(corner):
    # the tilted-shear chain drifts away from the target, so the dense
    # masked route on a deep window converges to the exact s = 1 value;
    # the corner variant puts an override at the target site
    m = models.tilted_shear_half_line(corner=corner)
    rho = np.array([[0.4, 0.05], [0.05, 0.6]])
    for i in (1, 2, 5):
        res = reach_analysis(m, i, 0, rho)
        dense = trace_action(m, _dense_masked_gf(m, 0, i, 1.0, 0, 160), m.state_vec(rho))
        assert res.route == "closed"
        assert abs(res.probability - dense) < 1e-12


def test_reach_falls_back_to_window_ladder():
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    # the diagonal coins drift down in one invariant state and not at all
    # in the other, so no single drift decides the shift
    m = models.diagonal_coin_line_walk()
    a, c = m.blocks["A"].matrix, m.blocks["C"].matrix
    assert spectral._drift(a, np.zeros_like(a), c, m.trace_vec) is None
    # the source side is unbounded, so the ladder answers for the window
    with pytest.warns(UserWarning, match=r"absorbing window \[-64, 64\], not of the chain"):
        res = reach_analysis(m, 3, 0, rho)
    assert res.route == "window" and res.extrapolated
    assert len(res.ladder) == 21 and 0.0 < res.residual < 1e-6
    # a trace-preserving hold at site 2 makes the s = 1 pivot singular
    hop = Block(np.eye(2, dtype=complex) / 2)
    hold = {"B": Block(np.eye(2, dtype=complex)), "C": Block(np.zeros((2, 2), dtype=complex))}
    seg = QmcModel(topology=segment(3), mode="abstract",
                   blocks={"A": hop, "C": hop}, overrides={2: hold}, substochastic=True)
    # on a segment the window is the whole chain, so nothing is said
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = reach_analysis(seg, 1, 0, np.array([1.0, 0.0]))
    assert res.route == "window"
    assert res.ladder[0] == (1.0 - 2.0**-4, pytest.approx(res.ladder[0][1]))


def test_reach_on_a_rough_ladder_returns_its_last_sample(monkeypatch):
    # on a ladder this coarse Richardson's last two estimates differ by
    # far more than the smoothness bound, so the last sample is returned
    monkeypatch.setattr(statistics, "REACH_LADDER", (0.5, 0.6, 0.7, 0.8))
    m = models.diagonal_coin_line_walk()
    with pytest.warns(UserWarning) as record:
        res = reach_analysis(m, 3, 0, np.array([[0.7, 0.2], [0.2, 0.3]]))
    assert [str(w.message) for w in record][-1] == (
        "first-passage ladder not smooth; falling back to last sample")
    assert res.route == "window" and not res.extrapolated
    assert [s for s, _ in res.ladder] == [0.5, 0.6, 0.7, 0.8]
    assert res.probability == res.ladder[-1][1] and res.residual > 1e-6


def test_drift_of_the_corrected_acceptance_chains():
    # 4d: both flip channels carry sum K*K = I/2, so the walk is balanced
    mc = models.flip_channel_half_line(0.7, 0.8, corner="up")
    a, c = mc.blocks["A"].matrix, mc.blocks["C"].matrix
    assert abs(spectral._drift(a, np.zeros_like(a), c, mc.trace_vec)) < 1e-15
    # 9c: up with probability (4 + 2 v22)/7, down with (3 - 2 v22)/7, and
    # the invariant state is diag(0, 1)
    up, down = models.tilted_shear_blocks()
    m = spectral._drift(up.matrix, np.zeros((3, 3)), down.matrix, mc.trace_vec)
    assert m == pytest.approx(5.0 / 7.0, abs=1e-14)
    # mirrored, the drift changes sign
    assert spectral._drift(down.matrix, np.zeros((3, 3)), up.matrix, mc.trace_vec) == (
        pytest.approx(-5.0 / 7.0, abs=1e-14))


# -- classification ---------------------------------------------------


def test_site_return_residual_is_defining_equation_residual():
    m = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25)
    z = 1.0 + 1e-4
    res = SiteStieltjes(m, 1).evaluate(z)
    fp = HomogeneousStieltjes.from_model(m).evaluate(z)
    # site 1 is closed above by the fixed point at site 2 and sees the
    # absorbing edge site 0 below; nothing closes the bounded side
    eye = np.eye(4)
    edge = np.linalg.inv(z * eye - m.block(0, "B"))
    core = (z * eye - m.block(1, "B") - m.block(2, "C") @ fp.value @ m.block(1, "A")
            - m.block(0, "A") @ edge @ m.block(1, "C"))
    pivot = np.linalg.norm(core @ res.value - eye, 2)
    assert res.residual == pytest.approx(fp.residual + pivot, rel=1e-6, abs=1e-15)
    assert res.residual < 1e-10
    assert np.abs(res.value - np.linalg.inv(core)).max() < 1e-8 * np.abs(res.value).max()


def test_classifier_on_synthetic_ladders():
    ladder = [1 + 10.0**-m for m in range(2, 9)]
    diverging = [(z, 1.0 / np.sqrt(z - 1)) for z in ladder]
    assert classify_from_samples(diverging).verdict == "recurrent"
    big = [(z, min(1e9, 1.0 / (z - 1))) for z in ladder]
    assert classify_from_samples(big).verdict == "recurrent"
    finite = [(z, 5.0 - 2.0 * np.sqrt(z - 1)) for z in ladder]
    cls = classify_from_samples(finite)
    assert cls.verdict == "transient"
    assert cls.limit == pytest.approx(5.0, abs=1e-6)
    assert len(cls.evidence) == len(ladder)
    # no Aitken sweep settles on these oscillating traces, but the last
    # increment is below STABILIZE_RTOL: the last sample is the limit
    settling = list(zip(ladder, [1.0, 2.0, 1.5, 1.8, 1.6, 1.7, 1.7000001]))
    cls = classify_from_samples(settling)
    assert (cls.verdict, cls.limit) == ("transient", 1.7000001)


def test_flip_channel_transient_every_density(rng):
    m = models.flip_channel_half_line(0.7, 0.8)
    ev = HomogeneousStieltjes.from_model(m)
    for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2):
        cls = classify_recurrence(m, 0, rho, ev)
        assert cls.verdict == "transient"
        assert cls.limit is not None and cls.limit < 10


def test_corner_restored_chain_recurrent_all_densities():
    # adding the up block at the corner makes the chain trace preserving;
    # the observable component is then a reflecting lazy walk, so every
    # density is recurrent (including diag(0, 1))
    from qmcspectra.spectral import CornerStieltjes

    m = models.flip_channel_half_line(0.7, 0.6, corner="up")
    inner = HomogeneousStieltjes.from_model(m)
    ev = CornerStieltjes(
        inner, m.overrides[0]["B"].matrix, a0=m.block(0, "A"), c=m.block(1, "C")
    )
    for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2):
        cls = classify_recurrence(m, 0, rho, ev)
        assert cls.verdict == "recurrent"


def test_recurrent_verdict_matches_unbounded_partial_sums():
    # the partial return series of the recurrent corner chain grows
    # without bound (like sqrt(N)); the classifier must say so
    from qmcspectra.spectral import CornerStieltjes

    m = models.flip_channel_half_line(0.7, 0.6, corner="up")
    rho = np.diag([0.25, 0.75])
    s1 = site_prob_series(m, 0, 0, rho, 500).sum()
    s2 = site_prob_series(m, 0, 0, rho, 2000).sum()
    s3 = site_prob_series(m, 0, 0, rho, 8000).sum()
    assert s2 > 1.8 * s1 and s3 > 1.8 * s2
    inner = HomogeneousStieltjes.from_model(m)
    ev = CornerStieltjes(
        inner, m.overrides[0]["B"].matrix, a0=m.block(0, "A"), c=m.block(1, "C")
    )
    assert classify_recurrence(m, 0, rho, ev).verdict == "recurrent"


def test_classifier_agrees_with_partial_sums():
    m = models.tilted_shear_half_line()
    ev = HomogeneousStieltjes.from_model(m)
    a = 0.35
    rho = np.array([[a, 0.0], [0.0, 1 - a]])
    cls = classify_recurrence(m, 0, rho, ev)
    assert cls.verdict == "transient"
    series = site_prob_series(m, 0, 0, np.array([a, 0.0, 1 - a]), 2000)
    partial = series.sum()
    assert cls.limit == pytest.approx((119 + 7 * a) / 102, abs=1e-8)
    # the return series decays fast here; the partial sum is already tight
    assert partial == pytest.approx(cls.limit, abs=1e-4)


def test_truncated_ladder_reports_its_worst_rung_residual():
    # the first silent case of ROADMAP item 4: window 800 on acceptance
    # 4d's chain misses its tolerance at the last rungs (window steps 454
    # and 4.17e3 at z - 1 = 1e-7 and 1e-8).  The verdict happens to be
    # right, and the largest rung residual shows that nothing certifies it
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    ev = TruncatedStieltjes(m, window=800)
    cls = classify_recurrence(m, 0, np.diag([0.0, 1.0]), ev)
    assert (cls.route, cls.verdict) == ("ladder", "recurrent")
    assert cls.residual > 1e3 and cls.recurrent_weight is None
    assert cls.residual == max(res.residual for _, res in ev.ladder(statistics.DEFAULT_LADDER))


def test_explicit_evaluator_answers_site_zero_only():
    m = models.flip_channel_half_line(0.7, 0.8)
    ev = HomogeneousStieltjes.from_model(m)
    with pytest.raises(ValueError, match="site 1"):
        classify_recurrence(m, 1, np.eye(2) / 2, ev)


@pytest.mark.parametrize(
    "model, site",
    [
        (models.uniform_hopping_segment(4, 0.5, 0.5, 0.5, 0.25, 0.25), 1),
        (models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25), 1),
        (models.diagonal_coin_line_walk(), 0),
        (models.diagonal_coin_line_walk(), 2),
    ],
    ids=["seg-1", "hop-1", "diagline-0", "diagline-2"],
)
def test_explicit_truncated_evaluator_is_never_ignored(model, site):
    # a truncated evaluator is a site-0 evaluator of a chain bounded below:
    # elsewhere it is refused, never silently replaced by the exact route
    with pytest.raises(ValueError, match="site 0|bounded from below"):
        classify_recurrence(model, site, np.array([[0.3, 0.1], [0.1, 0.7]]),
                            TruncatedStieltjes(model))


def test_truncated_ladder_resolves_the_flip_channel_edge_from_6400_sites():
    # windows from 6400 sites resolve the square-root edge of the flip
    # channel at z = 1; the truncation has no return block, so the seven
    # ladder samples decide
    m = models.flip_channel_half_line(0.7, 0.8)
    cls = classify_recurrence(m, 0, np.array([[0.3, 0.1], [0.1, 0.7]]),
                              TruncatedStieltjes(m, window=6400))
    assert (cls.verdict, cls.route, len(cls.evidence)) == ("transient", "ladder", 7)
    assert cls.limit < 10 and cls.recurrent_weight is None


def test_truncated_segment_limit_is_the_return_series():
    # the truncated route sweeps the whole segment at every rung
    seg = models.uniform_hopping_segment(4, 0.5, 0.5, 0.5, 0.25, 0.25)
    rho = np.array([[0.3, 0.1], [0.1, 0.7]])
    want = site_prob_series(seg, 0, 0, rho, 4000).sum()
    cls = classify_recurrence(seg, 0, rho, TruncatedStieltjes(seg))
    assert cls.limit == pytest.approx(want, abs=1e-9)


def test_general_site_classification_truncated():
    m = models.flip_channel_half_line(0.7, 0.8)
    rho = np.diag([0.5, 0.5])
    cls = classify_recurrence(m, 2, rho)
    assert cls.verdict == "transient"
    # the series tail decays like 1/sqrt(N); quadrupling the horizon
    # halves it, so 2 S(4N) - S(N) removes the leading tail
    s1 = site_prob_series(m, 2, 2, np.diag([0.5, 0.5]), 1500).sum()
    s2 = site_prob_series(m, 2, 2, np.diag([0.5, 0.5]), 6000).sum()
    assert cls.limit == pytest.approx(2 * s2 - s1, abs=5e-3)


# -- point masses -----------------------------------------------------


def test_jump_at_one_absent_for_transient_chain(monkeypatch):
    m = models.flip_channel_half_line(0.7, 0.8)
    monkeypatch.setattr(spectral, "TRUNC_MAX_DOUBLINGS", 1)
    ev = TruncatedStieltjes(m, window=400)
    monkeypatch.setattr(ev, "tolerance", 1.0)
    jump = jump_at_one(ev)
    assert np.linalg.norm(jump) == 0.0
    assert not positive_recurrent(ev, irreducible=True)


def test_jump_at_one_matches_discrete_node():
    # a trace-preserving segment has an eigenvalue at exactly 1; the
    # epsilon ladder must reproduce that node's weight
    up, down = models.flip_channel_blocks(0.7, 0.6)
    m = QmcModel(
        topology=segment(4),
        mode="compact",
        blocks={"A": up, "C": down},
        overrides={0: {"B": down}, 3: {"B": up}},
        substochastic=False,
    )
    assert max(m.tp_report().values()) < 1e-12
    w = finite_spectrum_weights(m)
    node1 = [p for p in w.points if abs(p.node - 1.0) < 1e-9]
    assert node1
    ev = TruncatedStieltjes(m)
    jump = jump_at_one(ev)
    assert np.abs(jump - node1[0].weight).max() < 1e-6
    assert positive_recurrent(ev, irreducible=True)


def test_divergent_transform_without_point_mass():
    # balanced line chain: the return transform diverges at 1 but carries
    # no atom there, so the walk is recurrent without positive recurrence
    m = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.25, 0.25)
    from qmcspectra.folding import FoldedTransformEvaluator

    ev = FoldedTransformEvaluator(m, 0)
    jump = jump_at_one(ev)
    assert np.linalg.norm(jump) < 1e-6
    t = np.array([1.0, 0, 0, 1.0])
    big = ev.evaluate(1 + 1e-9).value
    assert (t @ big @ t.conj()).real > 1e3


def test_first_passage_mask_structure():
    # the masked operator keeps identity on the removed site's row and
    # carries the plain blocks elsewhere: its (0,1) block is -s C_1 and
    # its (2,1) block is -s A_1
    m = models.three_site_absorbing_oqw()
    s = 0.7
    t = truncate(m, 0, 2)
    masked = t.matrix.copy()
    masked[4:8, :] = 0.0
    M = np.eye(12, dtype=complex) - s * masked
    assert np.abs(M[0:4, 4:8] + s * m.block(1, "C")).max() == 0.0
    assert np.abs(M[8:12, 4:8] + s * m.block(1, "A")).max() == 0.0
    assert np.abs(M[4:8, 4:8] - np.eye(4)).max() == 0.0

