import numpy as np
import pytest

from qmcspectra import models
from qmcspectra.chain_model import Block, QmcModel, segment, site_prob_series, truncate
from qmcspectra.folding import FoldedTransformEvaluator, plus_model
from qmcspectra.nonsymmetric import (
    km_row0,
    km_row0_probability,
    nonsym_finite_weights,
    semiorth_residual,
)
from qmcspectra.spectral import HomogeneousStieltjes
from qmcspectra.statistics import classify, classify_recurrence

from conftest import FIVE_SITE_LAZY_SHEAR, fraction_compact_block

SQ3 = np.sqrt(3.0)


@pytest.fixture(scope="module")
def shear_system():
    return nonsym_finite_weights(models.shear_coin_segment())


@pytest.fixture(scope="module")
def five_site_system():
    return nonsym_finite_weights(models.five_site_lazy_shear_chain())


def test_shear_nodes(shear_system):
    nodes = sorted(
        (p.node for p in shear_system.weight.points),
        key=lambda z: (round(z.real, 9), z.imag),
    )
    re = np.sqrt(2 * np.sqrt(6) - 3) / 6
    im = np.sqrt(2 * np.sqrt(6) + 3) / 6
    expect = sorted(
        [
            0.0,
            -np.sqrt(2) / 3,
            np.sqrt(2) / 3,
            -SQ3 / 3,
            SQ3 / 3,
            complex(-re, im),
            complex(re, -im),
            complex(-re, -im),
            complex(re, im),
        ],
        key=lambda z: (round(np.real(z), 9), np.imag(z)),
    )
    assert len(nodes) == 9
    for got, want in zip(nodes, expect):
        assert abs(got - want) < 1e-8
    mults = {round(p.node.real, 6): p.multiplicity for p in shear_system.weight.points}
    assert mults[0.0] == 4


def test_shear_weight_at_zero_and_total(shear_system):
    w1 = (1 / 6) * np.array(
        [[6, 1, 1, 0], [-1, 3, 0, 1], [-1, 0, 3, 1], [0, -1, -1, 0]]
    )
    node0 = [p for p in shear_system.weight.points if abs(p.node) < 1e-10][0]
    assert np.abs(node0.weight - w1).max() < 1e-10
    assert np.abs(shear_system.weight.total() - np.eye(4)).max() < 1e-10


def test_five_site_nodes_and_weight(five_site_system):
    got = sorted(p.node.real for p in five_site_system.weight.points)
    s2, s6, s3 = np.sqrt(2) / 5, np.sqrt(6) / 5, 2 * SQ3 / 5
    expect = sorted([0.0, -0.2, 0.2, 0.6, -s2, s2, -s6, s6, 0.2 - s3, 0.2 + s3])
    assert len(got) == 10
    assert np.abs(np.array(got) - np.array(expect)).max() < 1e-8
    w2 = [p for p in five_site_system.weight.points if abs(p.node + 0.2) < 1e-9][0]
    expect_w2 = np.array([[0, 0, 0], [0, 0, 0], [-0.5, 0, 0.25]])
    assert np.abs(w2.weight - expect_w2).max() < 1e-8


def test_semiorth_residuals_vanish(shear_system, five_site_system):
    for system in (shear_system, five_site_system):
        top = system.max_index
        for j in range(1, top + 1):
            for i in range(j):
                assert semiorth_residual(system, i, j) < 1e-8
    # the normalization block: i = j = 0 is the full mass, identity here
    assert np.abs(shear_system.weight.total() - np.eye(4)).max() < 1e-8


def test_full_orthogonality_fails(shear_system):
    # one-sided orthogonality holds, but the star product of the second
    # and zeroth polynomials does not vanish, which is exactly why the
    # two-index spectral formula breaks on this chain
    assert np.linalg.norm(shear_system.gram(2, 0)) > 1.0
    assert np.linalg.norm(shear_system.gram(0, 2)) < 1e-8


def test_km_row0_locality_and_values(shear_system):
    for n in (0, 1):
        assert np.abs(km_row0(shear_system, 2, n)).max() < 1e-12
    target = (
        np.array(
            [[63, -45, -45, 54], [-27, 26, 10, -45], [-27, 10, 26, -45], [90, -27, -27, 63]]
        )
        / 59049
    )
    assert np.abs(km_row0(shear_system, 2, 10) - target).max() < 1e-10
    m = shear_system.model
    t = truncate(m, 0, 2).matrix
    for n in (2, 4, 7, 12):
        direct = np.linalg.matrix_power(t, n)[0:4, 8:12]
        assert np.abs(km_row0(shear_system, 2, n) - direct).max() < 1e-10


def test_km_row0_probabilities(shear_system):
    a, b = 0.3, 0.1 + 0.05j
    rho = np.array([[a, b], [np.conj(b), 1 - a]])
    assert km_row0_probability(shear_system, 2, 10, rho) == pytest.approx(
        (13 + 4 * a - 16 * b.real) / 6561, abs=1e-12
    )
    assert km_row0_probability(shear_system, 2, 2, rho) == pytest.approx(
        (1 + 4 * a - 4 * b.real) / 9, abs=1e-12
    )
    assert km_row0_probability(shear_system, 2, 3, rho) == pytest.approx(0.0, abs=1e-12)
    assert km_row0_probability(shear_system, 2, 4, rho) == pytest.approx(
        1 / 27, abs=1e-12
    )


def test_five_site_row0_matches_power(five_site_system):
    m = five_site_system.model
    t = truncate(m, 0, 4).matrix
    for (i, n) in [(3, 7), (2, 5), (4, 9)]:
        direct = np.linalg.matrix_power(t, n)[0:3, 3 * i : 3 * (i + 1)]
        assert np.abs(km_row0(five_site_system, i, n) - direct).max() < 1e-10
    # seventh-power block, from exact rational evolution of the effects
    exact = fraction_compact_block(
        5, **FIVE_SITE_LAZY_SHEAR, start=3, target=0, steps=7
    )
    assert [[v * 78125 for v in row] for row in exact] == [
        [52, 0, 0], [0, 52, 0], [1916, 0, 4632]
    ]
    blk = km_row0(five_site_system, 3, 7) * 78125
    assert np.abs(blk - 78125 * np.array(exact, dtype=float)).max() < 1e-6
    for a in (0.0, 0.4, 1.0):
        rho = np.array([a, 0.08, 1 - a])
        p = km_row0_probability(five_site_system, 3, 7, rho)
        assert p == pytest.approx((4632 - 2664 * a) / 78125, abs=1e-10)


def test_row0_formula_on_a_one_site_segment():
    # a single site holds its mass with B, so the n-step block is B^n; the
    # formula needs only Q_0 = I, never Q_1, whose pivot A_0 the edge clips
    b = np.array([[0.5, 0.2], [0.1, 0.3]], dtype=complex)
    m = QmcModel(topology=segment(1), mode="abstract", blocks={"B": Block(b)},
                 substochastic=True)
    system = nonsym_finite_weights(m)
    cube = np.linalg.matrix_power(b, 3)
    assert np.abs(km_row0(system, 0, 3) - cube).max() < 1e-12
    assert np.abs(system.gram(0, 0, 3) - cube).max() < 1e-12
    assert semiorth_residual(system, 0, 0) == pytest.approx(1.0, abs=1e-12)


def test_two_index_formula_counterexample(shear_system):
    # the unrestricted spectral formula fails at (2, 2): its n = 2 value
    # differs measurably from the true block
    lhs = np.linalg.solve(shear_system.gram(2, 2, 0), shear_system.gram(2, 2, 2))
    t = truncate(shear_system.model, 0, 2).matrix
    true_block = np.linalg.matrix_power(t, 2)[8:12, 8:12]
    assert np.linalg.norm(lhs - true_block) > 0.1


def documented_line_criterion(m, rho):
    """The documented homogeneous-line criterion X (I - A X C X)^{-1}:
    the split identity at site 0 with the upward transform in both
    halves."""
    base = HomogeneousStieltjes.from_model(plus_model(m))
    evaluator = FoldedTransformEvaluator(m, 0, plus=base, minus=base)
    return classify(evaluator, m.trace_vec, m.state_vec(rho))


def test_classify_homogeneous_half_line_limits():
    m = models.tilted_shear_half_line()
    for a in (0.0, 0.5, 1.0):
        rho = np.array([a, 0.05, 1 - a])
        cls = classify_recurrence(m, 0, rho)
        assert cls.verdict == "transient"
        # the half-line chain of the blocks is decided exactly at z = 1
        assert cls.route == "renewal"
        assert cls.limit == pytest.approx((119 + 7 * a) / 102, abs=1e-6)


def test_classify_homogeneous_line_formula():
    m = models.tilted_shear_line()
    for a in (0.0, 0.5, 1.0):
        rho = np.array([a, 0.05, 1 - a])
        cls = documented_line_criterion(m, rho)
        assert cls.verdict == "transient"
        assert cls.limit == pytest.approx((182 * a + 595) / 425, abs=1e-6)


def test_documented_line_formula_vs_direct_series():
    # the documented homogeneous-line criterion composes the upward
    # transform twice; with non-commuting hops the direct return series
    # converges to a different number (exact split identities in the
    # folding module reproduce the series)
    from qmcspectra.folding import classify_recurrence_on_line

    m = models.tilted_shear_line()
    a = 1.0
    rho_c = np.array([a, 0.0, 1 - a])
    series = site_prob_series(m, 0, 0, rho_c, 3000).sum()
    assert series == pytest.approx((280 * a + 595) / 425, abs=1e-4)
    exact = classify_recurrence_on_line(m, 0, rho_c)
    assert exact.verdict == "transient"
    assert exact.limit == pytest.approx((280 * a + 595) / 425, abs=1e-6)
    documented = documented_line_criterion(m, rho_c)
    assert documented.limit == pytest.approx((182 * a + 595) / 425, abs=1e-6)


def test_corner_variant_transient_despite_trace_preservation():
    # the trace-preserving corner variant drifts upward and its return
    # series converges; all three routes agree on the value
    m = models.tilted_shear_half_line(corner=True)
    rho_m = np.array([[0.4, 0.07], [0.07, 0.6]])
    partial = site_prob_series(m, 0, 0, rho_m, 4000).sum()
    cls = classify_recurrence(m, 0, np.array([0.4, 0.07, 0.6]))
    assert cls.verdict == "transient" and cls.route == "renewal"
    assert cls.limit == pytest.approx(partial, abs=1e-4)


def test_balanced_shift_classifications():
    # the cornerless balanced-shift chain absorbs at the boundary and is
    # transient with limit 2; the corner variant still leaks a fifth of
    # the second component's mass per corner visit, so it stays transient
    # (the renewal limit matches the extrapolated return series)
    m = models.balanced_shift_half_line(corner=True)
    cls = classify_recurrence(m, 0, np.array([0.5, 0.1, 0.5]))
    assert cls.verdict == "transient" and cls.route == "renewal"
    rho = np.array([[0.5, 0.1], [0.1, 0.5]])
    s1 = site_prob_series(m, 0, 0, rho, 2000).sum()
    s2 = site_prob_series(m, 0, 0, rho, 8000).sum()
    assert cls.limit == pytest.approx(2 * s2 - s1, abs=2e-3)

    cls0 = classify_recurrence(
        models.balanced_shift_half_line(), 0, np.array([0.5, 0.1, 0.5])
    )
    assert cls0.verdict == "transient" and cls0.route == "renewal"
    assert cls0.limit == pytest.approx(2.0, abs=1e-6)
