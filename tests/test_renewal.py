"""The renewal route of recurrence: the exact first-return block
F = I - core(1) of SiteStieltjes and its spectral projection decide a site
for every density at once.  Its values are checked against Kraus partial
sums, closed forms of the birth-death chains and dense absorbing windows;
its verdicts against the ladder; and its fallbacks to the ladder."""

import numpy as np
import pytest

from qmcspectra import models, statistics
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    block_from_kraus,
    half_line,
    resolvent_block,
)
from qmcspectra.spectral import SiteStieltjes, StieltjesEvaluator
from qmcspectra.statistics import classify_recurrence, renewal

from conftest import kraus_return_series, tilted_shear_effects


def _ladder(monkeypatch, m, site, rho):
    """The same classification with the return block withheld, so that it
    runs on DEFAULT_LADDER."""
    with monkeypatch.context() as mp:
        mp.setattr(SiteStieltjes, "return_block", StieltjesEvaluator.return_block)
        return classify_recurrence(m, site, rho)


def _renewal(m, site):
    return renewal(SiteStieltjes(m, site), m.trace_vec)


def test_9c_corner_limit_is_the_kraus_oracle():
    # acceptance 9c's chain and density; the direct return series of its
    # Kraus effects sums to 469/255 (NOTES.md)
    m = models.tilted_shear_half_line(corner=True)
    rho = np.array([[0.4, 0.05], [0.05, 0.6]])
    cls = classify_recurrence(m, 0, rho)
    assert (cls.route, cls.verdict, cls.evidence) == ("renewal", "transient", ())
    assert cls.limit == pytest.approx(469 / 255, abs=1e-13)
    up, down = tilted_shear_effects()
    assert cls.limit == pytest.approx(kraus_return_series(up, down, down, rho, 200).sum(),
                                      abs=1e-12)
    assert cls.residual <= 1e-15 and abs(cls.recurrent_weight) <= 1e-15


@pytest.mark.parametrize("rho", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                                 np.array([[0.3, 0.2], [0.2, 0.7]])])
def test_cornerless_flip_limit_is_two(rho):
    # both hops have trace weight 1/2: the trace walks a symmetric walk
    # killed below 0, which returns to 0 with probability 1/2
    cls = classify_recurrence(models.flip_channel_half_line(0.7, 0.8), 0, rho)
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx(2.0, abs=1e-12)


def test_abstract_two_by_two_blocks_are_decided():
    # the model alone fixes the representation, so abstract 2 x 2 blocks
    # need no square size; with hop and hold 0.3 the all-ones trace walks
    # a scalar walk whose return transform solves 0.09 X^2 - 0.7 X + 1 = 0
    half = 0.3 * np.eye(2)
    m = QmcModel(topology=half_line(), mode="abstract",
                 blocks={role: Block(half.copy()) for role in "ABC"})
    cls = classify_recurrence(m, 0, [1, 0])
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx((0.7 - np.sqrt(0.13)) / 0.18, abs=1e-12)


@pytest.mark.parametrize("corner", [None, "up"])
@pytest.mark.parametrize("p, q", [(0.7, 0.8), (0.6, 0.9), (0.85, 0.65)])
def test_flip_channel_verdict_is_the_same_in_both_modes(p, q, corner):
    # the flip channel exists in the full and the compact representation;
    # the verdict is the chain's, not the representation's
    rho = np.array([[0.3, 0.2], [0.2, 0.7]])
    full, compact = (
        classify_recurrence(models.flip_channel_half_line(p, q, corner, mode=mode), 0, rho)
        for mode in ("full", "compact")
    )
    assert (full.verdict, full.route) == (compact.verdict, compact.route)
    assert full.recurrent_weight == pytest.approx(compact.recurrent_weight, abs=1e-12)
    if corner is None:
        assert full.limit == pytest.approx(compact.limit, abs=1e-12)
    else:
        assert full.limit is None and compact.limit is None


@pytest.mark.parametrize("corner", ["down", np.eye(3)], ids=["name", "matrix"])
def test_flip_channel_corner_is_none_or_up(corner):
    with pytest.raises(ValueError, match="corner must be None or 'up'"):
        models.flip_channel_half_line(0.7, 0.8, corner)


@pytest.mark.parametrize("r, t", [(0.2, 0.4), (0.4, 0.2)])
def test_drifting_hopping_line_limit_is_one_over_drift(r, t):
    # a lazy birth-death walk on the line returns with probability
    # 1 - |r - t|, at every site
    m = models.uniform_hopping_line(1 - r - t, 0.5, 0.5, r, t)
    rho = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])
    cls = classify_recurrence(m, 2, rho)
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("r", [0.25, 0.3])
def test_balanced_half_line_site_3_is_decided(monkeypatch, r):
    # the birth-death chain killed below 0 reaches 3 from 2 before dying
    # with probability 3/4, so the return limit at site 3 is 4 / r.  The
    # ladder cannot decide it: the transform has not settled at 1 + 1e-8
    m = models.uniform_hopping_half_line(1 - 2 * r, 0.5, 0.5, r, r)
    rho = np.array([[0.7, 0.2], [0.2, 0.3]])
    cls = classify_recurrence(m, 3, rho)
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx(4 / r, abs=1e-11)
    assert _ladder(monkeypatch, m, 3, rho).verdict == "inconclusive"


def _window_limit(m, site, rho):
    """Expected visits on the absorbing windows [0, 100], [0, 200] and
    [0, 400], dense solves at s = 1, extrapolated twice in the window:
    the error of a null-recurrent tail falls like 1 / window."""
    v = m.state_vec(rho)
    vals = [(m.trace_vec @ resolvent_block(m, site, site, 1.0, w) @ v).real
            for w in (100, 200, 400)]
    r1, r2 = 2 * vals[1] - vals[0], 2 * vals[2] - vals[1]
    return (4 * r2 - r1) / 3


def test_balanced_shift_corner_site_3_matches_dense_windows(monkeypatch):
    m = models.balanced_shift_half_line(corner=True)
    rho = np.array([[0.3, 0.2], [0.2, 0.7]])
    cls = classify_recurrence(m, 3, rho)
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx(_window_limit(m, 3, rho), rel=1e-4)
    assert _ladder(monkeypatch, m, 3, rho).verdict == "inconclusive"


def _split_enclosures():
    """A half-line of two commuting symmetric walks, one per basis state:
    the corner reflects the first and kills the second."""
    h = 1 / np.sqrt(2)
    return QmcModel(
        topology=half_line(), mode="full",
        blocks={"A": block_from_kraus([h * np.eye(2)]),
                "C": block_from_kraus([np.diag([h, -h])])},
        overrides={0: {"B": block_from_kraus([np.diag([h, 0.0])])}},
        substochastic=True,
    )


@pytest.mark.parametrize("site", [0, 1, 3])
def test_one_block_decides_every_density(monkeypatch, site):
    # the recurrent weight is the mass in the reflected walk; without it
    # the killed walk visits site j 2 (j + 1) times on average
    m = _split_enclosures()
    ren = _renewal(m, site)
    for p in (1.0, 0.0, 0.3):
        rho = np.array([[p, 0.2j * np.sqrt(p * (1 - p))],
                        [-0.2j * np.sqrt(p * (1 - p)), 1 - p]])
        cls = ren.verdict(m.state_vec(rho))
        assert cls == classify_recurrence(m, site, rho)
        assert cls.recurrent_weight == pytest.approx(p, abs=1e-12)
        want = _ladder(monkeypatch, m, site, rho)
        assert cls.verdict == want.verdict
        if p == 0.0:
            assert cls.limit == pytest.approx(2 * (site + 1), abs=1e-11)
            assert cls.limit == pytest.approx(want.limit, rel=1e-6)


@pytest.mark.parametrize("name, make", [
    ("flip-up-corner", lambda: models.flip_channel_half_line(0.7, 0.8, corner="up")),
    ("hopping-balanced-line", lambda: models.uniform_hopping_line(0.5, 0.5, 0.5, 0.25, 0.25)),
])
@pytest.mark.parametrize("site", [0, 3])
def test_recurrent_chains_have_unit_weight(monkeypatch, name, make, site):
    # acceptance 4d's chain and 6b's line: trace preserving and
    # irreducible in the trace, so every density recurs with weight 1.
    # Both have zero drift, the knife edge: the shifted closure makes 1 an
    # eigenvalue of F to rounding
    m = make()
    ren = _renewal(m, site)
    for rho in (np.diag([0.0, 1.0]), np.eye(2) / 2):
        cls = ren.verdict(m.state_vec(rho))
        assert cls.verdict == "recurrent" and cls.limit is None
        assert cls.recurrent_weight == pytest.approx(1.0, abs=1e-12)
        assert _ladder(monkeypatch, m, site, rho).verdict == "recurrent"


# -- the knife edge and the fallbacks -----------------------------------

def _tilted_line(delta):
    """The balanced hopping line of acceptance 6b with the up rate raised
    by ``delta``."""
    return models.uniform_hopping_line(0.5 - delta, 0.5, 0.5, 0.25, 0.25 + delta)


@pytest.mark.parametrize("delta", [1e-4, -1e-4, 1e-3])
def test_knife_edge_small_drift_is_transient(delta):
    cls = classify_recurrence(_tilted_line(delta), 0, np.diag([0.4, 0.6]))
    assert (cls.route, cls.verdict) == ("renewal", "transient")
    assert cls.limit == pytest.approx(1 / abs(delta), rel=1e-6)


@pytest.mark.parametrize("delta", [1e-7, 1e-9])
def test_knife_edge_ambiguous_drift_falls_back(delta):
    # the return probability 1 - delta is either in the ambiguous band
    # below 1 or its closure does not certify: the ladder answers
    cls = classify_recurrence(_tilted_line(delta), 0, np.diag([0.4, 0.6]))
    assert cls.route == "ladder" and len(cls.evidence) == 7
    assert cls.recurrent_weight is None


@pytest.mark.parametrize("rho, verdict, limit", [
    (np.diag([1.0, 0.0]), "transient", 3.0),  # acceptance 5a
    (np.eye(2) / 2, "recurrent", None),
])
def test_coin_line_falls_back_to_the_ladder(monkeypatch, rho, verdict, limit):
    # the invariant states drift apart, so no closure is certified at 1
    m = models.diagonal_coin_line_walk()
    assert SiteStieltjes(m, 0).return_block() is None
    cls = classify_recurrence(m, 0, rho)
    assert cls == _ladder(monkeypatch, m, 0, rho)
    assert (cls.route, cls.verdict) == ("ladder", verdict)
    assert cls.limit == (None if limit is None else pytest.approx(limit, abs=1e-9))
    assert cls.residual <= 1e-11 and cls.recurrent_weight is None


class _Block(StieltjesEvaluator):
    """An evaluator that has nothing but a given return block."""

    def __init__(self, f):
        self.f = np.asarray(f, dtype=complex)

    def return_block(self):
        return self.f, 0.0


@pytest.mark.parametrize("f, why", [
    (np.diag([1.0 - 1e-7, 0.5]), "eigenvalue in the ambiguous band"),
    (np.array([[1.0, 1e7], [0.0, 0.5]]), "ill-conditioned projector"),
    (np.diag([1.0 + 1e-6, 0.5]), "spectral radius above 1"),
])
def test_undecidable_blocks_have_no_renewal(f, why):
    assert renewal(_Block(f), np.ones(2)) is None, why


def test_block_at_the_band_edges_is_decided():
    ren = renewal(_Block(np.diag([1.0, 0.5])), np.ones(2))
    assert ren.verdict(np.array([0.25, 0.75])).recurrent_weight == pytest.approx(0.25)
    ren = renewal(_Block(np.diag([1.0 - 2 * statistics.AMBIGUOUS_BAND, 0.5])), np.ones(2))
    assert ren.verdict(np.array([0.0, 1.0])).limit == pytest.approx(2.0)


def test_weight_outside_unit_interval_falls_back():
    # twice a density has recurrent weight 2, which no density has
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    rho = np.diag([0.0, 2.0])
    assert _renewal(m, 0).verdict(m.state_vec(rho)) is None
    cls = classify_recurrence(m, 0, rho)
    assert (cls.route, cls.verdict) == ("ladder", "recurrent")
