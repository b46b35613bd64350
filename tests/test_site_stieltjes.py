"""The exact site route SiteStieltjes against independent oracles: dense
truncations, the split identities of folded line chains, closed forms
and the birth-death return limits of the hopping chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcspectra import models
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    corner_resolvent,
    half_line,
    line,
    resolvent_block,
    segment,
)
from qmcspectra.folding import FoldedTransformEvaluator, classify_recurrence_on_line, half_line_evaluators
from qmcspectra.spectral import (
    SiteStieltjes,
    StieltjesEvaluator,
    _warm_ladder,
    residue_probe,
    transform_evaluator,
)
from qmcspectra.statistics import DEFAULT_LADDER, classify, classify_recurrence, jump_at_one

from conftest import random_complex

# every block has spectral norm BLOCK_NORM, so ||Phi|| <= 3 BLOCK_NORM
# and the truncation error at |z| >= 1.5 falls like 2^-(path length)
BLOCK_NORM = 0.25


def _block(rng, d):
    m = random_complex(rng, (d, d))
    return Block(BLOCK_NORM * m / np.linalg.norm(m, 2))


@st.composite
def chains(draw, kind):
    """A random eventually-homogeneous abstract chain: homogeneous blocks
    plus random roles overridden at up to three sites."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 3))
    topo = {"segment": segment(draw(st.integers(1, 6))), "half_line": half_line(),
            "line": line()}[kind]
    near = range(-3, 4) if kind == "line" else range(0, 4)
    sites = draw(st.sets(st.sampled_from(near), max_size=3))
    overrides = {}
    for site in sites:
        if topo.contains(site):
            roles = draw(st.sets(st.sampled_from("ABC"), min_size=1))
            overrides[site] = {role: _block(rng, d) for role in sorted(roles)}
    return QmcModel(
        topology=topo, dim=None, block_dim=d, mode="abstract",
        blocks={role: _block(rng, d) for role in "ABC"},
        overrides=overrides, substochastic=True,
    )


off_axis = st.builds(
    complex, st.floats(-2.0, 2.0), st.sampled_from([-1.0, 1.0]).flatmap(
        lambda sign: st.floats(1.5, 2.5).map(lambda y: sign * y))
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["segment", "half_line"]).flatmap(chains), off_axis)
def test_corner_matches_deep_truncation(model, z):
    got = SiteStieltjes(model).evaluate(z)
    assert got.residual < 1e-12
    assert np.abs(got.value - corner_resolvent(model, z, 80)).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(chains("line"), off_axis)
def test_line_sites_match_split_identities(model, z):
    for site in (0, -1):
        got = SiteStieltjes(model, site).evaluate(z).value
        want = FoldedTransformEvaluator(model, site).evaluate(z).value
        assert np.abs(got - want).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["segment", "half_line", "line"]).flatmap(chains), off_axis,
       st.integers(-4, 6))
def test_site_block_matches_dense_resolvent(model, z, site):
    if not model.topology.contains(site):
        with pytest.raises(ValueError, match="outside"):
            SiteStieltjes(model, site)
        return
    got = z * SiteStieltjes(model, site).evaluate(z).value
    assert np.abs(got - resolvent_block(model, site, site, 1 / z, 40)).max() < 1e-10


def test_auto_route_on_segment_is_the_segment_resolvent():
    seg = models.uniform_hopping_segment(4, 0.5, 0.5, 0.5, 0.25, 0.25)
    z = 1.5 + 0.2j
    got = transform_evaluator(seg, "auto").evaluate(z).value
    assert np.abs(got - corner_resolvent(seg, z, 4)).max() < 1e-12
    for method in ("homogeneous", "corner"):
        with pytest.raises(ValueError, match="half-line"):
            transform_evaluator(seg, method)


@pytest.mark.parametrize("r, t", [(0.4, 0.2), (0.2, 0.4), (0.45, 0.25)])
def test_hopping_site1_limit_matches_birth_death(r, t):
    # site traces follow a birth-death chain (up t, hold s, down r) killed
    # below 0; expected visits to site 1 are 1 / (1 - F) with F the
    # return probability by first step
    s = 1.0 - r - t
    m = models.uniform_hopping_half_line(s, 0.5, 0.5, r, t)
    ratio = r / t
    down = (1 - ratio) / (1 - ratio**2)  # from 0, reach 1 before dying
    want = 1.0 / (1.0 - (s + t * min(1.0, ratio) + r * down))
    cls = classify_recurrence(m, 1, np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]]))
    assert cls.verdict == "transient"
    assert cls.limit == pytest.approx(want, abs=1e-9)


def test_up_corner_flip_auto_rungs_are_certified():
    # acceptance 4d's chain: the auto route is exact down the whole ladder
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    rungs = list(_warm_ladder(transform_evaluator(m, "auto"), DEFAULT_LADDER))
    assert len(rungs) == len(DEFAULT_LADDER)
    assert max(res.residual for _, res in rungs) <= 1e-12


def test_diagonal_walk_line_sites_match_closed_form():
    # commuting diagonal coins: each component is a scalar walk with
    # return transform 1 / sqrt(z^2 - 4 r l), at sites 0 and -1 alike
    m = models.diagonal_coin_line_walk()
    r = np.array([1 / 3, 1 / np.sqrt(6), 1 / np.sqrt(6), 0.5])
    l = np.array([2 / 3, 1 / np.sqrt(3), 1 / np.sqrt(3), 0.5])
    for z in (1.05, 1.5 + 0.3j):
        want = np.diag(1.0 / np.sqrt(z * z - 4 * r * l + 0j))
        for site in (0, -1):
            assert np.abs(SiteStieltjes(m, site).evaluate(z).value - want).max() < 1e-10


class Spy(StieltjesEvaluator):
    """Records the warm start each evaluation receives and the warm state
    it hands back."""

    method = "spy"

    def __init__(self, inner):
        self.inner, self.x0s, self.warms = inner, [], []

    def evaluate(self, z, x0=None):
        self.x0s.append(x0)
        res = self.inner.evaluate(z, x0=x0)
        self.warms.append(res.warm())
        return res


def _warm_chain(spy):
    """Each rung after the first got the previous rung's own state."""
    return spy.x0s[0] is None and all(
        x0 is not None and x0 is prev for x0, prev in zip(spy.x0s[1:], spy.warms)
    )


def test_folded_halves_are_warm_started():
    m = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3)
    plus, minus = (Spy(ev) for ev in half_line_evaluators(m))
    classify_recurrence_on_line(m, 0, np.eye(2) / 2, plus=plus, minus=minus)
    assert len(plus.x0s) == len(minus.x0s) == len(DEFAULT_LADDER)
    assert _warm_chain(plus) and _warm_chain(minus)


@pytest.mark.parametrize("consumer", ["classify", "jump_at_one", "residue_probe"])
def test_rung_consumers_warm_start_every_rung(consumer):
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    spy = Spy(SiteStieltjes(m))
    if consumer == "classify":
        classify(spy, m.trace_vec, m.state_vec(np.eye(2) / 2))
    elif consumer == "jump_at_one":
        jump_at_one(spy)
    else:
        residue_probe(spy, 1.0)
    assert len(spy.x0s) > 2 and _warm_chain(spy)
