"""The exact site route SiteStieltjes against independent oracles: dense
truncations, the split identities of folded line chains, closed forms
and the birth-death return limits of the hopping chains."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcspectra import cli, models, spectral
from qmcspectra.chain_model import (
    ROLES,
    Block,
    QmcModel,
    _homogeneous_matrix,
    corner_resolvent,
    half_line,
    line,
    model_to_dict,
    resolvent_block,
    segment,
)
from qmcspectra.cli import run
from qmcspectra.folding import FoldedTransformEvaluator
from qmcspectra.spectral import (
    CornerStieltjes,
    HomogeneousStieltjes,
    SiteStieltjes,
    StieltjesEvaluator,
    residue_probe,
)
from qmcspectra.statistics import DEFAULT_LADDER, classify_recurrence, jump_at_one

from conftest import random_complex, random_density

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
        topology=topo, mode="abstract",
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
    got = SiteStieltjes(seg).evaluate(z).value
    assert np.abs(got - corner_resolvent(seg, z, 4)).max() < 1e-12
    # auto is the only route
    for method in ("truncated", "homogeneous", "corner"):
        with pytest.raises(ValueError, match="unknown method"):
            cli._evaluator(seg, method, 800)


CROSS_CHECK_POINTS = [1.5, 1.01, 0.8 + 0.3j, -0.5 + 0.2j, 1.2 + 0.05j]


def _corner_identity(m):
    """The corner identity (z - B0 - C1 X A0)^{-1} around the homogeneous
    transform X of the interior of a half-line."""
    return CornerStieltjes(HomogeneousStieltjes.from_model(m), m.block(0, "B"),
                           a0=m.block(0, "A"), c=m.block(1, "C"))


@pytest.mark.parametrize("model", [
    models.flip_channel_half_line(0.7, 0.6, corner="up"),
    models.tilted_shear_half_line(corner=True),
    models.balanced_shift_half_line(corner=True),
    models.corner_coin_oqw(0.7),
], ids=["flip-up-corner", "tilted-corner", "shift-corner", "corner-coin"])
def test_corner_identity_is_the_auto_route(model):
    # on a half-line whose only override is at site 0, SiteStieltjes
    # evaluates (z - B0 - C1 X A0)^{-1} around the same closure X
    assert set(model.overrides) == {0}
    ref = _corner_identity(model)
    auto = SiteStieltjes(model)
    for z in CROSS_CHECK_POINTS:
        want, got = ref.evaluate(z), auto.evaluate(z)
        assert np.array_equal(got.value, want.value) and got.residual == want.residual


@pytest.mark.parametrize("model", [
    models.flip_channel_half_line(0.7, 0.8),
    models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25),
    models.tilted_shear_half_line(),
], ids=["flip", "hopping", "tilted"])
def test_homogeneous_transform_is_the_auto_route(model):
    assert not model.overrides
    ref = HomogeneousStieltjes.from_model(model)
    auto = SiteStieltjes(model)
    for z in CROSS_CHECK_POINTS:
        want, got = ref.evaluate(z).value, auto.evaluate(z).value
        assert np.linalg.norm(got - want, 2) <= 1e-15 * np.linalg.norm(want, 2)


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
    rungs = list(SiteStieltjes(m).ladder(DEFAULT_LADDER))
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


# -- the stacked real ladder ---------------------------------------------

HALF_LINES = {
    "hopping-out": models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.2, 0.4),
    "hopping-in": models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.4, 0.2),
    "hopping-balanced": models.uniform_hopping_half_line(0.5, 0.5, 0.5, 0.25, 0.25),
    "flip": models.flip_channel_half_line(0.7, 0.8),
    "flip-up-corner": models.flip_channel_half_line(0.7, 0.8, corner="up"),
    "tilted-shear": models.tilted_shear_half_line(),
    "tilted-shear-corner": models.tilted_shear_half_line(corner=True),
    "balanced-shift": models.balanced_shift_half_line(),
    "balanced-shift-corner": models.balanced_shift_half_line(corner=True),
    "corner-coin": models.corner_coin_oqw(0.5),
}
LINES = {
    "diagonal-coin": models.diagonal_coin_line_walk(),
    "hopping-balanced-line": models.uniform_hopping_line(0.5, 0.5, 0.5, 0.25, 0.25),
    "hopping-tilted-line": models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3),
    "tilted-shear-line": models.tilted_shear_line(),
}
CHAIN_SITES = [(name, site) for name in HALF_LINES for site in (0, 1)] + [
    (name, site) for name in LINES for site in (0, 1, -1)
]


def _walk(ev, points=DEFAULT_LADDER):
    """The inherited rung-by-rung walk, one evaluate call per rung."""
    return list(StieltjesEvaluator.ladder(ev, points))


@pytest.mark.parametrize("name, site", CHAIN_SITES, ids=[f"{n}@{s}" for n, s in CHAIN_SITES])
def test_stacked_ladder_matches_rung_walk(name, site):
    ev = SiteStieltjes({**HALF_LINES, **LINES}[name], site)
    stacked = list(ev.ladder(DEFAULT_LADDER))
    assert [z for z, _ in stacked] == list(DEFAULT_LADDER)
    for (z, got), (_, want) in zip(stacked, _walk(ev)):
        size = np.linalg.norm(want.value, 2)
        # the transform of a null-recurrent chain reaches 1e4 at the last
        # rungs, where both routes sit at the conditioning of the corner;
        # on the null-recurrent interiors (flip, balanced shift) the rungs
        # z - 1 <= 1e-6 differ by up to 8.3e-12 at smaller sizes.  Above
        # them the routes agree to 3.4e-13, the cold rung z = 1.01 included
        if size >= 1e2:
            tol = 1e-8
        else:
            tol = 1e-12 if z - 1.0 >= 1e-5 else 1e-11
        assert np.linalg.norm(got.value - want.value, 2) <= tol * size
        assert got.residual <= 1e-11
        assert got.method == want.method


def _flip_interior(p, q, z):
    """Closed-form interior transform of the flip-channel chain, with
    z^2 - 1 formed from z - 1 so that it keeps its digits near z = 1."""
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])
    eps = z - 1.0
    u = models.flip_channel_basis()
    return u @ np.diag(2 * (z - np.sqrt(eps * (2 + eps) + (1 - xi))) / xi) @ u.T


def _flip_closed_form(p, q, corner):
    m = models.flip_channel_half_line(p, q, corner=corner)

    def form(z):
        x = _flip_interior(p, q, z)
        if corner is None:
            return x
        core = z * np.eye(3) - m.block(0, "B") - m.block(1, "C") @ x @ m.block(0, "A")
        return np.linalg.inv(core)
    return SiteStieltjes(m), form


def _coin_closed_form(site):
    # commuting diagonal coins: each component is a scalar walk
    r = np.array([1 / 3, 1 / np.sqrt(6), 1 / np.sqrt(6), 0.5])
    l = np.array([2 / 3, 1 / np.sqrt(3), 1 / np.sqrt(3), 0.5])

    def form(z):
        eps = z - 1.0
        return np.diag(1.0 / np.sqrt(eps * (2 + eps) + (1 - 4 * r * l)))
    return SiteStieltjes(models.diagonal_coin_line_walk(), site), form


CLOSED_FORMS = {
    **{f"flip-{p}-{q}-{corner}": (_flip_closed_form, (p, q, corner))
       for p, q in [(0.7, 0.8), (0.6, 0.9), (0.85, 0.65)] for corner in (None, "up")},
    "coin-line@0": (_coin_closed_form, (0,)),
    "coin-line@-1": (_coin_closed_form, (-1,)),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_stacked_ladder_matches_closed_forms(name):
    make, args = CLOSED_FORMS[name]
    ev, form = make(*args)
    for (z, got), (_, walked) in zip(ev.ladder(DEFAULT_LADDER), _walk(ev)):
        want = form(z)
        size = np.linalg.norm(want, 2)
        err = np.linalg.norm(got.value - want, 2) / size
        # rounding in the closure is amplified by |value| and by the
        # square-root branch point at z = 1
        floor = 1e-15 * size / np.sqrt(z - 1.0)
        assert err <= max(np.linalg.norm(walked.value - want, 2) / size, floor)


def _count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of the method or
    module function ``name`` of ``owner``; a method's start with self."""
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name, sides", [("flip-up-corner", 1), ("diagonal-coin", 2)])
@pytest.mark.parametrize("consumer", ["classify_recurrence", "jump_at_one"])
def test_real_ladder_runs_one_reduction_per_side(monkeypatch, name, sides, consumer):
    m = {**HALF_LINES, **LINES}[name]
    evaluations = _count_calls(monkeypatch, HomogeneousStieltjes, "evaluate")
    reductions = _count_calls(monkeypatch, spectral, "homogeneous_closure")
    if consumer == "classify_recurrence":
        route = classify_recurrence(m, 0, np.eye(2) / 2).route
    else:
        jump_at_one(SiteStieltjes(m))
    assert evaluations == []
    points = [list(args[3]) for args in reductions]
    if consumer == "classify_recurrence" and name == "flip-up-corner":
        # the renewal route: one reduction at the single point z = 1
        assert route == "renewal" and points == [[1.0]]
        return
    if consumer == "classify_recurrence":
        # the coin line's closure is not certified at 1, and the first
        # uncertified side ends the renewal attempt
        assert route == "ladder" and points[0] == [1.0]
        points = points[1:]
    assert len(points) == sides
    # jump_at_one reads only the last three rungs of the ladder
    rungs = DEFAULT_LADDER if consumer == "classify_recurrence" else DEFAULT_LADDER[-3:]
    assert all(zs == list(rungs) for zs in points)


# the kernel in both orientations: (A, B, C) closes the side above a
# site, the mirror (C, B, A) the side below it on a line
KERNEL_CHAINS = ["flip", "tilted-shear", "hopping-in", "hopping-out", "hopping-balanced"]


def _interior(name, mirrored):
    a, b, c = (_homogeneous_matrix(HALF_LINES[name], role) for role in ROLES)
    return (c, b, a) if mirrored else (a, b, c)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", KERNEL_CHAINS)
def test_closure_above_one_is_the_fixed_point(monkeypatch, name, mirrored):
    a, b, c = _interior(name, mirrored)
    zs = np.array([1.001, 1.4, 3.0])
    y, residual, certified = spectral.homogeneous_closure(a, b, c, zs)
    assert certified.all()
    # at a real point above 1 the evaluator is the closure at that point
    for z, got, r in zip(zs, y, residual):
        res = HomogeneousStieltjes(a, b, c).evaluate(z)
        assert np.array_equal(res.value, got) and res.residual == r
    # without cyclic reduction it falls back to the fixed point, the
    # independent reference
    monkeypatch.setattr(spectral, "CR_MAX_ITER", 0)
    for z, got, r in zip(zs, y, residual):
        want = HomogeneousStieltjes(a, b, c).evaluate(z)
        assert np.linalg.norm(got - want.value, 2) <= 1e-12 * np.linalg.norm(want.value, 2)
        assert r <= spectral.FP_TOL


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", KERNEL_CHAINS)
def test_closure_at_one_gives_the_passage_solvent(rng, name, mirrored):
    m = HALF_LINES[name]
    a, b, c = _interior(name, mirrored)
    (y,), _, (certified,) = spectral.homogeneous_closure(a, b, c, np.ones(1), m.trace_vec)
    assert certified
    g = c @ y
    assert np.linalg.norm(g - c - g @ b - g @ g @ a, 2) <= spectral.FP_TOL * max(
        1.0, np.linalg.norm(g, 2))
    if name.startswith("hopping"):
        # one level down with hops r down and t up: min(1, r / t)
        up, down = np.trace(a), np.trace(c)
        rho = m.state_vec(random_density(rng))
        assert m.trace_vec @ g @ rho == pytest.approx(min(1.0, down / up), abs=1e-12)


def test_closure_at_one_is_uncertified_when_states_drift_apart():
    # the diagonal coins drift down in one invariant state and not at all
    # in the other: no single shift applies, and z = 1 alone is dropped
    m = LINES["diagonal-coin"]
    a, b, c = (_homogeneous_matrix(m, role) for role in ROLES)
    y, residual, certified = spectral.homogeneous_closure(
        a, b, c, np.array([1.0, 1.01, 2.0]), m.trace_vec)
    assert certified.tolist() == [False, True, True]
    # z = 1 is not reduced at all: no value, no residual
    assert np.isnan(y[0]).all() and residual[0] == np.inf
    want, _, alone = spectral.homogeneous_closure(a, b, c, np.array([1.01, 2.0]))
    assert alone.all()
    assert np.abs(y[1:] - want).max() <= 1e-14 * np.abs(want).max()


def test_real_point_equals_its_stacked_rung():
    # one real point above 1 is closed by cyclic reduction, as a stacked
    # ladder is: on the null-recurrent corner coin, where the transform
    # reaches 1e4 at 1 + 1e-8, the fixed point missed it by 3.3e-8
    m = HALF_LINES["corner-coin"]
    z = 1.0 + 1e-8
    for site in (0, 1):
        ev = SiteStieltjes(m, site)
        want = dict(ev.ladder(DEFAULT_LADDER))[z].value
        got = ev.evaluate(z).value
        assert np.linalg.norm(got - want, 2) <= 1e-11 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("z", [0.5 + 0.2j, -0.3 + 0.001j])
def test_overflowing_fixed_point_raises_convergence_error(z):
    # the closure below the tilted shear line overflows from I/z at both
    # points: it stops at the last finite iterate, without a warning
    m = LINES["tilted-shear-line"]
    a, b, c = (_homogeneous_matrix(m, role) for role in ROLES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(spectral.ConvergenceError) as err:
            HomogeneousStieltjes(c, b, a).evaluate(z)
        assert np.isfinite(err.value.value).all()
        assert err.value.residual == spectral._quadratic_residual(c, b, a, z, err.value.value)
        for site in range(-3, 5):
            with pytest.raises(spectral.ConvergenceError):
                SiteStieltjes(m, site).evaluate(z)


def test_from_model_reads_the_interior_past_overrides():
    m = models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.2)
    held = dataclasses.replace(m, overrides={1: {"B": Block(np.zeros((4, 4), dtype=complex))}})
    got = HomogeneousStieltjes.from_model(held).evaluate(1.5).value
    assert np.array_equal(got, HomogeneousStieltjes.from_model(m).evaluate(1.5).value)


@pytest.mark.parametrize("name, sides", [("flip-up-corner", 1), ("diagonal-coin", 2)])
def test_residue_probe_runs_one_reduction_per_side(monkeypatch, name, sides):
    # the four probe points above 1 close in one stacked reduction per
    # side, and each rung is the one-point evaluate at that point
    ev = SiteStieltjes({**HALF_LINES, **LINES}[name])
    probes = [1.0 + eps * 1j for eps in (1e-2, 1e-3, 1e-4, 1e-5)]
    want = [ev.evaluate(z) for z in probes]
    reductions = _count_calls(monkeypatch, spectral, "homogeneous_closure")
    probe = residue_probe(ev, 1.0)
    assert [list(args[3]) for args in reductions] == [probes] * sides
    samples = [(z - 1.0) * ref.value for z, ref in zip(probes, want)]
    estimate = samples[-1] + (samples[-1] - samples[-2]) / 9.0
    assert np.linalg.norm(probe - estimate, 2) <= 1e-12 * max(1.0, np.linalg.norm(estimate, 2))
    for (z, got), ref, point in zip(ev.ladder(probes), want, probes):
        assert z == point
        assert np.array_equal(got.value, ref.value) and got.residual == ref.residual


def test_uncertified_rungs_fall_back_to_the_fixed_point(monkeypatch):
    ev = SiteStieltjes(LINES["diagonal-coin"], -1)
    # one reduction step certifies no rung: each closing is the fixed
    # point at that rung, bit for bit
    monkeypatch.setattr(spectral, "CR_MAX_ITER", 1)
    for fp in ev.closures:
        values, residuals = fp.closings(DEFAULT_LADDER)
        for z, value, residual in zip(DEFAULT_LADDER, values, residuals):
            want, want_residual = fp._fixed_point(z)
            assert np.array_equal(value, want) and residual == want_residual
    # each stacked rung is the one-point evaluate at that z
    for z, got in ev.ladder(DEFAULT_LADDER):
        want = ev.evaluate(z)
        assert np.array_equal(got.value, want.value) and got.residual == want.residual


def test_one_uncertified_rung_is_resolved_from_its_neighbour(monkeypatch):
    ev = SiteStieltjes(LINES["hopping-tilted-line"], 1)
    stacked = list(ev.ladder(DEFAULT_LADDER))
    closure = spectral.homogeneous_closure
    z3 = DEFAULT_LADDER[3]

    def drop_rung_3(a, b, c, zs):
        y, residual, certified = closure(a, b, c, zs)
        return y, residual, certified & (np.arange(len(zs)) != 3)

    monkeypatch.setattr(spectral, "homogeneous_closure", drop_rung_3)
    fixed = _count_calls(monkeypatch, HomogeneousStieltjes, "_fixed_point")
    got = list(ev.ladder(DEFAULT_LADDER))
    # only rung 3 reaches the fixed point, once per side, and its closing
    # there is the fixed point's value bit for bit
    assert [args[1] for args in fixed] == [z3, z3]
    for fp in ev.closures:
        values, residuals = fp.closings(DEFAULT_LADDER)
        want, want_residual = fp._fixed_point(z3)
        assert np.array_equal(values[3], want) and residuals[3] == want_residual
    size = np.linalg.norm(stacked[3][1].value, 2)
    assert np.linalg.norm(got[3][1].value - stacked[3][1].value, 2) <= 1e-12 * size
    for k in (0, 1, 2, 4, 5, 6):
        assert np.array_equal(got[k][1].value, stacked[k][1].value)


# -- off the real axis ---------------------------------------------------

OFF_AXIS = np.array([-0.6 + 0.2j, 0.8 + 0.01j, -0.5 + 0.2j, 0.3 + 0.05j, 1.1 + 0.5j,
                     -1.2 + 1.0j, 0.9 - 0.3j, -0.7 + 0.01j])


def _interior_model(a, b, c):
    return QmcModel(topology=half_line(), mode="abstract",
                    blocks={"A": Block(a), "B": Block(b), "C": Block(c)},
                    substochastic=True)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", KERNEL_CHAINS)
def test_off_axis_closure_is_the_window_limit(name, mirrored):
    # the k-th reduction iterate is the corner of the 2^k-site window, so
    # a certified point is the limit of deep windows
    a, b, c = _interior(name, mirrored)
    y, residual, certified = spectral.homogeneous_closure(a, b, c, OFF_AXIS)
    # below the tilted shear only the points far from its support reduce
    assert certified.sum() >= 3
    want = corner_resolvent(_interior_model(a, b, c), OFF_AXIS[certified], 8000)
    err = np.linalg.norm(y[certified] - want, 2, axis=(-2, -1))
    assert (err <= 1e-12 * np.linalg.norm(want, 2, axis=(-2, -1))).all()
    assert (residual[certified] <= spectral.FP_TOL).all()
    if name == "tilted-shear" and not mirrored:
        # the window limit need not have spectral radius of Y A below 1
        # off the axis: the branch there is the stop test's
        for z in (-0.6 + 0.2j, 0.8 + 0.01j):
            k = list(OFF_AXIS).index(z)
            assert certified[k]
            assert np.abs(np.linalg.eigvals(y[k] @ a)).max() > 1.0


def _flip_off_axis(z, p=0.7, q=0.8):
    """Closed form of the flip-channel interior at a complex z off its
    cuts: three scalar chains x = 1 / (z - xi x / 4) in the basis
    ``flip_channel_basis()``, each on its root of smaller modulus."""
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])
    root = np.sqrt(z * z - xi + 0j)
    plus, minus = 2 * (z + root) / xi, 2 * (z - root) / xi
    u = models.flip_channel_basis()
    return u @ np.diag(np.where(np.abs(plus) < np.abs(minus), plus, minus)) @ u.T


# the cuts of flip_channel_half_line(0.7, 0.8): z^2 in [0, xi] for xi = 1
# and 0.24, and |Im z| <= sqrt(0.6) on the imaginary axis for xi = -0.6
FLIP_GRID = [complex(x, y) for x in (-1.2, -1.0, -0.8, -0.6, -0.4, -0.2, 0.2, 0.4, 0.6, 0.8,
                                       1.0, 1.2) for y in (-0.5, -0.05, 0.05, 0.2, 0.5, 1.0)] + [
    complex(x, y) for x in (-1.2, -0.8, -0.6, 0.6, 1.0, 1.2) for y in (1e-3, 1e-2)]


def test_flip_closed_form_off_the_axis():
    ev = SiteStieltjes(models.flip_channel_half_line(0.7, 0.8))
    rungs = list(ev.ladder(FLIP_GRID))
    for z, got in rungs:
        want = _flip_off_axis(z)
        # the reduction, and the fixed point at the four points +-0.2 +-
        # 0.05i that it leaves uncertified, are at rounding here; a fixed
        # point stopped at a step of FP_TOL is up to 8e-14 off elsewhere
        for value in (got.value, ev.evaluate(z).value):
            assert np.linalg.norm(value - want, 2) <= 2e-14 * np.linalg.norm(want, 2)
        assert got.residual <= 1e-14


@pytest.mark.parametrize("z", [-0.4 + 1e-4j, -0.4 + 1e-5j])
def test_unconverged_fixed_point_raises_convergence_error(tmp_path, capsys, z):
    # inside the band of the flip channel the closure is not certified and
    # the fixed point ends without a finite residual: every evaluator that
    # closes the interior raises, carrying the last finite iterate
    m = models.flip_channel_half_line(0.7, 0.8)
    evaluators = [HomogeneousStieltjes.from_model(m), _corner_identity(m), SiteStieltjes(m)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ev in evaluators:
            with pytest.raises(spectral.ConvergenceError, match="did not converge") as err:
                ev.evaluate(z)
            assert np.isfinite(err.value.value).all() and err.value.residual == np.inf
        with pytest.raises(spectral.ConvergenceError):
            residue_probe(SiteStieltjes(m), -0.4)
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(model_to_dict(m)))
    code = run(["stieltjes", str(path), f"--z={z.real},{z.imag}"])
    err = capsys.readouterr().err
    assert code == 4 and f"z={z}" in err and "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["segment", "half_line", "line"]).flatmap(chains),
       st.integers(-2, 3))
def test_real_ladder_matches_dense_resolvent(model, site):
    if not model.topology.contains(site):
        return
    ladder = (1.0 + 1e-2, 1.0 + 1e-5, 1.0 + 1e-8, 1.7)
    for z, res in SiteStieltjes(model, site).ladder(ladder):
        want = resolvent_block(model, site, site, 1 / z, 40)
        assert np.abs(z * res.value - want).max() < 1e-10


ACCEPTANCE_RECURRENCE = [
    ("flip", 0, np.diag([1.0, 0.0])),
    ("flip", 0, np.array([[0.5, 0.2], [0.2, 0.5]])),
    ("flip-up-corner", 0, np.diag([0.0, 1.0])),
    ("flip-up-corner", 0, np.diag([0.25, 0.75])),
    ("hopping-balanced", 0, np.array([[0.6, 0.1], [0.1, 0.4]])),
    ("hopping-in", 1, np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]])),
    ("diagonal-coin", 0, np.diag([1.0, 0.0])),
    ("diagonal-coin", 0, np.eye(2) / 2),
    ("hopping-balanced-line", 0, np.diag([0.4, 0.6])),
    ("hopping-tilted-line", -1, np.diag([0.4, 0.6])),
]


@pytest.mark.parametrize("name, site, rho", ACCEPTANCE_RECURRENCE)
def test_stacked_ladder_keeps_recurrence_verdicts(monkeypatch, name, site, rho):
    m = {**HALF_LINES, **LINES}[name]
    # withhold the exact return block, so that both verdicts come from
    # the ladder: stacked, then one point per closure
    monkeypatch.setattr(SiteStieltjes, "return_block", StieltjesEvaluator.return_block)
    got = classify_recurrence(m, site, rho)
    stacked = SiteStieltjes.ladder

    def one_point_at_a_time(self, points):
        for z in points:
            yield from stacked(self, [z])

    monkeypatch.setattr(SiteStieltjes, "ladder", one_point_at_a_time)
    want = classify_recurrence(m, site, rho)
    assert got.verdict == want.verdict
    if want.limit is None:
        assert got.limit is None
    else:
        assert got.limit == pytest.approx(want.limit, rel=1e-9)
