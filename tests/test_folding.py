import dataclasses

import numpy as np
import pytest

from qmcspectra import cli, folding, models
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    block_from_kraus,
    line,
    model_to_dict,
    site_prob_series,
    truncate,
)
from qmcspectra.folding import (
    FoldedTransformEvaluator,
    classify_recurrence_on_line,
    fold_model,
    folded_discrete_weight,
    km_on_line,
    minus_model,
    plus_model,
    reflect,
    unfold_block,
)
from qmcspectra.spectral import (
    SiteStieltjes,
    TruncatedStieltjes,
    find_symmetrizer,
    transform_evaluator,
)
from qmcspectra.polynomials import PolyFamily
from qmcspectra.statistics import classify

from conftest import random_complex


def random_line_model(rng, d=2, scale=0.45, with_hold=True):
    blocks = {
        "A": Block(scale * random_complex(rng, (d, d))),
        "C": Block(scale * random_complex(rng, (d, d))),
    }
    if with_hold:
        blocks["B"] = Block(scale * random_complex(rng, (d, d)))
    return QmcModel(
        topology=line(),
        mode="abstract",
        blocks=blocks,
        substochastic=True,
        trace_vec=np.ones(d),
    )


def line_power_block(model, j, i, n, L=14):
    t = truncate(model, -L, L)
    d = model.block_dim
    p = np.linalg.matrix_power(t.matrix, n)
    return p[(j + L) * d : (j + L + 1) * d, (i + L) * d : (i + L + 1) * d]


def test_fold_block_structure():
    m = models.diagonal_coin_line_walk()
    fm = fold_model(m)
    d = m.block_dim
    g0 = fm.block(0, "B")
    assert np.abs(g0[:d, :d] - m.block(0, "B")).max() == 0.0
    assert np.abs(g0[:d, d:] - m.block(-1, "A")).max() == 0.0
    assert np.abs(g0[d:, :d] - m.block(0, "C")).max() == 0.0
    assert np.abs(g0[d:, d:] - m.block(-1, "B")).max() == 0.0
    m0 = fm.block(0, "A")
    assert np.abs(m0[:d, :d] - m.block(0, "A")).max() == 0.0
    assert np.abs(m0[d:, d:] - m.block(-1, "C")).max() == 0.0
    for n in (1, 3):
        gn = fm.block(n, "B")
        assert np.abs(gn[:d, :d] - m.block(n, "B")).max() == 0.0
        assert np.abs(gn[:d, d:]).max() == 0.0
        nn = fm.block(n, "C")
        assert np.abs(nn[:d, :d] - m.block(n, "C")).max() == 0.0
        assert np.abs(nn[d:, d:] - m.block(-n - 1, "A")).max() == 0.0


def test_fold_rejects_non_line():
    with pytest.raises(ValueError):
        fold_model(models.shear_coin_segment())


def test_fold_preserves_trace_preservation():
    m = models.diagonal_coin_line_walk()
    fm = fold_model(m)
    report = fm.tp_report()
    assert max(report.values()) < 1e-12


def test_fold_power_unfold_roundtrip(rng):
    for trial in range(4):
        m = random_line_model(rng)
        fm = fold_model(m)
        d = m.block_dim
        tf = truncate(fm, 0, 12)
        for n in range(9):
            pf = np.linalg.matrix_power(tf.matrix, n)
            for (fj, fi) in [(0, 0), (1, 0), (2, 1)]:
                blk = pf[fj * 2 * d : (fj + 1) * 2 * d, fi * 2 * d : (fi + 1) * 2 * d]
                quads = {
                    (1, 1): (fj, fi),
                    (1, 2): (fj, -fi - 1),
                    (2, 1): (-fj - 1, fi),
                    (2, 2): (-fj - 1, -fi - 1),
                }
                for quad, (j, i) in quads.items():
                    direct = line_power_block(m, j, i, n)
                    assert np.abs(unfold_block(blk, quad) - direct).max() < 1e-9


def test_unfold_identity_and_locality():
    m = models.diagonal_coin_line_walk()
    fm = fold_model(m)
    d = m.block_dim
    tf = truncate(fm, 0, 10)
    eye_block = np.eye(tf.matrix.shape[0])[0 : 2 * d, 0 : 2 * d]
    assert np.abs(unfold_block(eye_block, (1, 1)) - np.eye(d)).max() == 0.0
    assert np.abs(unfold_block(eye_block, (1, 2))).max() == 0.0
    # mass cannot cross between strands in fewer than i + j + 1 steps
    for (fj, fi) in [(1, 1), (2, 0)]:
        dist = fj + fi + 1
        for n in range(dist):
            p = np.linalg.matrix_power(tf.matrix, n)
            blk = p[fj * 2 * d : (fj + 1) * 2 * d, fi * 2 * d : (fi + 1) * 2 * d]
            assert np.abs(unfold_block(blk, (1, 2))).max() < 1e-12
    with pytest.raises(ValueError):
        unfold_block(eye_block, (0, 1))


def test_minus_model_corner_matches_negative_half():
    m = models.tilted_shear_line()
    mm = minus_model(m)
    z = 1.3
    got = TruncatedStieltjes(mm, window=200).evaluate(z).value
    t = truncate(m, -200, -1)
    S = t.matrix.shape[0]
    d = m.block_dim
    dense = np.linalg.solve(z * np.eye(S) - t.matrix, np.eye(S, d, -(S - d)))
    assert np.abs(got - dense[S - d :, :]).max() < 1e-10


def test_plus_model_keeps_nonnegative_overrides():
    m = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3)
    pm = plus_model(m)
    assert pm.topology.kind == "half_line"
    assert np.abs(pm.block(1, "A") - m.block(1, "A")).max() == 0.0


def test_folded_symmetrizer_block_structure():
    for m in (
        models.diagonal_coin_line_walk(),
        models.uniform_hopping_line(0.4, 0.3, 0.4, 0.35, 0.25),
    ):
        sym = find_symmetrizer(m, 6)
        assert sym.success
        fm = fold_model(m)
        d = m.block_dim
        pi_breve = {0: np.zeros((2 * d, 2 * d), dtype=complex)}
        pi_breve[0][:d, :d] = sym.pi[0]
        pi_breve[0][d:, d:] = sym.pi[-1]
        for n in range(5):
            m_n = fm.block(n, "A")
            n_next = fm.block(n + 1, "C")
            pi_breve[n + 1] = np.linalg.solve(m_n.conj().T, pi_breve[n] @ n_next)
            expect = np.zeros((2 * d, 2 * d), dtype=complex)
            expect[:d, :d] = sym.pi[n + 1]
            expect[d:, d:] = sym.pi[-n - 2]
            assert np.abs(pi_breve[n + 1] - expect).max() < 1e-10


def test_km_on_line_matches_power_oracle():
    m = models.diagonal_coin_line_walk()
    for (j, i, n) in [(0, 0, 4), (1, -2, 5), (-1, 0, 6), (2, 1, 6), (1, 1, 6)]:
        got = km_on_line(m, j, i, n)
        assert np.abs(got - line_power_block(m, j, i, n)).max() < 1e-8


def folded_index(site):
    return site if site >= 0 else -site - 1


def seeded_hopping_line(seed):
    rng = np.random.default_rng(seed)
    while True:
        r, t = rng.uniform(0.15, 0.45, size=2)
        if 1.0 - r - t >= 0.1:
            a, b = rng.uniform(0.3, 0.5, size=2)
            return models.uniform_hopping_line(1.0 - r - t, a, b, r, t)


# the one-site folded window, and cross-strand or distant pairs whose
# block vanishes (n < |fi - fj|, or n < |i - j| inside folded site 0)
KM_GRID_EDGES = [(0, 0, 0), (0, 0, 1), (-1, -1, 0), (-1, -1, 1), (-1, 0, 0),
                 (0, -1, 1), (2, 0, 1), (-3, 1, 0), (-1, 2, 1), (1, -3, 0)]


@pytest.mark.parametrize("line_seed", [None, 3, 4], ids=["coin", "hopping3", "hopping4"])
def test_km_on_line_matches_power_on_a_grid(line_seed):
    if line_seed is None:
        m = models.diagonal_coin_line_walk()
    else:
        m = seeded_hopping_line(line_seed)
    # a fixed subsample of j, i in [-3, 2] and n in 0..6, one per chain
    grid = [(j, i, n) for j in range(-3, 3) for i in range(-3, 3) for n in range(7)]
    rng = np.random.default_rng([2024, line_seed or 0])
    picks = [grid[k] for k in rng.choice(len(grid), size=20, replace=False)]
    for (j, i, n) in KM_GRID_EDGES + picks:
        direct = line_power_block(m, j, i, n)
        if n < abs(folded_index(j) - folded_index(i)):
            assert np.abs(direct).max() == 0.0
        assert np.abs(km_on_line(m, j, i, n) - direct).max() < 1e-10


@pytest.mark.parametrize("j, i, n", [(0, 0, 0), (-1, 0, 1), (1, -2, 3),
                                     (-2, 0, 3), (2, 2, 5), (0, -3, 6)])
def test_km_on_line_truncates_at_the_highest_reachable_folded_site(
        monkeypatch, j, i, n):
    # an n-step path from fi to fj never rises above (fi + fj + n) / 2
    windows = []
    original = folding.folded_discrete_weight

    def recording(model, window, **kwargs):
        windows.append(window)
        return original(model, window, **kwargs)

    monkeypatch.setattr(folding, "folded_discrete_weight", recording)
    fi, fj = folded_index(i), folded_index(j)
    km_on_line(models.diagonal_coin_line_walk(), j, i, n)
    assert windows == [max(fi, fj, (fi + fj + n) // 2)]


def test_km_on_line_runs_the_recurrence_once(monkeypatch):
    # both line families come from one run over the indices of the query
    runs = []
    original = PolyFamily._run

    def recording(self, x, prev, cur, start, n_lo, n_hi):
        runs.append((prev.shape[-2:], n_lo, n_hi))
        return original(self, x, prev, cur, start, n_lo, n_hi)

    monkeypatch.setattr(PolyFamily, "_run", recording)
    m = models.diagonal_coin_line_walk()
    km_on_line(m, 1, -2, 3)
    assert runs == [((2 * m.block_dim, m.block_dim), -2, 1)]


def test_km_on_line_rejects_negative_steps():
    with pytest.raises(ValueError, match="step count must be nonnegative"):
        km_on_line(models.diagonal_coin_line_walk(), 0, 0, -1)


def test_folded_weight_quadrant_symmetry():
    m = models.diagonal_coin_line_walk()
    w = folded_discrete_weight(m, 8)
    d = m.block_dim
    for p in w.points:
        w12 = p.weight[:d, d:]
        w21 = p.weight[d:, :d]
        assert np.abs(w21 - w12.conj().T).max() < 1e-10
        assert np.abs(p.weight - p.weight.conj().T).max() < 1e-10


def test_km_on_line_requires_symmetrizer():
    up, down = models.tilted_shear_blocks()
    m = QmcModel(
        topology=line(), mode="compact",
        blocks={"A": up, "C": down}, substochastic=False,
    )
    with pytest.raises(ValueError, match="symmetrizable"):
        km_on_line(m, 1, 0, 3)


def test_diagonal_walk_line_classification():
    m = models.diagonal_coin_line_walk()
    cls = classify_recurrence_on_line(m, 0, np.diag([1.0, 0.0]))
    assert cls.verdict == "transient"
    assert cls.limit == pytest.approx(3.0, abs=1e-4)
    for rho in (np.diag([0.0, 1.0]), np.eye(2) / 2):
        assert classify_recurrence_on_line(m, 0, rho).verdict == "recurrent"
    # translation-invariant chain: site -1 behaves identically
    cls_m1 = classify_recurrence_on_line(m, -1, np.diag([1.0, 0.0]))
    assert cls_m1.verdict == "transient"
    assert cls_m1.limit == pytest.approx(3.0, abs=1e-4)
    # every line site is classified, and site 2 behaves like site 0 too
    cls_2 = classify_recurrence_on_line(m, 2, np.diag([1.0, 0.0]))
    assert cls_2.verdict == "transient"
    assert cls_2.limit == pytest.approx(cls.limit, abs=1e-9)
    with pytest.raises(ValueError, match="line model"):
        classify_recurrence_on_line(models.flip_channel_half_line(0.7, 0.8), 0, np.eye(2) / 2)


def test_hopping_line_recurrent_iff_balanced():
    balanced = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.25, 0.25)
    rho = np.diag([0.3, 0.7])
    assert classify_recurrence_on_line(balanced, 0, rho).verdict == "recurrent"
    r, s, t = 0.2, 0.5, 0.3
    tilted = models.uniform_hopping_line(s, 0.5, 0.5, r, t)
    cls = classify_recurrence_on_line(tilted, 0, rho)
    assert cls.verdict == "transient"
    k2 = r * t
    assert cls.limit == pytest.approx(1.0 / np.sqrt(1 - 2 * s + s * s - 4 * k2), abs=1e-4)


def test_folded_transform_evaluator_matches_split_identity():
    m = models.diagonal_coin_line_walk()
    plus = transform_evaluator(plus_model(m), "auto")
    minus = transform_evaluator(minus_model(m), "auto")
    z = 1.25
    xp, xm = plus.evaluate(z).value, minus.evaluate(z).value
    a, c = m.block(-1, "A"), m.block(0, "C")
    eye = np.eye(m.block_dim, dtype=complex)
    # P11 = Xp (I - A_{-1} Xm C_0 Xp)^{-1} and P22 = Xm (I - C_0 Xp A_{-1} Xm)^{-1}
    for site, x, mid in ((0, xp, eye - a @ xm @ c @ xp), (-1, xm, eye - c @ xp @ a @ xm)):
        want = np.linalg.solve(mid.T, x.T).T
        res = FoldedTransformEvaluator(m, site, plus=plus, minus=minus).evaluate(z)
        assert np.abs(res.value - want).max() == 0.0
        assert res.residual < 1e-8


HOLD0 = block_from_kraus(models.exchange_hold_block(0.5, 0.6, -0.3))


def with_hold_at(model, site):
    return dataclasses.replace(model, overrides={site: {"B": HOLD0}})


@pytest.mark.parametrize("site", [None, 0, 1])
def test_cli_and_half_chains_share_one_route_policy(site):
    half = models.uniform_hopping_half_line(0.5, 0.5, 0.5, 0.2, 0.3)
    full = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3)
    if site is not None:
        half, full = with_hold_at(half, site), with_hold_at(full, site)
    assert transform_evaluator(half, "auto", 800).method == "closed"
    assert cli._evaluator(half, "auto", 800).method == "closed"
    ev = FoldedTransformEvaluator(full, 0)
    assert ev.plus.method == transform_evaluator(plus_model(full), "auto", 800).method == "closed"
    assert ev.minus.method == "closed"
    if site is not None:
        # the mirrored override lands on the minus half
        ev = FoldedTransformEvaluator(with_hold_at(full, -site - 1), 0)
        assert (ev.plus.method, ev.minus.method) == ("closed", "closed")


def test_line_with_site0_hold_runs_corner_route_to_series_limit():
    m = with_hold_at(models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3), 0)
    m.validate()
    assert FoldedTransformEvaluator(m, 0).plus.method == "closed"
    rho = np.array([[0.6, 0.1 - 0.05j], [0.1 + 0.05j, 0.4]])
    cls = classify_recurrence_on_line(m, 0, rho)
    assert cls.verdict == "transient"
    series = site_prob_series(m, 0, 0, rho, 3000).sum()
    assert cls.limit == pytest.approx(series, abs=1e-6)


def test_fold_handles_line_overrides(rng):
    # an inhomogeneous hold block on the negative strand must land in the
    # right folded blocks and keep the round trip exact
    m = random_line_model(rng)
    special = Block(0.4 * random_complex(rng, (2, 2)))
    m = QmcModel(
        topology=line(),
        mode="abstract",
        blocks=dict(m.blocks),
        overrides={-2: {"B": special}, 1: {"B": special}},
        substochastic=True,
        trace_vec=np.ones(2),
    )
    fm = fold_model(m)
    assert np.abs(fm.block(1, "B")[2:, 2:] - special.matrix).max() == 0.0
    assert np.abs(fm.block(1, "B")[:2, :2] - special.matrix).max() == 0.0
    tf = truncate(fm, 0, 10)
    for n in (3, 6):
        pf = np.linalg.matrix_power(tf.matrix, n)
        blk = pf[0:4, 4:8]
        for quad, (j, i) in {
            (1, 1): (0, 1), (1, 2): (0, -2), (2, 1): (-1, 1), (2, 2): (-1, -2)
        }.items():
            direct = line_power_block(m, j, i, n)
            assert np.abs(unfold_block(blk, quad) - direct).max() < 1e-12


LEAKY_HOLD1 = {1: {"B": block_from_kraus(models.exchange_hold_block(0.3, 0.6, -0.3))}}


@pytest.mark.parametrize("leaky", [False, True])
@pytest.mark.parametrize("site", [2, -3])
def test_line_sites_away_from_the_fold_match_series_limit(site, leaky):
    # sites the split identities cannot reach, on a line with an override;
    # the site-0 hold keeps every return limit at 10, while a leaky hold
    # at site 1 makes the limit differ from site to site
    m = with_hold_at(models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3), 0)
    if leaky:
        m = dataclasses.replace(m, overrides=LEAKY_HOLD1, substochastic=True)
    rho = np.array([[0.6, 0.1 - 0.05j], [0.1 + 0.05j, 0.4]])
    cls = classify_recurrence_on_line(m, site, rho)
    assert cls.verdict == "transient"
    series = site_prob_series(m, site, site, rho, 3000).sum()
    assert cls.limit == pytest.approx(series, abs=1e-6)


@pytest.mark.parametrize(
    "make, rho",
    [
        (models.diagonal_coin_line_walk, np.diag([1.0, 0.0])),
        (models.diagonal_coin_line_walk, np.eye(2) / 2),
        (models.tilted_shear_line, np.diag([0.3, 0.7])),
    ],
)
@pytest.mark.parametrize("site", [0, -1])
def test_line_classification_matches_split_identities(make, rho, site):
    m = make()
    cls = classify_recurrence_on_line(m, site, rho)
    folded = classify(FoldedTransformEvaluator(m, site), m.trace_vec, m.state_vec(rho))
    assert cls.verdict == folded.verdict
    if folded.limit is None:
        assert cls.limit is None
    else:
        assert cls.limit == pytest.approx(folded.limit, abs=1e-9)
    # the site route is the exact transform itself
    z = 1.25
    direct = SiteStieltjes(m, site).evaluate(z).value
    split = FoldedTransformEvaluator(m, site).evaluate(z).value
    assert np.abs(direct - split).max() < 1e-9


def reflection_chains():
    hop = models.uniform_hopping_line(0.5, 0.5, 0.5, 0.2, 0.3)
    rng = np.random.default_rng(11)
    abstract = random_line_model(rng)
    special = [Block(0.3 * random_complex(rng, (2, 2))) for _ in range(3)]
    return {
        "coin": models.diagonal_coin_line_walk(),
        "tilted": models.tilted_shear_line(),
        "hop": hop,
        "hop-holds": dataclasses.replace(hop, overrides={2: {"B": HOLD0}, -3: {"B": HOLD0}}),
        # overrides of every role on both strands, so the role swap shows
        "abstract": dataclasses.replace(abstract, overrides={
            -2: {"A": special[0], "B": special[1]}, 1: {"C": special[2]}, -1: {"C": special[0]},
        }),
    }


REFLECTION_CHAINS = reflection_chains()


def blocks_equal(left, right, sites=range(-6, 6)):
    return all(
        np.array_equal(left.block(n, role), right.block(n, role))
        for n in sites
        for role in "ABC"
    )


@pytest.mark.parametrize("name", REFLECTION_CHAINS)
def test_reflect_twice_is_the_identity(name):
    m = REFLECTION_CHAINS[name]
    back = reflect(reflect(m))
    assert back.blocks == m.blocks and back.overrides == m.overrides
    assert blocks_equal(back, m)
    r = reflect(m)
    for n in range(-6, 6):
        for role, mirror in (("A", "C"), ("B", "B"), ("C", "A")):
            assert np.array_equal(r.block(n, role), m.block(-n - 1, mirror))


@pytest.mark.parametrize("name", REFLECTION_CHAINS)
def test_minus_model_is_plus_model_of_reflect(name):
    m = REFLECTION_CHAINS[name]
    assert model_to_dict(minus_model(m)) == model_to_dict(plus_model(reflect(m)))


@pytest.mark.parametrize("name", REFLECTION_CHAINS)
def test_fold_pairs_each_block_with_its_reflection(name):
    m = REFLECTION_CHAINS[name]
    fm, r, d = fold_model(m), reflect(m), m.block_dim
    for n in range(8):
        for role in "ABC":
            # B_0 couples the strands, and C_0 leaves the half-line
            if n == 0 and role != "A":
                continue
            want = np.zeros((2 * d, 2 * d), dtype=complex)
            want[:d, :d], want[d:, d:] = m.block(n, role), r.block(n, role)
            assert np.array_equal(fm.block(n, role), want)


@pytest.mark.parametrize("name", REFLECTION_CHAINS)
def test_site_minus_one_transform_is_site_zero_of_reflect(name):
    m = REFLECTION_CHAINS[name]
    at_minus_one = FoldedTransformEvaluator(m, -1)
    at_zero = FoldedTransformEvaluator(reflect(m), 0)
    for z in (1.25, 0.3 + 0.4j, 2.0):
        got, want = at_minus_one.evaluate(z), at_zero.evaluate(z)
        assert np.array_equal(got.value, want.value)
        assert got.residual == want.residual


def test_reflect_rejects_other_topologies():
    with pytest.raises(ValueError, match="needs a line model"):
        reflect(models.tilted_shear_half_line())
    with pytest.raises(ValueError, match="needs a line model"):
        reflect(models.shear_coin_segment())
