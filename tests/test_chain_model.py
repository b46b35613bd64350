import json

import numpy as np
import pytest

from qmcspectra import models
from qmcspectra.chain_model import (
    Block,
    LatticeState,
    QmcModel,
    Topology,
    _block_product,
    block_from_kraus,
    block_table,
    build_model,
    corner_resolvent,
    evolve,
    load_density_matrix,
    model_to_dict,
    resolvent_block,
    schur_sweep,
    segment_window,
    site_prob,
    site_prob_series,
    step,
    total_trace,
    segment,
    truncate,
)
from qmcspectra.folding import fold_model, minus_model, plus_model
from qmcspectra.quantum_core import min_eigenvalue


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology("segment", 0)
    with pytest.raises(ValueError):
        Topology("ring")
    with pytest.raises(ValueError):
        Topology("half_line", 4)
    topo = Topology("segment", 3)
    assert topo.contains(2) and not topo.contains(3) and not topo.contains(-1)


@pytest.mark.parametrize(
    "topo, window, clipped",
    [
        (Topology("segment", 3), (-5, 9), (0, 2)),
        (Topology("segment", 3), (1, 1), (1, 1)),
        (Topology("half_line"), (-5, 9), (0, 9)),
        (Topology("line"), (-5, 9), (-5, 9)),
    ],
    ids=["segment", "segment-inside", "half_line", "line"],
)
def test_topology_clip(topo, window, clipped):
    assert topo.clip(*window) == clipped
    lo, hi = clipped
    assert topo.contains(lo) and topo.contains(hi)


@pytest.mark.parametrize(
    "mode, rho, match",
    [
        ("full", np.eye(3) / 3, r"shape \(3, 3\).*shape \(9,\).*shape \(4,\)"),
        ("full", np.ones(3) / 3, r"shape \(3,\).*shape \(4,\)"),
        ("compact", np.eye(3) / 3, "2x2"),
        ("compact", np.ones(4) / 4, r"shape \(4,\).*shape \(3,\)"),
    ],
    ids=["full-matrix", "full-vector", "compact-matrix", "compact-vector"],
)
def test_state_vec_rejects_wrong_dimension(mode, rho, match):
    m = models.shear_coin_segment(3, mode)
    with pytest.raises(ValueError, match=match):
        m.state_vec(rho)
    with pytest.raises(ValueError, match=match):
        LatticeState.from_density(m, 0, rho)


def test_build_single_site_identity_channel():
    spec = {
        "topology": "segment",
        "num_sites": 1,
        "dim": 2,
        "mode": "full",
        "homogeneous": {"B": {"kraus": [[[1, 0], [0, 1]]]}},
    }
    m = build_model(spec)
    assert m.block_dim == 4
    assert m.column_defect(0) < 1e-14


def test_build_three_site_walk_is_substochastic():
    m = models.three_site_absorbing_oqw()
    report = m.tp_report()
    assert report[1] < 1e-14
    assert report[0] > 0.1 and report[2] > 0.1
    # without the flag the same blocks must be rejected
    spec = model_to_dict(m)
    spec["substochastic"] = False
    with pytest.raises(ValueError):
        build_model(spec)


def test_flip_channel_compact_blocks_match_closed_form():
    p, q = 0.7, 0.8
    m = models.flip_channel_half_line(p, q)
    a_expect = 0.5 * np.array([[q, 0, 1 - q], [0, 1 - 2 * q, 0], [1 - q, 0, q]])
    c_expect = 0.5 * np.array([[p, 0, 1 - p], [0, 1, 0], [1 - p, 0, p]])
    assert np.abs(m.block(1, "A") - a_expect).max() < 1e-15
    assert np.abs(m.block(1, "C") - c_expect).max() < 1e-15
    assert m.mode == "compact" and m.block_dim == 3


def test_build_model_errors():
    with pytest.raises(ValueError):
        build_model({"topology": "segment", "num_sites": -2, "dim": 2})
    with pytest.raises(ValueError):
        build_model(
            {
                "topology": "segment",
                "num_sites": 2,
                "dim": 2,
                "homogeneous": {
                    "A": {"kraus": [[[1, 0], [0, 1]]]},
                    "B": {"matrix": [[1]]},
                },
            }
        )


HALF_LINE_SPEC = {
    "topology": "half_line",
    "mode": "abstract",
    "homogeneous": {"B": {"matrix": [[0.5]]}},
    "substochastic": True,
}


@pytest.mark.parametrize(
    "change, match",
    [
        ({"substochastic": "false"}, "substochastic must be true or false"),
        ({"substochastic": 0}, "substochastic must be true or false"),
        ({"overrides": [{"site": 1.5, "B": {"matrix": [[0.2]]}}]}, "site must be an integer"),
        ({"overrides": [{"site": True, "B": {"matrix": [[0.2]]}}]}, "site must be an integer"),
        ({"trace": [[1]]}, r"\[re, im\] pairs"),
        ({"homogeneous": [{"matrix": [[0.5]]}]}, "homogeneous must map"),
    ],
    ids=["substochastic-string", "substochastic-int", "site-float", "site-bool",
         "trace-short-pair", "homogeneous-list"],
)
def test_build_model_rejects_schema_holes(change, match):
    with pytest.raises(ValueError, match=match):
        build_model({**HALF_LINE_SPEC, **change})


SEGMENT_SPEC = {
    "topology": "segment",
    "num_sites": 3,
    "mode": "abstract",
    "homogeneous": {"B": {"matrix": [[0.5]]}},
    "substochastic": True,
}


@pytest.mark.parametrize(
    "change, match",
    [
        ({"overrides": [{"B": {"matrix": [[0.2]]}}]}, "override is an object with a 'site'"),
        ({"homogeneous": {"B": {"matrix": 5}}}, "matrix is a list of rows, got 5"),
        ({"overrides": [5]}, "override is an object with a 'site', got 5"),
        ({"num_sites": "3"}, "num_sites must be an integer, got '3'"),
        ({"trace": 5}, "trace must be a list of entries, got 5"),
        # complex(True) is 1, so a JSON true would load as the number 1
        ({"homogeneous": {"B": {"matrix": [[True]]}}}, "an entry is a number .*, got True"),
        ({"homogeneous": {"B": {"matrix": [[[0.5, False]]]}}}, r"got \[0.5, False\]"),
        ({"trace": [True]}, "an entry is a number .*, got True"),
        # complex("0.5") parses, so a JSON string would load as a number
        ({"homogeneous": {"B": {"matrix": [["0.5"]]}}}, "an entry is a number .*, got '0.5'"),
        ({"trace": ["1"]}, "an entry is a number .*, got '1'"),
        # json reads the literals NaN and Infinity as floats
        ({"trace": [float("nan")]}, "trace vector has non-finite entries"),
        ({"trace": [float("inf")]}, "trace vector has non-finite entries"),
    ],
    ids=["override-without-site", "matrix-number", "override-number", "num-sites-string",
         "trace-number", "entry-true", "entry-pair-false", "trace-entry-true",
         "entry-string", "trace-entry-string", "trace-nan", "trace-infinity"],
)
def test_build_model_raises_value_error_for_malformed_specs(change, match):
    # each of these raised KeyError or TypeError before; the library's
    # contract for malformed input is ValueError, which the CLI maps to exit 3
    with pytest.raises(ValueError, match=match):
        build_model({**SEGMENT_SPEC, **change})


def test_hopping_spec_with_a_boolean_entry_is_rejected():
    spec = json.loads(json.dumps(
        model_to_dict(models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.35, 0.25))))
    build_model(spec)
    # the (0, 1) entry of the first up effect is 0, so false would pass as 0
    spec["homogeneous"]["A"]["kraus"][0][0][1] = False
    with pytest.raises(ValueError, match="got False"):
        build_model(spec)


def test_build_model_reads_trace_entries_like_matrix_entries():
    m = build_model({**HALF_LINE_SPEC, "trace": [[2, 1]]})
    assert m.trace_vec.tolist() == [2 + 1j]
    m = build_model({**HALF_LINE_SPEC, "trace": [3]})
    assert m.trace_vec.tolist() == [3]


@pytest.mark.parametrize(
    "matrix, match",
    [
        ([[float("nan"), 0], [0, 1]], "non-finite"),
        ([[[0.5, float("inf")], 0], [0, 0.5]], "non-finite"),
        ([[1, 0, 0], [0, 1, 0]], "square"),
        ([], "2-D"),
        ([[2, 0], [0, 0]], "trace"),
        ([[1.5, 0], [0, -0.5]], "eigenvalue"),
        ([[0.5, 0.9], [0.1, 0.5]], "Hermitian"),
        ([[True]], "an entry is a number .*, got True"),
        ([[[1, False]]], r"got \[1, False\]"),
        # complex() parses strings, so these would load as numbers
        ([["1"]], "an entry is a number .*, got '1'"),
        ([["1+2j"]], "an entry is a number .*, got '1\\+2j'"),
    ],
    ids=["nan", "inf-imaginary", "rectangular", "empty", "trace-two",
         "negative-eigenvalue", "non-hermitian", "true", "pair-false", "string",
         "complex-string"],
)
def test_load_density_matrix_rejects_bad_matrices(tmp_path, matrix, match):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"matrix": matrix}))
    with pytest.raises(ValueError, match=match):
        load_density_matrix(path)


@pytest.mark.parametrize("payload", [{"x": 1}, [1], None, "abc"],
                         ids=["no-matrix-key", "list", "null", "string"])
def test_load_density_matrix_rejects_files_without_a_matrix(tmp_path, payload):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="matrix"):
        load_density_matrix(path)


def test_model_json_roundtrip(tmp_path):
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    data = model_to_dict(m)
    text = json.dumps(data)
    m2 = build_model(json.loads(text))
    for site in (0, 1, 5):
        for role in "ABC":
            assert np.abs(m.block(site, role) - m2.block(site, role)).max() < 1e-15
    assert m2.substochastic == m.substochastic


# dim, block_dim and trace functional of every bundled model and of the
# chains derived from a line, as read off their blocks
FULL_TRACE, COMPACT_TRACE = [1, 0, 0, 1], [1, 0, 1]
BUNDLED = {
    "three-site-oqw": (models.three_site_absorbing_oqw, 2, 4, FULL_TRACE),
    "corner-coin": (lambda: models.corner_coin_oqw(0.3), 2, 4, FULL_TRACE),
    "hopping-segment": (lambda: models.uniform_hopping_segment(4, 0.4, 0.5, 0.5, 0.3, 0.3),
                        2, 4, FULL_TRACE),
    "hopping-half-line": (lambda: models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.3),
                          2, 4, FULL_TRACE),
    "hopping-line": (lambda: models.uniform_hopping_line(0.4, 0.5, 0.5, 0.3, 0.3),
                     2, 4, FULL_TRACE),
    "flip": (lambda: models.flip_channel_half_line(0.7, 0.8), 2, 3, COMPACT_TRACE),
    "flip-full": (lambda: models.flip_channel_half_line(0.7, 0.8, corner="up", mode="full"),
                  2, 4, FULL_TRACE),
    "coin-line": (models.diagonal_coin_line_walk, 2, 4, FULL_TRACE),
    "shear": (models.shear_coin_segment, 2, 4, FULL_TRACE),
    "shear-compact": (lambda: models.shear_coin_segment(4, "compact"), 2, 3, COMPACT_TRACE),
    "lazy-shear": (models.five_site_lazy_shear_chain, 2, 3, COMPACT_TRACE),
    "tilted": (models.tilted_shear_half_line, 2, 3, COMPACT_TRACE),
    "tilted-corner": (lambda: models.tilted_shear_half_line(corner=True), 2, 3, COMPACT_TRACE),
    "tilted-line": (models.tilted_shear_line, 2, 3, COMPACT_TRACE),
    "balanced": (lambda: models.balanced_shift_half_line(corner=True), 2, 3, COMPACT_TRACE),
    "random": (lambda: models.random_symmetrizable_segment(np.random.default_rng(0), block_dim=3),
               None, 3, [1, 1, 1]),
}
DERIVED = {
    "fold": (lambda: fold_model(models.tilted_shear_line()), None, 6, COMPACT_TRACE * 2),
    "fold-coin": (lambda: fold_model(models.diagonal_coin_line_walk()), None, 8, FULL_TRACE * 2),
    "plus": (lambda: plus_model(models.tilted_shear_line()), 2, 3, COMPACT_TRACE),
    "minus": (lambda: minus_model(models.tilted_shear_line()), 2, 3, COMPACT_TRACE),
    "window": (lambda: segment_window(models.tilted_shear_line(), -2, 2), 2, 3, COMPACT_TRACE),
    "folded-window": (lambda: segment_window(fold_model(models.diagonal_coin_line_walk()), 0, 4),
                      None, 8, FULL_TRACE * 2),
}


@pytest.mark.parametrize("make, dim, block_dim, trace", [*BUNDLED.values(), *DERIVED.values()],
                         ids=[*BUNDLED, *DERIVED])
def test_dimensions_read_off_the_blocks(make, dim, block_dim, trace):
    m = make()
    assert (m.dim, m.block_dim) == (dim, block_dim)
    assert m.trace_vec.tolist() == trace


@pytest.mark.parametrize("make, dim", [(make, dim) for make, dim, _, _ in BUNDLED.values()],
                         ids=list(BUNDLED))
def test_model_to_dict_survives_a_reload(make, dim):
    data = model_to_dict(make())
    assert data["dim"] == dim and "block_dim" not in data
    assert model_to_dict(build_model(json.loads(json.dumps(data)))) == data


@pytest.mark.parametrize("make", [make for make, *_ in [*BUNDLED.values(), *DERIVED.values()]],
                         ids=[*BUNDLED, *DERIVED])
def test_build_model_inverts_model_to_dict(make):
    # an abstract model keeps its trace functional through a file, so the
    # fold of a line reloads instead of failing trace preservation
    m = make()
    back = build_model(json.loads(json.dumps(model_to_dict(m))))
    assert (back.dim, back.block_dim) == (m.dim, m.block_dim)
    assert np.array_equal(back.trace_vec, m.trace_vec)
    assert back.blocks.keys() == m.blocks.keys() and back.overrides.keys() == m.overrides.keys()
    pairs = [(back.blocks, m.blocks)] + [(back.overrides[k], m.overrides[k]) for k in m.overrides]
    for got, want in pairs:
        assert got.keys() == want.keys()
        for role, blk in want.items():
            assert np.array_equal(got[role].matrix, blk.matrix)


def _block(n):
    return Block(np.eye(n, dtype=complex) / 2)


@pytest.mark.parametrize(
    "mode, blocks, overrides, match",
    [
        ("full", {"B": _block(3)}, {}, r"full-mode blocks must be N\^2-dimensional"),
        ("compact", {"B": _block(4)}, {}, "compact-mode blocks must be 3x3"),
        ("abstract", {}, {}, "model defines no blocks"),
        ("abstract", {"A": None}, {0: {}}, "model defines no blocks"),
        ("abstract", {"B": _block(2)}, {1: {"A": _block(3)}}, "inconsistent block dimensions"),
    ],
    ids=["full-3x3", "compact-4x4", "no-blocks", "only-none", "mixed-sizes"],
)
def test_model_rejects_blocks_its_mode_does_not_allow(mode, blocks, overrides, match):
    with pytest.raises(ValueError, match=match):
        QmcModel(topology=segment(3), mode=mode, blocks=blocks, overrides=overrides)


def test_model_rejects_a_non_finite_trace_vector():
    with pytest.raises(ValueError, match="trace vector has non-finite entries"):
        QmcModel(topology=segment(3), mode="abstract", blocks={"B": _block(2)},
                 trace_vec=[np.nan, 1])


def test_validate_refuses_nan_defects():
    # A + B + C overflows to inf, and 0 * inf puts NaN in every defect;
    # NaN > TOL_TP is false, so a NaN defect must not read as preserving
    huge = Block(1e308 * np.eye(4, dtype=complex))
    m = QmcModel(topology=segment(3), mode="full", blocks={"A": huge, "B": huge, "C": huge})
    with np.errstate(over="ignore", invalid="ignore"):
        assert all(np.isnan(d) for d in m.tp_report().values())
        with pytest.raises(ValueError, match="break trace preservation"):
            m.validate()


def test_model_takes_no_dimensions():
    with pytest.raises(TypeError):
        QmcModel(topology=segment(2), dim=3, mode="full", blocks={"B": _block(4)})
    with pytest.raises(TypeError):
        QmcModel(topology=segment(2), block_dim=4, mode="full", blocks={"B": _block(4)})


@pytest.mark.parametrize(
    "spec, match",
    [
        ({**model_to_dict(models.tilted_shear_half_line()), "dim": 7}, "dim disagrees"),
        ({**HALF_LINE_SPEC, "dim": 2}, "dim disagrees"),
        ({**model_to_dict(models.three_site_absorbing_oqw()), "dim": 3}, "dim disagrees"),
        ({**HALF_LINE_SPEC, "block_dim": 5}, "block_dim disagrees"),
    ],
    ids=["compact-dim-7", "abstract-dim-2", "full-dim-3", "abstract-block-dim-5"],
)
def test_build_model_rejects_dimensions_the_blocks_contradict(spec, match):
    with pytest.raises(ValueError, match=rf"^{match} with the supplied blocks$"):
        build_model(spec)


def test_build_model_accepts_dimensions_the_blocks_agree_with():
    m = build_model({**model_to_dict(models.three_site_absorbing_oqw()), "block_dim": 4})
    assert (m.dim, m.block_dim) == (2, 4)
    m = build_model({**HALF_LINE_SPEC, "dim": None, "block_dim": 1})
    assert (m.dim, m.block_dim) == (None, 1)


def test_truncate_segment_matches_full():
    m = models.shear_coin_segment()
    t = truncate(m, -5, 99)
    assert t.lo == 0 and t.hi == 2
    assert t.matrix.shape == (12, 12)
    assert np.abs(t.block(1, 0) - m.block(0, "A")).max() == 0.0


def test_truncate_line_window_shape():
    m = models.diagonal_coin_line_walk()
    L = 6
    t = truncate(m, -L, L)
    assert t.matrix.shape == (4 * (2 * L + 1),) * 2


def test_truncation_window_independence(density2):
    m = models.diagonal_coin_line_walk()
    L = 6
    a = truncate(m, -L, L)
    b = truncate(m, -L - 5, L + 5)
    d = m.block_dim
    va = np.zeros(a.matrix.shape[0], dtype=complex)
    va[L * d : (L + 1) * d] = m.state_vec(density2)
    vb = np.zeros(b.matrix.shape[0], dtype=complex)
    vb[(L + 5) * d : (L + 6) * d] = m.state_vec(density2)
    for n in range(L + 1):
        pa = m.trace_of(va[L * d : (L + 1) * d])
        pb = m.trace_of(vb[(L + 5) * d : (L + 6) * d])
        assert pa == pytest.approx(pb, abs=0)
        va = a.matrix @ va
        vb = b.matrix @ vb


def test_evolve_zero_steps_is_identity(density2):
    m = models.diagonal_coin_line_walk()
    st = LatticeState.from_density(m, 0, density2)
    out = evolve(m, st, 0)
    assert np.array_equal(out.data, st.data)


def test_evolve_preserves_trace_and_positivity(density2):
    m = models.diagonal_coin_line_walk()
    st = LatticeState.from_density(m, 0, density2)
    out = evolve(m, st, 25)
    assert total_trace(m, out) == pytest.approx(1.0, abs=1e-12)
    for _, v in out.items():
        rho = m.state_matrix(v)
        assert min_eigenvalue(rho) > -1e-10


def test_three_site_walk_leaks_mass(density2):
    m = models.three_site_absorbing_oqw()
    st = LatticeState.from_density(m, 1, density2)
    out = evolve(m, st, 2)
    assert total_trace(m, out) < 1.0 - 1e-3


def test_site_prob_basics(density2):
    m = models.diagonal_coin_line_walk()
    assert site_prob(m, 0, 0, density2, 0) == pytest.approx(1.0, abs=1e-14)
    total = sum(site_prob(m, 0, j, density2, 7) for j in range(-8, 9))
    assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        site_prob(models.shear_coin_segment(), 0, 5, density2, 1)


def test_shear_walk_probability_values():
    m = models.shear_coin_segment()
    a, b = 0.3, 0.1 + 0.05j
    rho = np.array([[a, b], [np.conj(b), 1 - a]])
    series = site_prob_series(m, 2, 0, rho, 4)
    assert series[2] == pytest.approx((1 + 4 * a - 4 * b.real) / 9, abs=1e-14)
    assert series[3] == pytest.approx(0.0, abs=1e-14)
    assert series[4] == pytest.approx(1 / 27, abs=1e-14)


@pytest.mark.parametrize(
    "i, j, n_max, message",
    [
        (5, 0, 3, "site outside topology"),
        (0, 5, 3, "site outside topology"),
        (0, 2, -1, "step count must be nonnegative"),
    ],
)
def test_site_prob_series_checks_its_arguments(density2, i, j, n_max, message):
    # the same contract as site_prob and evolve: a target off the segment
    # is an error, not a series of zeros
    with pytest.raises(ValueError, match=message):
        site_prob_series(models.shear_coin_segment(), i, j, density2, n_max)


def test_substochastic_sums_below_one(density2):
    m = models.shear_coin_segment()
    total = sum(site_prob(m, 1, j, density2, 5) for j in range(3))
    assert total <= 1.0 + 1e-10


def test_resolvent_block_at_zero_is_kronecker():
    m = models.flip_channel_half_line(0.7, 0.8)
    d = m.block_dim
    assert np.abs(resolvent_block(m, 2, 2, 0.0, 16) - np.eye(d)).max() < 1e-14
    assert np.abs(resolvent_block(m, 1, 3, 0.0, 16)).max() < 1e-14


def test_resolvent_block_matches_partial_sums():
    m = models.flip_channel_half_line(0.7, 0.8)
    s = 0.5
    d = m.block_dim
    got = resolvent_block(m, 1, 0, s, 40)
    t = truncate(m, 0, 40)
    acc = np.zeros((d, d), dtype=complex)
    power = np.eye(t.matrix.shape[0], dtype=complex)
    for n in range(31):
        acc += (s**n) * power[d : 2 * d, 0:d]
        power = t.matrix @ power
    assert np.abs(got - acc).max() < 1e-9


def test_resolvent_neumann_residual_at_40_terms():
    m = models.flip_channel_half_line(0.6, 0.55)
    s = 0.6
    d = m.block_dim
    got = resolvent_block(m, 0, 0, s, 50)
    t = truncate(m, 0, 50)
    acc = np.zeros((d, d), dtype=complex)
    power = np.eye(t.matrix.shape[0], dtype=complex)
    for n in range(41):
        acc += (s**n) * power[0:d, 0:d]
        power = t.matrix @ power
    assert np.abs(got - acc).max() < 1e-9


def test_corner_resolvent_matches_dense_solve():
    m = models.flip_channel_half_line(0.7, 0.8)
    z = 1.7 + 0.2j
    L = 30
    got = corner_resolvent(m, z, L)
    t = truncate(m, 0, L - 1)
    dense = np.linalg.inv(z * np.eye(t.matrix.shape[0]) - t.matrix)[:3, :3]
    assert np.abs(got - dense).max() < 1e-12

    # a stacked z runs one sweep for all points, one corner block each
    zs = z + np.array([[0.0, 0.1, -0.3j, 0.5 + 0.5j, -2.0], [0.2j, 1.0, -0.1, 3.0j, 0.05]])
    stacked = corner_resolvent(m, zs, L)
    assert stacked.shape == (2, 5, 3, 3)
    for idx in np.ndindex(zs.shape):
        zk = zs[idx]
        dense = np.linalg.inv(zk * np.eye(t.matrix.shape[0]) - t.matrix)[:3, :3]
        assert np.abs(stacked[idx] - corner_resolvent(m, zk, L)).max() < 1e-12
        assert np.abs(stacked[idx] - dense).max() < 1e-12


def _per_site_corner_sweep(m, z, depth):
    # the backward Schur sweep with every block looked up per site; the
    # coupling is the sweep's own product, so the two must agree bit for bit
    hi = depth - 1
    eye = np.eye(m.block_dim, dtype=complex)
    zeye = np.asarray(z)[..., None, None] * eye
    rhs = np.broadcast_to(eye, zeye.shape)
    Y = np.linalg.solve(zeye - m.block(hi, "B"), rhs)
    for k in range(hi - 1, -1, -1):
        coupling = _block_product(m.block(k + 1, "C"), Y, m.block(k, "A"))
        Y = np.linalg.solve(zeye - m.block(k, "B") - coupling, rhs)
    return Y


def test_corner_resolvent_block_table_is_bit_identical():
    up = models.flip_channel_half_line(0.7, 0.8, corner="up")
    seg = models.random_symmetrizable_segment(np.random.default_rng(5), num_sites=6)
    zs = np.array([1.01, 0.3 + 0.4j, -1.2])
    for m, depth in ((up, 800), (seg, 6)):
        for z in (zs[0], zs):
            want = _per_site_corner_sweep(m, z, depth)
            assert np.array_equal(corner_resolvent(m, z, depth), want)


def test_truncate_matches_per_site_assembly():
    cases = [
        (models.random_symmetrizable_segment(np.random.default_rng(7), num_sites=5), -2, 9),
        (models.corner_coin_oqw(0.7), 0, 6),
        (models.flip_channel_half_line(0.7, 0.8, corner="up"), 2, 5),
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.3, 0.3), -4, 3),
    ]
    for m, lo, hi in cases:
        t = truncate(m, lo, hi)
        for j in range(t.lo, t.hi + 1):
            for i in range(t.lo, t.hi + 1):
                role = {1: "A", 0: "B", -1: "C"}.get(j - i)
                want = m.block(i, role) if role else np.zeros((m.block_dim,) * 2)
                assert np.array_equal(t.block(j, i), want)


def test_corner_resolvent_singular_pivot_names_site():
    # site 2 only holds, so z I - B_2, the first pivot, vanishes at z = 1
    hop = Block(np.eye(2, dtype=complex) / 2)
    hold = {"B": Block(np.eye(2, dtype=complex)), "C": Block(np.zeros((2, 2), dtype=complex))}
    m = QmcModel(topology=segment(3), mode="abstract",
                 blocks={"A": hop, "C": hop}, overrides={2: hold}, substochastic=True)
    with pytest.raises(np.linalg.LinAlgError, match=r"site 2 for z in \[1\.0\] on window \[0, 2\]"):
        corner_resolvent(m, np.array([2.0, 1.0]), 3)
    assert np.isfinite(corner_resolvent(m, 2.0, 3)).all()


def test_schur_sweep_closing_continues_a_split_sweep():
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    table, z = block_table(m, 0, 9), 1.3 + 0.4j
    whole = schur_sweep(table, 0, range(9, -1, -1), z=z)
    upper = schur_sweep(table, 0, range(9, 4, -1), z=z)
    assert np.array_equal(schur_sweep(table, 0, range(4, -1, -1), z=z, closing=upper), whole)
    assert schur_sweep(table, 0, range(4, 4, -1), z=z, closing=upper) is upper
    # the neighbour of site 9 would be site 10, past the table's end
    with pytest.raises(ValueError, match="outside the table"):
        schur_sweep(table, 0, range(9, -1, -1), z=z, closing=upper)


def test_block_table_matches_per_site_lookup():
    cases = [
        (models.random_symmetrizable_segment(np.random.default_rng(6), num_sites=5), 0, 4),
        (models.uniform_hopping_segment(6, 0.4, 0.5, 0.5, 0.3, 0.3), 0, 5),
        (models.corner_coin_oqw(0.7), 0, 6),
        (models.flip_channel_half_line(0.7, 0.8, corner="up"), 2, 5),
        (models.uniform_hopping_line(0.4, 0.5, 0.5, 0.3, 0.3), -4, 3),
    ]
    for m, lo, hi in cases:
        table = dict(zip("ABC", block_table(m, lo, hi)))
        for role, row in table.items():
            assert len(row) == hi - lo + 1
            for k, blk in enumerate(row):
                assert np.array_equal(blk, m.block(lo + k, role))
    with pytest.raises(ValueError, match="window"):
        block_table(models.corner_coin_oqw(0.7), -1, 3)
    with pytest.raises(ValueError, match="window"):
        block_table(models.shear_coin_segment(), 0, 3)


def test_evolve_matches_truncated_power(real_density2):
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    density2 = real_density2
    st = LatticeState.from_density(m, 2, density2)
    out = evolve(m, st, 9)
    t = truncate(m, 0, 12)
    v = np.zeros(t.matrix.shape[0], dtype=complex)
    v[6:9] = m.state_vec(density2)
    v = np.linalg.matrix_power(t.matrix, 9) @ v
    for site in range(12):
        assert np.abs(out.site_vector(site) - v[3 * site : 3 * site + 3]).max() < 1e-12


def test_evolve_patches_every_overridden_role():
    # every site of the random segment overrides A, B and C, so ``step``
    # patches every role; the oracle is the dense power
    m = models.random_symmetrizable_segment(np.random.default_rng(3), num_sites=4, block_dim=4)
    rng = np.random.default_rng(5)
    v0 = rng.normal(size=4) + 1j * rng.normal(size=4)
    t = truncate(m, 0, 3)
    v = np.zeros(16, dtype=complex)
    v[4:8] = v0
    out = LatticeState(1, v0[None, :])
    for _ in range(5):
        out, v = evolve(m, out, 1), t.matrix @ v
        for site in range(4):
            assert np.abs(out.site_vector(site) - v[4 * site : 4 * site + 4]).max() < 1e-12


def test_step_handles_overrides_at_boundary(density2):
    m = models.corner_coin_oqw(0.7)
    st = LatticeState.from_density(m, 0, density2)
    out = step(m, st)
    # column 0 is trace preserving: B0 + A0 effects sum to identity
    assert total_trace(m, out) == pytest.approx(1.0, abs=1e-12)


def _hopping_line_with_overrides():
    """The hopping line with A, B and C overridden at -2 and B at 1."""
    m = models.uniform_hopping_line(0.4, 0.5, 0.5, 0.3, 0.3)
    overrides = {
        -2: {"A": block_from_kraus([np.sqrt(0.2) * np.eye(2)]),
             "B": block_from_kraus(models.exchange_hold_block(0.3, 0.6, 0.2)),
             "C": block_from_kraus([np.sqrt(0.5) * np.eye(2)])},
        1: {"B": block_from_kraus(models.exchange_hold_block(0.5, 0.1, 0.7))},
    }
    return QmcModel(topology=m.topology, mode=m.mode, blocks=m.blocks,
                    overrides=overrides, substochastic=True)


@pytest.mark.parametrize(
    "make, lo, hi",
    [
        (_hopping_line_with_overrides, -2, 3),
        (_hopping_line_with_overrides, -1, 1),
        (_hopping_line_with_overrides, -4, 0),
        (models.diagonal_coin_line_walk, -2, 3),
        (lambda: models.flip_channel_half_line(0.7, 0.8, corner="up"), 0, 4),
        (models.three_site_absorbing_oqw, 0, 2),
        (models.three_site_absorbing_oqw, 1, 2),
        (lambda: fold_model(models.diagonal_coin_line_walk()), 0, 4),
    ],
    ids=["line-overrides-both-sides", "line-override-cut", "line-lower-side",
         "coin-line", "flip-up-corner", "three-site", "three-site-tail", "folded-coin"],
)
def test_segment_window_matches_the_dense_window(make, lo, hi):
    m = make()
    w = segment_window(m, lo, hi)
    assert np.array_equal(truncate(w, 0, hi - lo).matrix, truncate(m, lo, hi).matrix)
    # the window keeps the sparse form: homogeneous blocks plus the
    # overrides inside [lo, hi], relabelled
    assert w.blocks == m.blocks
    assert w.overrides.keys() == {s - lo for s in m.overrides if lo <= s <= hi}


@pytest.mark.parametrize(
    "make, lo, hi",
    [
        (lambda: models.flip_channel_half_line(0.7, 0.8, corner="up"), -1, 3),
        (models.three_site_absorbing_oqw, 1, 3),
        (models.diagonal_coin_line_walk, 2, 1),
    ],
    ids=["below-half-line", "past-segment", "reversed"],
)
def test_segment_window_outside_the_topology_raises(make, lo, hi):
    with pytest.raises(ValueError, match="window"):
        segment_window(make(), lo, hi)


def test_evolve_on_a_line_with_overrides_matches_the_dense_power(density2):
    # overrides on both sides of the origin; after n steps from site 0 no
    # mass lies outside [-n, n], so the dense window is exact there
    m, n = _hopping_line_with_overrides(), 7
    out = evolve(m, LatticeState.from_density(m, 0, density2), n)
    t = truncate(m, -n, n)
    v = np.zeros(t.matrix.shape[0], dtype=complex)
    v[4 * n : 4 * n + 4] = m.state_vec(density2)
    v = np.linalg.matrix_power(t.matrix, n) @ v
    assert out.sites == range(-n, n + 1)
    for site in out.sites:
        k = site + n
        assert np.abs(out.site_vector(site) - v[4 * k : 4 * k + 4]).max() < 1e-12
