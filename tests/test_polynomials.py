import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcspectra import models
from qmcspectra.chain_model import Block, QmcModel, line, segment
from qmcspectra.polynomials import PolyFamily, recurrence_residual
from qmcspectra.folding import fold_model

SQ2 = np.sqrt(2.0)

unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


def test_q0_is_identity():
    for m in (models.shear_coin_segment(), models.flip_channel_half_line(0.7, 0.8)):
        q = PolyFamily(m).main(0.37, 0)
        assert np.array_equal(q[0], np.eye(m.block_dim))


def test_three_site_first_polynomial():
    m = models.three_site_absorbing_oqw()
    target = np.array(
        [[2, 0, 0, 0], [-SQ2, -SQ2, 0, 0], [-SQ2, 0, -SQ2, 0], [1, 1, 1, 1]]
    )
    for x in (0.7, -0.3 + 0.2j):
        q1 = PolyFamily(m).main(x, 1)[1]
        assert np.abs(q1 - 2 * x * target).max() < 1e-12


def test_uniform_hopping_is_chebyshev_in_disguise():
    # with equal hops the polynomials are second-kind Chebyshev evaluated
    # at the shifted hold block
    s, a, b = 0.5, 0.3, 0.4
    k = 0.2
    m = models.uniform_hopping_segment(6, s, a, b, k, k)
    B = m.block(0, "B")
    evals, vecs = np.linalg.eigh(B.real)
    x = 0.83
    y = (x - evals) / (2 * k)
    u_prev = np.ones_like(y)
    u = 2 * y
    cheb = [u_prev, u]
    for _ in range(4):
        u_prev, u = u, 2 * y * u - u_prev
        cheb.append(u)
    q = PolyFamily(m).main(x, 5)
    for n in range(6):
        expect = vecs @ np.diag(cheb[n]) @ vecs.T
        assert np.abs(q[n] - expect).max() < 1e-10


@given(st.lists(unit_disk, min_size=1, max_size=4))
@settings(max_examples=20, deadline=None)
def test_main_recurrence_residual(points):
    m = models.flip_channel_half_line(0.62, 0.57)
    pf = PolyFamily(m)
    for x in points:
        q = pf.main(x, 8)
        table = dict(enumerate(q))
        scale = max(1.0, max(np.linalg.norm(v) for v in q))
        assert recurrence_residual(m, table, x) < 1e-10 * scale


def test_main_stacked_points_match_single_calls():
    m = models.flip_channel_half_line(0.62, 0.57)
    pf = PolyFamily(m)
    xs = np.array([0.7, -0.3 + 0.2j, 0.0, 1.5j, -1.1])
    stacked = pf.main(xs, 8)
    assert len(stacked) == 9
    for k, x in enumerate(xs):
        single = pf.main(x, 8)
        for n in range(9):
            assert stacked[n].shape == (len(xs), 3, 3)
            scale = max(1.0, np.linalg.norm(single[n]))
            assert np.abs(stacked[n][k] - single[n]).max() < 1e-13 * scale


@pytest.mark.parametrize("make", [models.diagonal_coin_line_walk, models.tilted_shear_line])
def test_two_sided_stacked_points_match_single_calls(make):
    pf = PolyFamily(make())
    xs = np.array([0.7, -0.3 + 0.2j, 0.0, 1.5j, -1.1])
    for alpha in (1, 2):
        stacked = pf.two_sided(alpha, xs, -6, 5)
        assert sorted(stacked) == list(range(-6, 6))
        for k, x in enumerate(xs):
            single = pf.two_sided(alpha, x, -6, 5)
            for n, q in single.items():
                assert stacked[n].shape == (len(xs),) + q.shape
                scale = max(1.0, np.linalg.norm(q))
                assert np.abs(stacked[n][k] - q).max() < 1e-12 * scale


def test_associated_family_start():
    m = models.flip_channel_half_line(0.7, 0.8)
    k = 2
    q = PolyFamily(m).associated(k, 0.45, 6)
    for n in range(k + 1):
        assert np.abs(q[n]).max() == 0.0
    a_k = m.block(k, "A")
    assert np.abs(q[k + 1] + np.linalg.inv(a_k)).max() < 1e-12


def test_associated_degree_by_divided_differences():
    m = models.flip_channel_half_line(0.7, 0.8)
    k, n = 1, 5
    deg = n - k - 1
    # a polynomial of degree deg has vanishing (deg+1)-th finite difference
    h = 0.23
    pts = [PolyFamily(m).associated(k, j * h, n)[n] for j in range(deg + 3)]
    for _ in range(deg + 1):
        pts = [b - a for a, b in zip(pts, pts[1:])]
    assert np.abs(pts[0]).max() < 1e-9
    assert np.abs(pts[1]).max() < 1e-9
    # one fewer difference does not vanish: the degree is exactly deg
    pts = [PolyFamily(m).associated(k, j * h, n)[n] for j in range(deg + 3)]
    for _ in range(deg):
        pts = [b - a for a, b in zip(pts, pts[1:])]
    assert np.abs(pts[0]).max() > 1e-6


def test_two_sided_initial_data_and_residual():
    m = models.diagonal_coin_line_walk()
    x = 0.37 + 0.11j
    q1 = PolyFamily(m).two_sided(1, x, -5, 5)
    q2 = PolyFamily(m).two_sided(2, x, -5, 5)
    assert np.array_equal(q1[0], np.eye(4)) and np.abs(q1[-1]).max() == 0.0
    assert np.abs(q2[0]).max() == 0.0 and np.array_equal(q2[-1], np.eye(4))
    assert recurrence_residual(m, q1, x) < 1e-10
    assert recurrence_residual(m, q2, x) < 1e-10


def test_two_sided_diagonal_structure():
    m = models.diagonal_coin_line_walk()
    q1 = PolyFamily(m).two_sided(1, 0.53, -4, 4)
    for n, mat in q1.items():
        off = mat - np.diag(np.diag(mat))
        assert np.abs(off).max() < 1e-14


def test_folded_family_blocks():
    m = models.diagonal_coin_line_walk()
    x = 0.41
    folded = PolyFamily(m).folded(x, 8)
    assert np.array_equal(folded[0], np.eye(8))
    q1 = PolyFamily(m).two_sided(1, x, -9, 8)
    for n in (1, 4, 8):
        assert np.abs(folded[n][:4, :4] - q1[n]).max() < 1e-14

    fm = fold_model(m)
    pf = dict(enumerate(folded))
    assert recurrence_residual(fm, pf, x) < 1e-10


@pytest.mark.parametrize("make", [models.diagonal_coin_line_walk, models.tilted_shear_line])
def test_folded_rows_are_the_two_sided_families(make):
    # both line families run as the rows of one stack: family 1 on top,
    # indices n and -n-1 side by side
    pf = PolyFamily(make())
    for x in (0.37, -0.3 + 0.2j):
        folded = pf.folded(x, 5)
        q1, q2 = (pf.two_sided(alpha, x, -6, 5) for alpha in (1, 2))
        for n in range(6):
            want = np.block([[q1[n], q1[-n - 1]], [q2[n], q2[-n - 1]]])
            assert np.abs(folded[n] - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "call",
    [
        lambda pf: pf.main(0.5, -1),
        lambda pf: pf.associated(1, 0.5, -2),
        lambda pf: pf.folded(0.5, -1),
        lambda pf: pf.two_sided(1, 0.5, 1, -1),
        lambda pf: pf.two_sided(2, 0.5, 3, 2),
    ],
    ids=["main", "associated", "folded", "two-sided-1", "two-sided-2"],
)
def test_negative_degree_or_empty_range_rejected(call):
    pf = PolyFamily(models.diagonal_coin_line_walk())
    with pytest.raises(ValueError, match="empty index range"):
        call(pf)


@pytest.mark.parametrize(
    "call",
    [lambda pf: pf.main(0.3, 3), lambda pf: pf.associated(0, 0.3, 3)],
    ids=["main", "associated"],
)
def test_index_past_the_last_site_rejected(call):
    # Q_3 of the three-site segment needs A_2, which the edge clips to zero:
    # the query is malformed, not a singular pivot
    pf = PolyFamily(models.three_site_absorbing_oqw())
    with pytest.raises(ValueError, match="index 3 lies past the last site 2"):
        call(pf)
    assert len(pf.main(0.3, 2)) == 3


@pytest.mark.parametrize("k, n_max, index", [(2, 3, 3), (5, 3, 5), (5, 1, 5)])
def test_associated_index_past_the_last_site_rejected(k, n_max, index):
    # checked before A_k is inverted, and before the zero blocks up to k
    pf = PolyFamily(models.three_site_absorbing_oqw())
    with pytest.raises(ValueError, match=f"index {index} lies past the last site 2"):
        pf.associated(k, 0.3, n_max)
    assert len(pf.associated(2, 0.3, 2)) == 3


def test_negative_associated_index_rejected():
    # a negative k is malformed input, not a singular pivot at site k
    pf = PolyFamily(models.shear_coin_segment())
    with pytest.raises(ValueError, match="nonnegative"):
        pf.associated(-1, 1.0, 2)


def test_singular_pivot_names_site():
    blocks = {
        "A": Block(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)),
        "B": Block(np.zeros((2, 2), dtype=complex)),
        "C": Block(np.eye(2, dtype=complex)),
    }
    m = QmcModel(
        topology=segment(4),
        mode="abstract",
        blocks=blocks,
        substochastic=True,
    )
    with pytest.raises(np.linalg.LinAlgError, match="site 0"):
        PolyFamily(m).main(0.3, 2)
    with pytest.raises(np.linalg.LinAlgError, match="site 0"):
        PolyFamily(m).main(np.array([0.3, -0.5j]), 2)

    ml = QmcModel(
        topology=line(),
        mode="abstract",
        blocks={"A": Block(np.eye(2, dtype=complex)), "B": blocks["B"], "C": blocks["A"]},
        substochastic=True,
    )
    with pytest.raises(np.linalg.LinAlgError, match="backward"):
        PolyFamily(ml).two_sided(1, 0.3, -2, 2)
    with pytest.raises(np.linalg.LinAlgError, match="backward"):
        PolyFamily(ml).two_sided(1, np.array([0.3, -0.5j]), -2, 2)
