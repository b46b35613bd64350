"""The stacked block kernels against dense references: the block-Schur
sweep against ``truncate`` plus ``np.linalg.solve``, the shared-pivot
solve of the polynomial recurrence against one solve per point, and the
GEMM form of a block product against stacked matmul.

The GEMM path's rounding can depend on the BLAS thread count, so CI runs
this file a second time with ``OPENBLAS_NUM_THREADS=1``.
"""

import numpy as np
import pytest

from qmcspectra import models
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    _block_product,
    block_table,
    schur_sweep,
    segment,
    truncate,
)
from qmcspectra.polynomials import _solve_right
from qmcspectra.spectral import finite_spectrum_weights

SITES = 6
BLOCK_DIMS = (2, 3, 4, 8, 9)
STACKS = ((), (1,), (64,))
REL = 1e-13


def _random_segment(d):
    # every block of every site drawn anew, of 2-norm 0.3, so the window
    # operator has norm below 1 and no point below is near its spectrum
    rng = np.random.default_rng(d)

    def block():
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return Block(0.3 * m / np.linalg.norm(m, 2))

    overrides = {k: {role: block() for role in "ABC"} for k in range(SITES)}
    return QmcModel(topology=segment(SITES), mode="abstract", overrides=overrides,
                    substochastic=True)


def _points(kind, shape):
    # z outside the spectrum, s inside the unit disc of the resolvent series
    count = int(np.prod(shape))
    angles = 2 * np.pi * (np.arange(count) + 0.25) / count
    radius = 1.5 if kind == "z" else 0.6
    return (radius * np.exp(1j * angles)).reshape(shape)[()]


def _dense_inverse(model, kind, point, lo, hi):
    # (z I - Phi)^{-1} or (I - s Phi)^{-1} of the window [lo, hi], dense
    mat = truncate(model, lo, hi).matrix
    eye = np.eye(mat.shape[0])
    op = point * eye - mat if kind == "z" else eye - point * mat
    return np.linalg.solve(op, eye)


def _block(inv, d, j, i):
    return inv[j * d : (j + 1) * d, i * d : (i + 1) * d]


def _dense(model, kind, points, lo, hi, j, i):
    # block (j, i), relative to lo, of the dense inverse at every point
    d = model.block_dim
    out = np.empty(np.shape(points) + (d, d), dtype=complex)
    for idx in np.ndindex(np.shape(points)):
        out[idx] = _block(_dense_inverse(model, kind, np.asarray(points)[idx], lo, hi), d, j, i)
    return out


def _assert_close(got, want):
    assert got.shape == want.shape
    err = np.linalg.norm(got - want, axis=(-2, -1))
    assert (err <= REL * np.linalg.norm(want, axis=(-2, -1))).all(), err.max()


def _swapped(y):
    # the same values as a non-contiguous swapped-axes view, the form in
    # which homogeneous_closure returns its values
    view = np.ascontiguousarray(np.swapaxes(y, -1, -2)).swapaxes(-1, -2)
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("shape", STACKS, ids=["scalar", "one", "64"])
@pytest.mark.parametrize("kind", ["z", "s"])
@pytest.mark.parametrize("d", BLOCK_DIMS)
def test_schur_sweep_matches_the_dense_solve(d, kind, shape):
    m = _random_segment(d)
    table, points = block_table(m, 0, SITES - 1), _points(kind, shape)
    last = SITES - 1
    kw = {kind: points}
    # either direction, from an absorbing edge
    _assert_close(schur_sweep(table, 0, range(last, -1, -1), **kw),
                  _dense(m, kind, points, 0, last, 0, 0))
    _assert_close(schur_sweep(table, 0, range(SITES), **kw),
                  _dense(m, kind, points, 0, last, last, last))
    # from a closing: the inverse pivot at site 3 after the sites above it
    closing = _swapped(_dense(m, kind, points, 3, last, 0, 0))
    _assert_close(schur_sweep(table, 0, range(2, -1, -1), closing=closing, **kw),
                  _dense(m, kind, points, 0, last, 0, 0))
    # a source at site 4: the solution at the last site is block (0, 4)
    eye = np.eye(d)
    _assert_close(schur_sweep(table, 0, range(last, -1, -1), source_site=4, source=eye, **kw),
                  _dense(m, kind, points, 0, last, 0, 4))
    # and from a closing, the source at the first swept site
    _assert_close(schur_sweep(table, 0, range(2, -1, -1), source_site=2, source=eye,
                              closing=closing, **kw),
                  _dense(m, kind, points, 0, last, 0, 2))


def test_schur_sweep_singular_pivot_names_the_points():
    # site 2 only holds, so its pivot I - s B_2 vanishes at s = 1
    hop = Block(np.eye(2, dtype=complex) / 2)
    hold = {"B": Block(np.eye(2, dtype=complex)), "C": Block(np.zeros((2, 2), dtype=complex))}
    m = QmcModel(topology=segment(3), mode="abstract",
                 blocks={"A": hop, "C": hop}, overrides={2: hold}, substochastic=True)
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"singular block-Schur pivot at site 2 for s in \[1\.0\] "
                             r"on window \[0, 2\]"):
        schur_sweep(block_table(m, 0, 2), 0, range(2, -1, -1), s=np.array([0.5, 1.0]))


@pytest.mark.parametrize("lead", [(), (5,), (3, 2)], ids=["one", "five", "3x2"])
@pytest.mark.parametrize("rows", [2, 4])
def test_solve_right_matches_one_solve_per_point(lead, rows):
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3 * np.eye(4)
    num = rng.normal(size=lead + (rows, 4)) + 1j * rng.normal(size=lead + (rows, 4))
    got = _solve_right(num, mat, 0, "forward")
    assert got.shape == num.shape
    want = np.empty_like(num)
    for idx in np.ndindex(lead):
        want[idx] = np.linalg.solve(mat.T, num[idx].T).T
    _assert_close(got, want)
    # a broadcast stack, as the recurrence's first step passes
    eye = np.broadcast_to(np.eye(4, dtype=complex), lead + (4, 4))
    _assert_close(_solve_right(eye, mat, 0, "forward"),
                  np.broadcast_to(np.linalg.inv(mat), lead + (4, 4)))


def test_solve_right_guards_an_ill_conditioned_pivot():
    mat = np.diag([1.0, 1e-13]).astype(complex)
    match = r"backward recurrence pivot at site 7 is singular \(cond 1\.000e\+13\)"
    with pytest.raises(np.linalg.LinAlgError, match=match):
        _solve_right(np.ones((3, 2, 2), dtype=complex), mat, 7, "backward")


@pytest.mark.parametrize("shape", [(), (1,), (64,), (2, 3)], ids=["one", "1", "64", "2x3"])
def test_block_product_matches_stacked_matmul(shape):
    rng = np.random.default_rng(11)

    def rand(*s):
        return rng.normal(size=s) + 1j * rng.normal(size=s)

    left, right, stack = rand(3, 4), rand(5, 2), rand(*shape, 4, 5)
    for form in (stack, _swapped(stack), np.broadcast_to(stack[(0,) * len(shape)], stack.shape)):
        _assert_close(_block_product(left, form, right), left @ form @ right)
        _assert_close(_block_product(left, form, None), left @ form)
        _assert_close(_block_product(None, form, right), form @ right)
    assert np.array_equal(_block_product(None, stack, None), stack)


BUNDLED_SEGMENTS = {
    "three-site-oqw": models.three_site_absorbing_oqw,
    "hopping-segment": lambda: models.uniform_hopping_segment(4, 0.4, 0.5, 0.5, 0.3, 0.3),
    "shear": models.shear_coin_segment,
    "shear-compact": lambda: models.shear_coin_segment(mode="compact"),
    "lazy-shear": models.five_site_lazy_shear_chain,
    "random": lambda: models.random_symmetrizable_segment(np.random.default_rng(0), block_dim=3),
}


@pytest.mark.parametrize("make", BUNDLED_SEGMENTS.values(), ids=list(BUNDLED_SEGMENTS))
def test_residue_weight_moments_are_matrix_powers(make):
    m = make()
    w = finite_spectrum_weights(m)
    mat, d = truncate(m, 0, m.topology.num_sites - 1).matrix, m.block_dim
    for n in range(7):
        assert np.abs(w.moment(n) - np.linalg.matrix_power(mat, n)[:d, :d]).max() < 1e-12
