"""The stacked block kernels against dense references: the block-Schur
sweep against ``truncate`` plus ``np.linalg.solve``, the shared-pivot
solve of the polynomial recurrence against one solve per point, the
GEMM form of a block product against stacked matmul, and the residue
weights: the eigenvector route against the exact Riesz projector of the
sign iteration, the projector against a full contour of the corner
resolvent, the real iteration at real centres of real tables, and the
residue gate, which must not depend on the eigenvector basis.

The GEMM path's rounding and the eigenvector basis that ``eig`` returns
can depend on the BLAS thread count, so CI runs this file a second time
with ``OPENBLAS_NUM_THREADS=1``.
"""

import numpy as np
import pytest

from qmcspectra import folding, models, spectral
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    _block_product,
    block_table,
    corner_resolvent,
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


def _folded_window():
    # the folded segment whose weights km_on_line sums
    seen, inner = [], folding.finite_spectrum_weights
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(folding, "finite_spectrum_weights", lambda seg: seen.append(seg) or inner(seg))
        folding.km_on_line(models.uniform_hopping_line(0.4, 0.5, 0.5, 0.3, 0.3), 1, -2, 6)
    return seen[0]


def _two_site_segment(*sites):
    # an abstract segment from the real blocks {role: rows} of two sites
    overrides = {k: {role: Block(np.array(rows, dtype=complex)) for role, rows in site.items()}
                 for k, site in enumerate(sites)}
    return QmcModel(topology=segment(2), mode="abstract", substochastic=True, overrides=overrides)


def _jordan_segment():
    # site 1's B is a Jordan block at 0.2, which site 0 shares as a simple
    # eigenvalue, so the triple eigenvalue 0.2 is defective and its cluster
    # trips the gate, while A = 0 keeps the corner resolvent (z - B_0)^{-1}
    # and its poles simple; the window matrix is upper triangular, so eig
    # returns 0.2 exactly
    return _two_site_segment({"B": [[0.2, 0.3], [0.0, -0.4]]},
                             {"B": [[0.2, 1.0], [0.0, 0.2]], "C": [[0.1, -0.3], [0.25, 0.15]]})


def _rotation_segment():
    # real blocks with a conjugate pair of complex nodes beside two real ones
    return _two_site_segment({"B": [[0.1, -0.5], [0.5, 0.1]], "A": [[0.2, 0.1], [0.0, 0.3]]},
                             {"B": [[0.3, 0.0], [0.1, -0.2]], "C": [[0.25, 0.0], [-0.1, 0.2]]})


SEGMENTS = {
    **BUNDLED_SEGMENTS,
    "hopping-S24": lambda: models.uniform_hopping_segment(24, 0.4, 0.6, 0.5, 0.25, 0.2),
    "shear-4": lambda: models.shear_coin_segment(4),
    "shear-4-compact": lambda: models.shear_coin_segment(4, "compact"),
    "folded-window": _folded_window,
    "jordan": _jordan_segment,
    "rotation": _rotation_segment,
}
REAL_SEGMENTS = [name for name in SEGMENTS if name != "random"]


def _real_table(m):
    return not any(np.any(b.imag) for row in block_table(m, 0, m.topology.num_sites - 1)
                   for b in row)


@pytest.mark.parametrize("name", REAL_SEGMENTS)
def test_corner_resolvent_of_a_real_table_mirrors_conjugate_points(name):
    # a real table's corner resolvent at conj(z) is the conjugate of its
    # value at z, bit for bit in the sweep: points on small circles around
    # every eigenvalue and points scattered over both half-planes
    m = SEGMENTS[name]()
    assert _real_table(m)
    sites = m.topology.num_sites
    ev = np.linalg.eigvals(truncate(m, 0, sites - 1).matrix)
    rng = np.random.default_rng(7)
    zs = np.concatenate([ev + 1e-4 * np.exp(2j * np.pi * rng.random(ev.size)),
                         0.5 * rng.normal(size=32) + 0.5j * rng.normal(size=32)])
    assert np.array_equal(corner_resolvent(m, zs.conj(), sites),
                          corner_resolvent(m, zs, sites).conj())


# clusters the gate refuses at its defaults, so that they take the Riesz
# projector; every other cluster reads its eigenvectors
GATED = {"jordan": 1}


@pytest.fixture
def projector_only(monkeypatch):
    # no projector norm is below 1, so every cluster takes the sign iteration
    monkeypatch.setattr(spectral, "RESIDUE_KAPPA_MAX", 0.0)


def _full_sweep_weights(m):
    # every cluster swept on all 64 roots of unity around its mean
    # eigenvalue in complex arithmetic: an independent, inexact reference
    # for the projector, accurate where the corner's poles are simple
    sites = m.topology.num_sites
    ev = np.linalg.eig(truncate(m, 0, sites - 1).matrix)[0]
    groups = spectral._cluster_eigenvalues(ev, spectral.TOL_GROUP)
    centers = np.array([ev[g].mean() for g in groups])
    dist = np.abs(centers[:, None] - centers[None, :])
    np.fill_diagonal(dist, np.inf)
    unit = np.exp(2j * np.pi * np.arange(64) / 64)
    points = []
    for center, gap in zip(centers, dist.min(axis=1)):
        zs = center + min(1e-4, gap / 10.0) * unit
        weight = np.einsum("k,kij->ij", zs - center, corner_resolvent(m, zs, sites))
        node = complex(center.real, 0.0) if abs(center.imag) <= spectral.TOL_GROUP else center
        points.append((node, weight / 64))
    points.sort(key=lambda p: (p[0].real, p[0].imag))
    return np.array([p[0] for p in points]), np.array([p[1] for p in points])


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_half_sweep_matches_the_full_sweep(projector_only, name):
    # the projector of a real centre of a real table runs in real
    # arithmetic, half the work of a complex one, and still matches the
    # full complex contour sweep of the corner resolvent
    m = SEGMENTS[name]()
    w = finite_spectrum_weights(m)
    nodes, weights = _full_sweep_weights(m)
    assert np.array_equal(w.nodes(), nodes)
    assert np.abs(w.weights() - weights).max() <= 1e-11 * np.abs(weights).max()


def _projector_calls(monkeypatch, m):
    # the dtype of every sign iteration that finite_spectrum_weights runs
    calls, inner = [], spectral._riesz_corner
    monkeypatch.setattr(spectral, "_riesz_corner", lambda mat, center, *a: calls.append(
        np.result_type(mat, center).name) or inner(mat, center, *a))
    for name in ("block_table", "schur_sweep"):
        monkeypatch.setattr(spectral, name, lambda *a, **kw: pytest.fail("swept"))
    w = finite_spectrum_weights(m)
    return sorted(calls), w


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_only_real_centres_of_real_tables_sweep_half_the_contour(projector_only, monkeypatch, name):
    # the contour around a real centre of a real table is its own mirror
    # image, so its projector is real: only there the iteration runs real
    m = SEGMENTS[name]()
    dtypes, w = _projector_calls(monkeypatch, m)
    nodes = w.nodes()
    real = int(np.sum(nodes.imag == 0)) if _real_table(m) else 0
    assert dtypes == ["complex128"] * (nodes.size - real) + ["float64"] * real
    if name == "random":
        # complex blocks: even its real nodes iterate in complex arithmetic
        assert not _real_table(m) and np.all(nodes.imag == 0) and set(dtypes) == {"complex128"}


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_clusters_under_the_gate_make_no_sweep(monkeypatch, name):
    dtypes, _ = _projector_calls(monkeypatch, SEGMENTS[name]())
    assert len(dtypes) == GATED.get(name, 0)


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_weights_sum_to_the_identity(name):
    w = finite_spectrum_weights(SEGMENTS[name]())
    assert np.abs(w.total() - np.eye(w.total().shape[0])).max() <= 1e-13


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_eigenvector_weights_match_the_contour(monkeypatch, name):
    # the contour is the Riesz projector's, exact through the sign iteration
    m = SEGMENTS[name]()
    w = finite_spectrum_weights(m)
    monkeypatch.setattr(spectral, "RESIDUE_KAPPA_MAX", 0.0)
    projector = finite_spectrum_weights(m)
    assert np.array_equal(w.nodes(), projector.nodes())
    weights = projector.weights()
    assert np.abs(w.weights() - weights).max() <= 1e-10 * np.abs(weights).max()


@pytest.mark.parametrize("name", list(SEGMENTS))
def test_real_nodes_of_real_tables_carry_real_weights(name):
    m = SEGMENTS[name]()
    real_table = _real_table(m)
    points = finite_spectrum_weights(m).points
    if name == "rotation":
        assert real_table and sorted(type(p.node).__name__ for p in points) == [
            "complex", "complex", "float", "float"]
    for p in points:
        if real_table and p.node.imag == 0:
            assert type(p.node) is float and p.weight.dtype == np.float64
        else:
            assert type(p.node) is complex and p.weight.dtype == np.complex128


def test_gated_cluster_keeps_the_contour_and_the_moments():
    m = _jordan_segment()
    mat = truncate(m, 0, 1).matrix
    w = finite_spectrum_weights(m)
    assert [(p.node, p.multiplicity) for p in w.points] == [(-0.4, 1), (0.2, 3)]
    for n in range(7):
        assert np.abs(w.moment(n) - np.linalg.matrix_power(mat, n)[:2, :2]).max() <= 1e-13


def _one_site(b):
    return QmcModel(topology=segment(1), mode="abstract", blocks={"B": Block(b.astype(complex))},
                    substochastic=True)


def test_singular_eigenvectors_send_every_cluster_to_the_projector(monkeypatch):
    # the eigenvectors that eig returns for a 3x3 nilpotent block are
    # singular: its one cluster is a triple pole at 0, a lone cluster whose
    # projector is I
    dtypes, w = _projector_calls(monkeypatch, _one_site(np.diag([1.0, 1.0], 1)))
    assert dtypes == ["float64"] and [(p.node, p.multiplicity) for p in w.points] == [(0.0, 3)]
    assert np.abs(w.total() - np.eye(3)).max() <= 1e-13


def test_defective_block_reaches_the_projector(monkeypatch):
    # B = J_3(0.5) + (-0.2), upper triangular, so eig returns the exact
    # eigenvalues and three parallel eigenvectors for 0.5, which the rank
    # test refuses; the projector's corner is exact, and the moments are the
    # powers of B's diagonalizable part, which the Jordan part's nilpotent
    # terms, poles of order 2 and 3, leave out
    b = np.zeros((4, 4))
    b[:3, :3] = 0.5 * np.eye(3) + np.diag([1.0, 1.0], 1)
    b[3, 3] = -0.2
    dtypes, w = _projector_calls(monkeypatch, _one_site(b))
    assert dtypes == ["float64"]
    assert [(p.node, p.multiplicity) for p in w.points] == [(-0.2, 1), (0.5, 3)]
    assert np.abs(w.weights() - [np.diag([0, 0, 0, 1]), np.diag([1, 1, 1, 0])]).max() <= 1e-13
    for n in range(7):
        semisimple = np.diag(np.array([0.5, 0.5, 0.5, -0.2]) ** n)
        assert np.abs(w.moment(n) - semisimple).max() <= 1e-13


def test_double_clusters_of_a_hopping_draw_pass_the_gate(monkeypatch):
    # an S = 24 draw of the segment benchmark whose eigenvector bound
    # ||V[:, g]|| ||V^-1[g, :]|| tops 7e4 on one BLAS thread and not on
    # two; its projector norms are small on both, so no cluster iterates
    m = models.uniform_hopping_segment(24, 0.3321314643304578, 0.5251824204206517,
                                       0.4209157911263531, 0.2445035306921646,
                                       0.13344104998050266)
    dtypes, w = _projector_calls(monkeypatch, m)
    assert dtypes == [] and [p.multiplicity for p in w.points] == [2] * 48
    assert np.abs(w.total() - np.eye(m.block_dim)).max() <= 1e-13


@pytest.mark.parametrize("name", ["three-site-oqw", "hopping-S24", "lazy-shear", "jordan"])
def test_gate_does_not_depend_on_the_eigenvector_basis(name):
    # V[:, g] R and R^-1 V^-1[g, :] span the same projector; with cond(R)
    # = 1e3 every cluster keeps its decision
    m = SEGMENTS[name]()
    mat = truncate(m, 0, m.topology.num_sites - 1).matrix
    ev, vec = np.linalg.eig(mat)
    inv = np.linalg.inv(vec)
    groups = spectral._cluster_eigenvalues(ev, spectral.TOL_GROUP)
    rng = np.random.default_rng(3)
    vec_r, inv_r = vec.copy(), inv.copy()
    for g in groups:
        q1, _ = np.linalg.qr(rng.normal(size=(len(g), len(g))))
        q2, _ = np.linalg.qr(rng.normal(size=(len(g), len(g))))
        r = q1 @ np.diag(np.logspace(0, -3, len(g)) if len(g) > 1 else [1e-3]) @ q2
        vec_r[:, g], inv_r[g, :] = vec[:, g] @ r, np.linalg.solve(r, inv[g, :])
    keep = spectral._eigenvector_clusters(vec, inv, groups)
    assert np.array_equal(spectral._eigenvector_clusters(vec_r, inv_r, groups), keep)
    assert keep.sum() == len(groups) - GATED.get(name, 0)
