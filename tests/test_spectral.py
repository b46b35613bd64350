import dataclasses

import numpy as np
import pytest

from qmcspectra import models, spectral
from qmcspectra.chain_model import (
    Block,
    QmcModel,
    corner_resolvent,
    half_line,
    schur_sweep,
    segment,
    truncate,
)
from qmcspectra.spectral import (
    ConvergenceError,
    CornerStieltjes,
    HomogeneousStieltjes,
    SpectralError,
    TruncatedStieltjes,
    _continued_corners,
    find_symmetrizer,
    finite_spectrum_weights,
    residue_probe,
)
from qmcspectra.folding import FoldedTransformEvaluator, plus_model
from qmcspectra.statistics import DEFAULT_LADDER


def scalar_chain(a, c, b=0.0, topology=None):
    blocks = {
        "A": Block(np.array([[a]], dtype=complex)),
        "B": Block(np.array([[b]], dtype=complex)),
        "C": Block(np.array([[c]], dtype=complex)),
    }
    from qmcspectra.chain_model import half_line

    return QmcModel(
        topology=topology or half_line(),
        mode="abstract",
        blocks=blocks,
        substochastic=True,
        trace_vec=np.array([1.0]),
    )


# -- symmetrizer ------------------------------------------------------


def test_symmetrizer_geometric_products():
    r, t = 0.2, 0.3
    m = models.uniform_hopping_segment(5, 0.5, 0.5, 0.5, r, t)
    sym = find_symmetrizer(m, 4)
    assert sym.success
    for n in range(5):
        assert np.abs(sym.pi[n] - (r / t) ** n * np.eye(4)).max() < 1e-12


def _unit_hop_segment(b):
    # A = C = I makes every pi[n] = I, so pi[0] B_0 at site 0 is B itself
    eye = Block(np.eye(2, dtype=complex))
    return QmcModel(topology=segment(2), mode="abstract",
                    blocks={"A": eye, "B": Block(np.asarray(b, dtype=complex)), "C": eye},
                    substochastic=True)


@pytest.mark.parametrize(
    "model, index, reason",
    [
        # pi[1] = C_1 / A_0 = -1 is Hermitian and negative
        (scalar_chain(1.0, -1.0, topology=segment(2)), 1, "pi[1] is not positive definite"),
        (_unit_hop_segment([[0, 1], [0, 0]]), 0, "pi[0] B_0 is not Hermitian"),
    ],
    ids=["not-positive-definite", "witness-not-hermitian"],
)
def test_symmetrizer_reports_the_check_that_failed(model, index, reason):
    sym = find_symmetrizer(model, 4)
    assert not sym.success and sym.fail_index == index and sym.defect == 1.0
    assert sym.reason == reason


def test_symmetrizer_identity_for_equal_hops():
    m = models.diagonal_coin_line_walk()
    sym = find_symmetrizer(m, 4)
    # equal up/down would give identity; here the ratio is diagonal
    expect = np.diag(
        [
            (2 / 3) / (1 / 3),
            np.sqrt(1 / 3) / np.sqrt(1 / 6),
            np.sqrt(1 / 3) / np.sqrt(1 / 6),
            1.0,
        ]
    )
    assert np.abs(sym.pi[1] - expect).max() < 1e-12
    assert np.abs(sym.pi[-1] - np.linalg.inv(expect)).max() < 1e-12

    a = models.uniform_hopping_half_line(0.5, 0.3, 0.4, 0.25, 0.25)
    sym2 = find_symmetrizer(a, 6)
    assert sym2.success
    for n in range(6):
        assert np.abs(sym2.pi[n] - np.eye(4)).max() < 1e-10


def test_symmetrizer_failure_reported():
    m = models.shear_coin_segment()
    sym = find_symmetrizer(m, 2)
    assert not sym.success
    assert sym.fail_index == 1
    assert sym.defect > 1.0
    assert "Hermitian" in sym.reason


def _site20_segment(role, block):
    # pi[n] = 0.2^n I up to site 19, so pi[20] has norm near 1e-14: a test
    # with an absolute floor does not see what breaks there
    eye = np.eye(2, dtype=complex)
    return QmcModel(topology=segment(24), mode="abstract",
                    blocks={"A": Block(0.5 * eye), "B": Block(0.1 * eye), "C": Block(0.1 * eye)},
                    overrides={20: {role: Block(np.asarray(block, dtype=complex))}},
                    substochastic=True)


@pytest.mark.parametrize(
    "role, block",
    [("C", [[0.1, 0.05], [0, 0.1]]), ("B", [[0.1, 0.3], [0, 0.1]])],
    ids=["tiny-pi-not-hermitian", "tiny-pi-b-not-hermitian"],
)
def test_symmetrizer_checks_do_not_depend_on_the_scale_of_pi(role, block):
    sym = find_symmetrizer(_site20_segment(role, block), 23)
    assert np.linalg.norm(sym.pi[20], 2) < 1e-13
    assert not sym.success and sym.fail_index == 20


def _graded_segment(b20):
    # C = diag(0.25, 0.1) grades pi[n] = diag(0.5^n, 0.2^n), so pi[20] / ||pi[20]||
    # has least eigenvalue 1.1e-8; the defective B_20 is symmetrized by no
    # positive pi, though pi B_20 - (pi B_20)* is only 5.5e-10 of ||pi[20]||
    eye = np.eye(2, dtype=complex)
    return QmcModel(topology=segment(24), mode="abstract",
                    blocks={"A": Block(0.5 * eye), "B": Block(0.1 * eye),
                            "C": Block(np.diag([0.25, 0.1]).astype(complex))},
                    overrides={20: {"B": Block(np.asarray(b20, dtype=complex))}},
                    substochastic=True)


@pytest.mark.parametrize(
    "b20, verdict",
    [([[0.1, 0], [0.05, 0.1]], (False, 20)), ([[10, 0], [0.01, 10]], (False, 20)),
     ([[0.1, 0], [0, 0.2]], (True, None))],
    ids=["defective", "defective-large-b", "diagonal"],
)
def test_symmetrizer_reads_pi_b_in_the_metric_of_pi(b20, verdict):
    sym = find_symmetrizer(_graded_segment(b20), 23)
    p = sym.pi[20] / np.linalg.norm(sym.pi[20], 2)
    assert np.linalg.eigvalsh(p)[0] < 2e-8
    assert (sym.success, sym.fail_index) == verdict


def test_symmetrizer_zero_product_is_not_positive_definite():
    # C_1 = 0 makes pi[1] = 0, which has no scale to divide by
    sym = find_symmetrizer(scalar_chain(0.5, 0.0, topology=segment(3)), 4)
    assert (sym.success, sym.fail_index, sym.defect) == (False, 1, 0.0)
    assert sym.reason == "pi[1] is not positive definite"


def _witness_verdict(model, sym):
    """(success, fail_index) of the per-site Cholesky witness on the same
    products: p = pi[n] / ||pi[n]||_2 Hermitian, p = r* r, and r B_n r^-1
    Hermitian, which holds exactly when p B_n is."""
    for n in sorted(sym.pi, key=abs):
        p = sym.pi[n] / np.linalg.norm(sym.pi[n], 2)
        if np.linalg.norm(p - p.conj().T, 2) > 1e-10:
            return False, n
        try:
            r = np.linalg.cholesky(0.5 * (p + p.conj().T)).conj().T
        except np.linalg.LinAlgError:
            return False, n
        w = r @ model.block(n, "B") @ np.linalg.inv(r)
        if np.linalg.norm(w - w.conj().T, 2) > 1e-9 * max(1.0, np.linalg.norm(w, 2)):
            return False, n
    return True, None


def _broken_at(model, site, role, rng):
    """The model with one block at ``site`` moved off by 1e-3."""
    overrides = {s: dict(ov) for s, ov in model.overrides.items()}
    block = model.block(site, role)
    kick = 1e-3 * (rng.normal(size=block.shape) + 1j * rng.normal(size=block.shape))
    overrides.setdefault(site, {})[role] = Block(block + kick)
    return dataclasses.replace(model, overrides=overrides)


def _symmetrizer_chains():
    rng = np.random.default_rng(32)
    chains = []
    for k in range(12):
        num_sites = int(rng.integers(2, 7))
        m = models.random_symmetrizable_segment(rng, num_sites=num_sites,
                                                block_dim=int(rng.integers(1, 5)))
        site = int(rng.integers(1, num_sites))
        chains += [pytest.param(m, num_sites - 1, id=f"random{k}"),
                   pytest.param(_broken_at(m, site, "B", rng), num_sites - 1, id=f"random{k}-B{site}"),
                   pytest.param(_broken_at(m, site, "C", rng), num_sites - 1, id=f"random{k}-C{site}")]
    bundled = {
        "three-site": models.three_site_absorbing_oqw(),
        "corner-coin": models.corner_coin_oqw(0.3),
        "hop-segment": models.uniform_hopping_segment(24, 0.4, 0.6, 0.5, 0.25, 0.2),
        "hop-half-line": models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.3),
        "hop-line": models.uniform_hopping_line(0.4, 0.5, 0.5, 0.35, 0.25),
        "flip": models.flip_channel_half_line(0.7, 0.8),
        "coin-line": models.diagonal_coin_line_walk(),
        "shear": models.shear_coin_segment(),
        "lazy-shear": models.five_site_lazy_shear_chain(),
        "tilted": models.tilted_shear_half_line(),
        "tilted-line": models.tilted_shear_line(),
        "balanced": models.balanced_shift_half_line(),
    }
    # products graded by 2^n and 2.5^n, each with one B kicked
    graded = {"coin-line-B6": (_broken_at(models.diagonal_coin_line_walk(), 6, "B", rng), 14),
              "graded-B20": (_broken_at(_graded_segment(0.1 * np.eye(2)), 20, "B", rng), 23)}
    return (chains + [pytest.param(m, 8, id=name) for name, m in bundled.items()]
            + [pytest.param(m, n, id=name) for name, (m, n) in graded.items()])


@pytest.mark.parametrize("model, n_max", _symmetrizer_chains())
def test_symmetrizer_matches_the_per_site_witness(model, n_max):
    sym = find_symmetrizer(model, n_max)
    assert (sym.success, sym.fail_index) == _witness_verdict(model, sym)


# -- finite spectra ---------------------------------------------------


def test_finite_weights_sum_and_moments(rng):
    m = models.random_symmetrizable_segment(rng, num_sites=4, block_dim=3)
    w = finite_spectrum_weights(m)
    assert np.abs(w.total() - np.eye(3)).max() < 1e-8
    t = truncate(m, 0, 3).matrix
    power = np.eye(t.shape[0], dtype=complex)
    for n in range(7):
        assert np.abs(w.moment(n) - power[:3, :3]).max() < 1e-8
        power = t @ power
    # nodes of a symmetrizable chain are real, weights Hermitian PSD
    for p in w.points:
        assert abs(p.node.imag) < 1e-8
        assert np.abs(p.weight - p.weight.conj().T).max() < 1e-8
        assert np.linalg.eigvalsh(0.5 * (p.weight + p.weight.conj().T)).min() > -1e-8


def test_grouping_refusal_band():
    b = Block(np.diag([0.3, 0.3 + 5e-8]).astype(complex))
    m = QmcModel(
        topology=segment(1),
        mode="abstract",
        blocks={"B": b},
        substochastic=True,
    )
    with pytest.raises(SpectralError, match="ambiguous"):
        finite_spectrum_weights(m)


def double_root_weight(model, node):
    """Derivative-form residue for a double node: the derivative of
    -(node - z)^2 ((Phi - z I)^{-1})_{00} at the node, by central
    difference with step 1e-5, a cross-check on the residue weights."""
    mat = truncate(model, 0, model.topology.num_sites - 1).matrix
    d = model.block_dim
    S = mat.shape[0]
    rhs = np.zeros((S, d), dtype=complex)
    rhs[:d] = np.eye(d)

    def g(z):
        corner = np.linalg.solve(mat - z * np.eye(S), rhs)[:d]
        return -((node - z) ** 2) * corner

    h = 1e-5
    return (g(node + h) - g(node - h)) / (2.0 * h)


def test_double_root_derivative_cross_check():
    m = models.uniform_hopping_segment(5, 0.5, 0.5, 0.5, 0.5, 0.5)
    w = finite_spectrum_weights(m)
    for p in w.points[:3]:
        if p.multiplicity == 2:
            alt = double_root_weight(m, p.node)
            assert np.abs(alt - p.weight).max() < 1e-8


def dense_contour_weights(model, nodes, quad_points=64):
    """Corner-block residues at the given nodes by one dense solve of the
    assembled segment per contour point, on radii min(1e-4, gap/10)."""
    mat = truncate(model, 0, model.topology.num_sites - 1).matrix
    d = model.block_dim
    eye = np.eye(mat.shape[0])
    dist = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(dist, np.inf)
    out = []
    for node, gap in zip(nodes, dist.min(axis=1)):
        radius = min(1e-4, gap / 10.0)
        acc = np.zeros((d, d), dtype=complex)
        for k in range(quad_points):
            z = node + radius * np.exp(2j * np.pi * k / quad_points)
            acc += (z - node) * np.linalg.solve(z * eye - mat, eye[:, :d])[:d]
        out.append(acc / quad_points)
    return np.array(out)


@pytest.mark.parametrize(
    "model, tol",
    [
        (models.uniform_hopping_segment(24, 0.4, 0.6, 0.5, 0.25, 0.2), 1e-12),
        (models.five_site_lazy_shear_chain(), 1e-9),
    ],
    ids=["hopping_S24", "five_site"],
)
def test_finite_weights_match_dense_contour_oracle(model, tol):
    w = finite_spectrum_weights(model)
    nodes = w.nodes()
    dist = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-3  # well-separated clusters
    expect = dense_contour_weights(model, nodes)
    assert np.abs(w.weights() - expect).max() < tol


@pytest.mark.parametrize("make", [
    models.three_site_absorbing_oqw,
    models.five_site_lazy_shear_chain,
    lambda: models.uniform_hopping_segment(8, 0.4, 0.5, 0.45, 0.2, 0.15),
])
def test_finite_weights_read_no_block_table(monkeypatch, make):
    # both routes read the assembled window alone, with the gate open and
    # closed; closed, every weight is the corner of its Riesz projector,
    # which the dense contour confirms
    m = make()
    for name in ("block_table", "schur_sweep"):
        monkeypatch.setattr(spectral, name, lambda *a, **kw: pytest.fail("swept"))
    w = finite_spectrum_weights(m)
    monkeypatch.setattr(spectral, "RESIDUE_KAPPA_MAX", 0.0)
    projector = finite_spectrum_weights(m)
    assert len(w.points) > 1 and np.array_equal(w.nodes(), projector.nodes())
    expect = dense_contour_weights(m, projector.nodes())
    assert np.abs(projector.weights() - expect).max() <= 1e-11 * np.abs(expect).max()


# -- transforms -------------------------------------------------------


def test_truncated_single_site_is_inverse_z():
    b = Block(np.zeros((2, 2), dtype=complex))
    m = QmcModel(
        topology=segment(1),
        mode="abstract",
        blocks={"B": b},
        substochastic=True,
    )
    ev = TruncatedStieltjes(m)
    for z in (2.0, 1.0 + 1j):
        res = ev.evaluate(z)
        assert np.abs(res.value - np.eye(2) / z).max() < 1e-14
        assert res.residual < 1e-12


def test_flip_channel_closed_form_transform():
    p, q = 0.7, 0.8
    m = models.flip_channel_half_line(p, q)
    U = models.flip_channel_basis()
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])

    def closed(z):
        d = 2.0 * (z - np.sqrt(z * z - xi + 0j)) / xi
        return U @ np.diag(d) @ U.T

    tr = TruncatedStieltjes(m, window=800)
    for z in (1.2, 2.0, 1 + 0.5j):
        assert np.abs(tr.evaluate(z).value - closed(z)).max() < 1e-7


def test_homogeneous_scalar_classical_value():
    m = scalar_chain(0.5, 0.5)
    ev = HomogeneousStieltjes.from_model(m)
    for z in (1.3, 2.0, 4.0):
        expect = 2.0 * (z - np.sqrt(z * z - 1.0))
        assert ev(z)[0, 0].real == pytest.approx(expect, abs=1e-10)


def test_homogeneous_residual_and_cross_method():
    m = models.tilted_shear_half_line()
    ho = HomogeneousStieltjes.from_model(m)
    res = ho.evaluate(1.2)
    assert res.residual < 1e-12
    tr = TruncatedStieltjes(m, window=400)
    assert np.abs(ho.evaluate(1.1).value - tr.evaluate(1.1).value).max() < 1e-7
    assert np.abs(ho.evaluate(1.5).value - tr.evaluate(1.5).value).max() < 1e-8


def test_corner_zero_is_identity_and_forms_agree():
    p, q = 0.7, 0.8
    m = models.flip_channel_half_line(p, q)
    inner = HomogeneousStieltjes.from_model(m)
    co0 = CornerStieltjes(inner, np.zeros((3, 3)))
    z = 1.4
    assert np.abs(co0(z) - inner(z)).max() < 1e-10

    b_corner = m.blocks["A"].matrix
    dette = CornerStieltjes(inner, b_corner)
    pert = CornerStieltjes(
        inner, b_corner, a0=m.blocks["A"].matrix, c=m.blocks["C"].matrix
    )
    assert np.abs(dette(z) - pert(z)).max() < 1e-10


def test_corner_transform_diagonal_entries():
    p, q = 0.7, 0.8
    m = models.flip_channel_half_line(p, q, corner="up")
    inner = HomogeneousStieltjes.from_model(m)
    co = CornerStieltjes(
        inner, m.overrides[0]["B"].matrix, a0=m.block(0, "A"), c=m.block(1, "C")
    )
    z = 1.5
    U = models.flip_channel_basis()
    diag = np.diag(U.T @ co(z) @ U)
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])
    bvals = np.array([1.0, 1 - 2 * q, 2 * q - 1])
    expect = 2 * (-z + bvals + np.sqrt(z * z - xi)) / (2 * bvals * z - xi - bvals**2)
    assert np.abs(diag - expect).max() < 1e-8
    # cross-check against direct truncation of the corner model
    tr = TruncatedStieltjes(m, window=800)
    assert np.abs(co(z) - tr.evaluate(z).value).max() < 1e-8


def test_corner_point_mass_probe():
    p, q = 0.4, 0.2
    m = models.flip_channel_half_line(p, q, corner="up")
    inner = HomogeneousStieltjes.from_model(m)
    co = CornerStieltjes(
        inner, m.overrides[0]["B"].matrix, a0=m.block(0, "A"), c=m.block(1, "C")
    )
    U = models.flip_channel_basis()
    jump_size = 2 * (p - q) / (1 - 2 * q)
    expected = jump_size * np.outer(U[:, 2], U[:, 2])
    probe = residue_probe(co, p + q - 1)
    assert np.abs(probe - expected).max() < 1e-6


def test_folded_decoupled_reduces_to_plus():
    m = models.diagonal_coin_line_walk()
    assert not m.overrides
    # a zero C_0 cuts the move from site 0 to -1
    zero = Block(np.zeros((4, 4), dtype=complex))
    decoupled = dataclasses.replace(m, overrides={0: {"C": zero}}, substochastic=True)
    plus = spectral.transform_evaluator(plus_model(m), "auto")
    z = 1.3
    p11 = FoldedTransformEvaluator(decoupled, 0).evaluate(z).value
    assert np.abs(p11 - plus(z)).max() < 1e-10


def test_folded_closed_form_diagonal_walk():
    m = models.diagonal_coin_line_walk()
    z = 1.05
    p11 = FoldedTransformEvaluator(m, 0).evaluate(z).value
    r = np.array([1 / 3, 1 / np.sqrt(6), 1 / np.sqrt(6), 0.5])
    l = np.array([2 / 3, 1 / np.sqrt(3), 1 / np.sqrt(3), 0.5])
    expect = np.diag(1.0 / np.sqrt(z * z - 4 * r * l))
    assert np.abs(p11 - expect).max() < 1e-7
    # the trace against diag(a, 1-a) splits into the two scalar terms
    a = 0.35
    trace = a * p11[0, 0].real + (1 - a) * p11[3, 3].real
    assert trace == pytest.approx(
        a / np.sqrt(z * z - 8 / 9) + (1 - a) / np.sqrt(z * z - 1), abs=1e-7
    )


def test_folded_hopping_chain_shape():
    k = 0.2
    s = 2 * k
    r = ((1 - 2 * k) - np.sqrt(1 - 4 * k)) / 2
    t = 1 - s - r
    m = models.uniform_hopping_line(s, 0.5, 0.5, r, t)
    z = 1.2
    p11 = FoldedTransformEvaluator(m, 0).evaluate(z).value
    # in the hold-block eigenbasis the s = 2k component is 1/sqrt(z(z-4k))
    evals, vecs = np.linalg.eigh(m.block(0, "B").real)
    diag = np.diag(vecs.T @ p11.real @ vecs)
    expect = 1.0 / np.sqrt(z * (z - 4 * k))
    for ev, got in zip(evals, diag):
        if abs(ev - s) < 1e-12:
            assert got == pytest.approx(expect, abs=1e-7)
    # cross-check the whole block against a deep line truncation
    L = 300
    tl = truncate(m, -L, L)
    S = tl.matrix.shape[0]
    rhs = np.zeros((S, 4))
    rhs[L * 4 : (L + 1) * 4] = np.eye(4)
    sol = np.linalg.solve(z * np.eye(S) - tl.matrix, rhs)
    assert np.abs(p11 - sol[L * 4 : (L + 1) * 4]).max() < 1e-7


def test_boundary_density_recovery():
    p, q = 0.7, 0.8
    m = models.flip_channel_half_line(p, q)
    ev = HomogeneousStieltjes.from_model(m)
    U = models.flip_channel_basis()
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])
    for x in (-0.7, -0.2, 0.1, 0.5, 0.8):
        val = ev.near_axis(x, 1e-6)
        dens = -np.diag(U.T @ val.imag @ U) / np.pi
        expect = np.where(xi > x * x, 2 * np.sqrt(np.abs(xi - x * x)) / (np.pi * xi), 0.0)
        assert np.abs(dens - expect).max() < 1e-3


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the continuation certifies only the residual, so on a "
                          "non-symmetrizable interior it lands on another branch "
                          "(ROADMAP item 12)")
def test_near_axis_follows_the_transform_on_a_nonsymmetrizable_interior():
    m = models.tilted_shear_half_line()
    ev = HomogeneousStieltjes.from_model(m)
    for x, delta in ((0.2, 1e-2), (-0.6, 1e-3)):
        window = corner_resolvent(m, complex(x, delta), 4000)
        gap = np.linalg.norm(ev.near_axis(x, delta) - window, 2)
        assert gap <= 1e-6 * max(1.0, np.linalg.norm(window, 2))


def test_evaluator_call_enforces_tolerance(monkeypatch):
    m = models.tilted_shear_half_line()
    ev = HomogeneousStieltjes.from_model(m)
    # off the axis, where the fixed point leaves a residual above 0
    z = 1.4 + 0.3j
    assert 0 < ev.evaluate(z).residual < 1e-10
    monkeypatch.setattr(HomogeneousStieltjes, "tolerance", 0.0)
    with pytest.raises(ConvergenceError):
        ev(z)


# -- stacked, continued truncation ladder -----------------------------

def _override_above_first_window():
    # window 8 with an override at site 12: the first window lies below
    # the homogeneous tail, the second reaches past it
    rng = np.random.default_rng(12)

    def blk():
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return Block(0.25 * m / np.linalg.norm(m, 2))

    return QmcModel(
        topology=half_line(), mode="abstract",
        blocks={role: blk() for role in "ABC"},
        overrides={12: {"B": blk(), "C": blk()}}, substochastic=True,
    )


CONTINUED_CHAINS = {
    "up_corner_flip": (lambda: models.flip_channel_half_line(0.7, 0.8, corner="up"), 50),
    "hopping": (lambda: models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.3), 50),
    "override_at_12": (_override_above_first_window, 8),
}


def _assert_close_to_fresh_sweep(got, m, zs, w):
    # rounding of the corner grows with the run length and the corner's
    # norm in both routes: on the balanced hopping chain a fresh sweep at
    # window 800 is itself 4.8e-14 off a 40-digit sweep at |ref| = 3.3
    ref = corner_resolvent(m, zs, w)
    norm = np.linalg.norm(ref, 2, axis=(-2, -1))
    err = np.linalg.norm(got - ref, 2, axis=(-2, -1))
    assert np.all(err <= 1e-15 * w * np.maximum(1.0, norm) * norm)


@pytest.mark.parametrize("name", sorted(CONTINUED_CHAINS))
def test_continued_corner_stacks_equal_fresh_sweeps(name):
    make, w0 = CONTINUED_CHAINS[name]
    m = make()
    # ladder points and an off-axis point in one stack
    zs = np.array(list(DEFAULT_LADDER) + [1.5 + 0.3j])
    windows = [w0 * 2**k for k in range(4)]
    stacks = list(_continued_corners(m, zs, windows))
    assert len(stacks) == len(windows)
    for w, got in zip(windows, stacks):
        _assert_close_to_fresh_sweep(got, m, zs, w)


def test_continued_corners_keep_only_sent_points():
    m = _override_above_first_window()
    zs = np.array([1.1, 1.5 + 0.3j, 2.0])
    sweep = _continued_corners(m, zs, [8, 16, 32])
    next(sweep)
    keep = np.array([True, False, True])
    _assert_close_to_fresh_sweep(sweep.send(keep), m, zs[keep], 16)
    _assert_close_to_fresh_sweep(next(sweep), m, zs[keep], 32)


def _homogeneous_port(m, zs, n):
    # port of n homogeneous sites glued from the ports of its binary digits
    h = max(m.overrides, default=0) + 1
    a, b, c = m.block(h, "A"), m.block(h, "B"), m.block(h + 1, "C")
    powers = [np.stack([np.linalg.inv(zs[:, None, None] * np.eye(b.shape[0]) - b)] * 4)]
    while 2 ** len(powers) <= n:
        powers.append(spectral._glue(powers[-1], powers[-1], a, c))
    port, tail = None, None
    for j, power in enumerate(powers):
        if n >> j & 1:
            port = power if port is None else spectral._glue(port, power, a, c)
            tail = spectral._close(power, tail, a, c)
    return h, port, tail


@pytest.mark.parametrize("name", ["hopping", "flip"])
@pytest.mark.parametrize("n", range(1, 41))
def test_glued_ports_equal_dense_corner_blocks(name, n):
    m = {
        "hopping": models.uniform_hopping_half_line(0.4, 0.5, 0.5, 0.3, 0.3),
        "flip": models.flip_channel_half_line(0.75, 0.65),
    }[name]
    zs = np.array([1.5 + 0.3j, -0.4 + 0.6j, 0.9 + 0.2j, 0.3 - 1.1j])
    h, port, tail = _homogeneous_port(m, zs, n)
    d = m.block_dim
    phi = truncate(m, h, h + n - 1).matrix
    for k, z in enumerate(zs):
        dense = np.linalg.inv(z * np.eye(n * d) - phi)
        first, last = slice(0, d), slice((n - 1) * d, n * d)
        want = [dense[first, first], dense[first, last], dense[last, first], dense[last, last]]
        scale = max(1.0, np.abs(dense).max())
        for got, ref in zip(port[:, k], want):
            assert np.abs(got - ref).max() <= 1e-13 * scale
        # closing the digits one by one gives the same first-first block
        assert np.abs(tail[k] - want[0]).max() <= 1e-13 * scale


def test_continued_corner_accuracy_against_40_digit_sweep():
    mpmath = pytest.importorskip("mpmath")
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    z, w = 1 + 1e-7, 800
    with mpmath.workdps(40):
        def mp(x):
            return mpmath.matrix(x.tolist())

        a, b, c = ([mp(m.block(k, role)) for k in (0, 1)] for role in "ABC")
        eye = mpmath.eye(m.block_dim)
        y = None
        for k in range(w - 1, -1, -1):
            pivot = z * eye - b[min(k, 1)]
            y = (pivot if y is None else pivot - c[1] * y * a[min(k, 1)]) ** -1
        exact = np.array(y.tolist(), dtype=complex)
    ports = next(_continued_corners(m, np.array([z], dtype=complex), [w]))[0]
    sweep = corner_resolvent(m, z, w)
    scale = np.linalg.norm(exact, 2)
    # measured: the site-by-site sweep 6.1e-12 off, the ports 2.3e-11
    assert np.linalg.norm(sweep - exact, 2) <= 1e-10 * scale
    assert np.linalg.norm(ports - exact, 2) <= 1e-10 * scale


def test_continued_corners_raise_on_non_finite_ports():
    # at an exactly singular one-site pivot z I - B only that point is named
    m = models.flip_channel_half_line(0.7, 0.8)
    with pytest.raises(np.linalg.LinAlgError, match=r"z in \[0j\] on window \[0, 7\]"):
        list(TruncatedStieltjes(m, window=8).ladder([1.5 + 0.3j, 0.0]))


def test_truncated_numerically_singular_window_raises_not_nan(monkeypatch):
    # inside the spectrum of this chain the truncated operator is
    # numerically singular (dense condition number 4e28 at window 800):
    # the last-first corner of a run grows like 10^(0.106 n), so the ports
    # of window 12800 overflow, which must raise rather than return NaN
    m = models.flip_channel_half_line(0.75, 0.65)
    z = 0.2 + 0.05j
    for doublings in (1, 2, 3):
        monkeypatch.setattr(spectral, "TRUNC_MAX_DOUBLINGS", doublings)
        res = TruncatedStieltjes(m, window=800).evaluate(z)
        assert np.isfinite(res.value).all()
        assert res.residual > 1.0
    monkeypatch.setattr(spectral, "TRUNC_MAX_DOUBLINGS", 4)
    ev = TruncatedStieltjes(m, window=800)
    with pytest.raises(np.linalg.LinAlgError, match=r"\(0\.2\+0\.05j\)\] on window \[0, 12799\]"):
        ev.evaluate(z)


@pytest.mark.parametrize("corner", [None, "up"])
def test_truncated_ladder_equals_one_point_evaluations(corner):
    m = models.flip_channel_half_line(0.7, 0.8, corner=corner)
    ev = TruncatedStieltjes(m, window=100)
    points = list(DEFAULT_LADDER) + [1.5 + 0.3j]
    rungs = list(ev.ladder(points))
    assert len(rungs) == len(points)
    for (z, res), point in zip(rungs, points):
        assert z is point
        one = ev.evaluate(point)
        assert np.array_equal(res.value, one.value)
        assert res.residual == one.residual
        assert res.method == "truncated"
    # the off-axis point converges, the rungs nearest 1 do not
    assert rungs[-1][1].residual <= ev.tolerance
    assert rungs[-2][1].residual > ev.tolerance


def test_truncated_point_stops_at_its_first_converged_window():
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    ev = TruncatedStieltjes(m, window=50)
    windows = [50 * 2**k for k in range(spectral.TRUNC_MAX_DOUBLINGS + 1)]
    for z in (1.5 + 0.3j, 1.0 + 1e-4):
        res = ev.evaluate(z)
        values = [v[0] for v in _continued_corners(m, np.array([z]), windows)]
        steps = [float(np.linalg.norm(b - a, 2)) for a, b in zip(values, values[1:])]
        stop = next((k for k, s in enumerate(steps) if s <= ev.tolerance), len(steps) - 1)
        assert np.array_equal(res.value, values[stop + 1])
        assert res.residual == steps[stop]
        _assert_close_to_fresh_sweep(res.value, m, z, windows[stop + 1])


def test_truncated_segment_ladder_is_one_sweep_over_all_sites():
    m = models.uniform_hopping_segment(6, 0.5, 0.5, 0.5, 0.25, 0.25)
    points = [1.5 + 0.3j, 1.01, 2.0]
    rungs = list(TruncatedStieltjes(m, window=2).ladder(points))
    want = corner_resolvent(m, np.array(points, dtype=complex), 6)
    for (z, res), point, value in zip(rungs, points, want):
        assert z is point
        assert np.array_equal(res.value, value)
        assert res.residual == 0.0


@pytest.mark.parametrize("window", [50, 800])
def test_truncated_ladder_glues_logarithmically_many_ports(monkeypatch, window):
    m = models.flip_channel_half_line(0.7, 0.8, corner="up")
    doublings = spectral.TRUNC_MAX_DOUBLINGS
    h = max(m.overrides) + 1
    swept, glues, closes = [], [], []

    def counting(calls, f):
        def wrapped(*a, **kw):
            calls.append(1)
            return f(*a, **kw)
        return wrapped

    def sweep(table, lo, sites, **kw):
        swept.append(len(sites))
        return schur_sweep(table, lo, sites, **kw)

    monkeypatch.setattr(spectral, "schur_sweep", sweep)
    monkeypatch.setattr(spectral, "_glue", counting(glues, spectral._glue))
    monkeypatch.setattr(spectral, "_close", counting(closes, spectral._close))
    monkeypatch.setattr(spectral, "corner_resolvent",
                        lambda *a, **k: pytest.fail("restarted corner sweep"))
    ev = TruncatedStieltjes(m, window=window)
    rungs = list(ev.ladder(DEFAULT_LADDER))
    # the rungs nearest 1 never converge, so every window is built
    assert rungs[-1][1].residual > ev.tolerance
    last = window * 2**doublings
    # only the h head sites are swept, once per window
    assert swept == [h] * (doublings + 1)
    # one self-glue per power of two up to the last window's new half,
    # at most one close per binary digit of each window's new tail sites
    assert len(glues) == int(np.log2(last)) - 1
    assert len(closes) <= (doublings + 1) * np.log2(last)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the glued ports drift from a fresh sweep on a non-normal "
                          "interior (ROADMAP item 20)")
def test_truncated_certified_value_equals_its_window():
    # windows 400 and 800 agree, so the value stops at window 800 with
    # residual 0.0; yet it is 2.65 (relative) off that window's corner.
    # The closure of this interior is the limit of its windows here
    # (test_off_axis_closure_is_the_window_limit)
    m = models.tilted_shear_half_line()
    z = -0.5 + 0.2j
    ev = TruncatedStieltjes(m, window=400)
    res = ev.evaluate(z)
    want = corner_resolvent(m, z, 800)
    err = np.linalg.norm(res.value - want, 2) / np.linalg.norm(want, 2)
    assert res.residual > ev.tolerance or err <= 1e-12


def test_truncated_takes_no_tolerance_or_doubling_keywords():
    m = models.flip_channel_half_line(0.7, 0.8)
    for kw in ({"tolerance": 1.0}, {"max_doublings": 1}):
        with pytest.raises(TypeError):
            TruncatedStieltjes(m, **kw)
    assert TruncatedStieltjes(m).tolerance == 1e-8


@pytest.mark.parametrize("kw, match", [
    ({"window": 0}, "window"),
    ({"window": -3}, "window"),
])
def test_truncated_rejects_empty_window_and_no_doubling(kw, match):
    m = models.flip_channel_half_line(0.7, 0.8)
    with pytest.raises(ValueError, match=match):
        TruncatedStieltjes(m, **kw)


def test_truncated_rejects_a_chain_unbounded_below():
    with pytest.raises(ValueError, match="bounded from below"):
        TruncatedStieltjes(models.diagonal_coin_line_walk())
