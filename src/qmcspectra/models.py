"""A small zoo of concrete chains used throughout the tests and scripts.

Every factory returns a validated :class:`~qmcspectra.chain_model.QmcModel`.
The zoo covers the three topologies, full and compact representations,
trace-preserving and substochastic boundaries, symmetrizable and
non-symmetrizable block families.
"""

from __future__ import annotations

import numpy as np

from .chain_model import (
    QmcModel,
    block_from_kraus,
    block_from_matrix,
    half_line,
    line,
    segment,
)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def _model(topology, mode, blocks, overrides=None, substochastic=False):
    m = QmcModel(topology=topology, mode=mode, blocks=blocks,
                 overrides=overrides or {}, substochastic=substochastic)
    m.validate()
    return m


def three_site_absorbing_oqw() -> QmcModel:
    """Three-site open quantum walk with absorbing mass at both edges.

    Interior columns are trace preserving (A*A + C*C = I) but the walk
    leaks at sites 0 and 2, so the model is substochastic.
    """
    a = 0.5 * np.array([[-1.0, 0.0], [1.0, SQ2]])
    c = 0.5 * np.array([[1.0, -SQ2], [-1.0, 0.0]])
    return _model(
        segment(3),
        "full",
        {"A": block_from_kraus([a]), "C": block_from_kraus([c])},
        substochastic=True,
    )


def corner_coin_oqw(gamma: float) -> QmcModel:
    """Half-line OQW whose first column carries a tunable coin.

    The first-passage block from site 0 to site 1 depends only on the
    corner blocks, so the interior is filled with the balanced triple
    A = B = C = I/sqrt(3).
    """
    k = np.sqrt(2.0 + 2.0 * gamma**2)
    b0 = np.array([[-1.0, SQ2 * gamma], [0.0, 1.0]]) / k
    a0 = np.array([[SQ2 * gamma, 1.0], [1.0, 0.0]]) / k
    free = np.eye(2) / SQ3
    blk = block_from_kraus([free])
    return _model(
        half_line(),
        "full",
        {"A": blk, "B": blk, "C": blk},
        overrides={0: {"A": block_from_kraus([a0]), "B": block_from_kraus([b0])}},
        substochastic=True,
    )


def exchange_hold_block(s: float, a: float, b: float):
    """Kraus pair for the hold block used by the uniform-hopping chains:
    a reflection-like effect plus a multiple of the identity."""
    v1 = np.sqrt(s) * np.array([[a, b], [b, -a]])
    v2 = np.sqrt(s * (1.0 - a**2 - b**2)) * np.eye(2)
    return [v1, v2]


def _uniform_hopping(topology, s, a, b, r, t, substochastic: bool) -> QmcModel:
    return _model(
        topology,
        "full",
        {
            "A": block_from_kraus([np.sqrt(t) * np.eye(2)]),
            "B": block_from_kraus(exchange_hold_block(s, a, b)),
            "C": block_from_kraus([np.sqrt(r) * np.eye(2)]),
        },
        substochastic=substochastic,
    )


def uniform_hopping_segment(
    num_sites: int, s: float, a: float, b: float, r: float, t: float
) -> QmcModel:
    """Segment chain with scalar hops t (up), r (down) and an exchange
    hold block of weight s.  Trace preserving in the interior only when
    r + s + t = 1."""
    return _uniform_hopping(segment(num_sites), s, a, b, r, t, True)


def uniform_hopping_half_line(s, a, b, r, t) -> QmcModel:
    return _uniform_hopping(half_line(), s, a, b, r, t, True)


def uniform_hopping_line(s, a, b, r, t) -> QmcModel:
    return _uniform_hopping(line(), s, a, b, r, t, abs(r + s + t - 1.0) > 1e-12)


def flip_channel_blocks(p: float, q: float, mode: str = "compact"):
    """Up/down blocks built from phase and swap effects."""
    r1 = np.sqrt(q / 2.0) * np.diag([1.0, -1.0])
    r2 = np.sqrt((1.0 - q) / 2.0) * np.array([[0.0, 1.0], [1.0, 0.0]])
    l1 = np.sqrt(p / 2.0) * np.eye(2)
    l2 = np.sqrt((1.0 - p) / 2.0) * np.array([[0.0, 1.0], [1.0, 0.0]])
    up = block_from_kraus([r1, r2], mode)
    down = block_from_kraus([l1, l2], mode)
    return up, down


def flip_channel_half_line(p: float, q: float, corner=None, mode: str = "compact") -> QmcModel:
    """Half-line chain with flip-type up/down channels.

    Without a corner block the first column leaks half its mass per step
    (substochastic).  ``corner="up"`` reuses the up block at (0, 0), which
    restores trace preservation; any other corner raises.  All effects
    are real and symmetric, so the chain exists in both the compact
    3-dimensional and the full 4-dimensional representation.
    """
    if corner is not None and not (isinstance(corner, str) and corner == "up"):
        raise ValueError(f"corner must be None or 'up', not {corner!r}")
    up, down = flip_channel_blocks(p, q, mode)
    return _model(
        half_line(),
        mode,
        {"A": up, "C": down},
        overrides={0: {"B": up}} if corner else {},
        substochastic=corner is None,
    )


def flip_channel_basis() -> np.ndarray:
    """Orthogonal matrix diagonalizing both flip-channel blocks."""
    return np.array(
        [[1.0, 0.0, -1.0], [0.0, SQ2, 0.0], [1.0, 0.0, 1.0]]
    ) / SQ2


def diagonal_coin_line_walk() -> QmcModel:
    """Homogeneous OQW on the integer line with commuting diagonal coins."""
    r = np.diag([1.0 / SQ3, 1.0 / SQ2])
    lft = np.diag([SQ2 / SQ3, 1.0 / SQ2])
    return _model(
        line(),
        "full",
        {"A": block_from_kraus([r]), "C": block_from_kraus([lft])},
    )


def shear_coin_segment(num_sites: int = 3, mode: str = "full") -> QmcModel:
    """Segment OQW with non-commuting shear coins.

    The product A0 C1 is not Hermitian, so no positive weight matrix
    exists; the chain is the standard non-symmetrizable example.
    """
    a = np.array([[1.0, 1.0], [0.0, 1.0]]) / SQ3
    c = np.array([[1.0, 0.0], [-1.0, 1.0]]) / SQ3
    return _model(
        segment(num_sites),
        mode,
        {"A": block_from_kraus([a], mode), "C": block_from_kraus([c], mode)},
        substochastic=True,
    )


def five_site_lazy_shear_chain() -> QmcModel:
    """Five-site compact-mode chain with two-effect shear hops and a lazy
    hold on the second internal component."""
    s5 = np.sqrt(5.0) / 5.0
    b0 = s5 * np.diag([0.0, 1.0])
    c1 = s5 * np.eye(2)
    c2 = s5 * np.diag([0.0, 1.0])
    a1 = s5 * np.array([[1.0, 0.0], [-1.0, 1.0]])
    a2 = s5 * np.array([[1.0, 0.0], [1.0, 1.0]])
    return _model(
        segment(5),
        "compact",
        {
            "A": block_from_kraus([a1, a2], "compact"),
            "B": block_from_kraus([b0], "compact"),
            "C": block_from_kraus([c1, c2], "compact"),
        },
        substochastic=True,
    )


def tilted_shear_blocks():
    s7 = 1.0 / np.sqrt(7.0)
    r1 = s7 * np.array([[1.0, 0.0], [-1.0, SQ3]])
    r2 = s7 * np.array([[1.0, 0.0], [1.0, SQ3]])
    l1 = s7 * np.array([[SQ3, 0.0], [0.0, 1.0]])
    up = block_from_kraus([r1, r2], "compact")
    down = block_from_kraus([l1], "compact")
    return up, down


def tilted_shear_half_line(corner: bool = False) -> QmcModel:
    """Compact half-line chain with a two-effect up hop and single down
    hop; ``corner=True`` adds the down block at (0, 0), which makes the
    chain trace preserving."""
    up, down = tilted_shear_blocks()
    overrides = {0: {"B": down}} if corner else {}
    return _model(
        half_line(),
        "compact",
        {"A": up, "C": down},
        overrides=overrides,
        substochastic=not corner,
    )


def tilted_shear_line() -> QmcModel:
    up, down = tilted_shear_blocks()
    return _model(line(), "compact", {"A": up, "C": down})


def balanced_shift_half_line(corner: bool = False) -> QmcModel:
    """Compact half-line chain with balanced up/down shifts; the corner
    variant adds lazy hold effects and a two-effect first hop."""
    half = np.eye(2) / SQ2
    up = block_from_kraus([half], "compact")
    down = block_from_kraus([half], "compact")
    overrides = {}
    if corner:
        s5 = np.sqrt(5.0) / 5.0
        b1 = s5 * np.eye(2)
        b2 = s5 * np.diag([0.0, 1.0])
        r1 = s5 * np.array([[1.0, 0.0], [-1.0, 1.0]])
        r2 = s5 * np.array([[1.0, 0.0], [1.0, 1.0]])
        overrides[0] = {
            "B": block_from_kraus([b1, b2], "compact"),
            "A": block_from_kraus([r1, r2], "compact"),
        }
    return _model(
        half_line(),
        "compact",
        {"A": up, "C": down},
        overrides=overrides,
        substochastic=True,
    )


# norm of the up blocks of a random symmetrizable segment, and the least
# distance between two of its eigenvalues
RANDOM_SCALE = 0.45
RANDOM_MIN_GAP = 5e-3


def random_symmetrizable_segment(
    rng: np.random.Generator,
    num_sites: int = 4,
    block_dim: int = 4,
) -> QmcModel:
    """A random segment model guaranteed to admit a symmetrizer.

    Hold blocks are built as R_n^{-1} E_n R_n with Hermitian E_n, and the
    down blocks are chosen so the Hermitian-product condition linking
    consecutive sites holds exactly.  Draws whose spectrum has nearly
    coincident eigenvalues are rejected (residue extraction loses accuracy
    between quasi-degenerate pairs).  The result is generally not trace
    preserving; it exercises the linear-algebra contracts only.
    """

    def rand(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def well_conditioned(d):
        while True:
            m = rand((d, d))
            if np.linalg.cond(m) < 50.0:
                return m

    d = block_dim
    for _ in range(200):
        pis = [np.eye(d, dtype=complex)]
        a_blocks = []
        for _ in range(num_sites - 1):
            w = well_conditioned(d)
            a_blocks.append(RANDOM_SCALE * w / np.linalg.norm(w, 2))
        c_blocks = []
        for n in range(num_sites - 1):
            unitary, _ = np.linalg.qr(rand((d, d)))
            spec = rng.uniform(0.5, 1.5, size=d)
            pi_next = unitary @ np.diag(spec) @ unitary.conj().T
            c_blocks.append(np.linalg.solve(pis[n], a_blocks[n].conj().T @ pi_next))
            pis.append(pi_next)
        b_blocks = []
        for n in range(num_sites):
            r = np.linalg.cholesky(pis[n]).conj().T
            e = rand((d, d))
            e = e + e.conj().T
            e = 0.6 * RANDOM_SCALE * e / np.linalg.norm(e, 2)
            b_blocks.append(np.linalg.solve(r, e @ r))
        overrides = {
            n: {"B": block_from_matrix(b_blocks[n])} for n in range(num_sites)
        }
        for n in range(num_sites - 1):
            overrides[n]["A"] = block_from_matrix(a_blocks[n])
            overrides[n + 1]["C"] = block_from_matrix(c_blocks[n])
        model = QmcModel(
            topology=segment(num_sites),
            mode="abstract",
            blocks={},
            overrides=overrides,
            substochastic=True,
        )
        from .chain_model import truncate

        ev = np.linalg.eigvals(truncate(model, 0, num_sites - 1).matrix)
        dist = np.abs(ev[:, None] - ev[None, :])
        np.fill_diagonal(dist, np.inf)
        if dist.min() > RANDOM_MIN_GAP:
            return model
    raise RuntimeError("could not draw a well-separated random model")
