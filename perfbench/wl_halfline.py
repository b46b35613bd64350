"""halfline_transforms: one query is one question about one half-line or
line chain.

Cycle of 50 queries, cheapest tier first (cost on a 2-core x86 box, one
BLAS thread).  Parameters that set the amount of work (window, ladder,
hopping rates of the truncated and off-corner routes) are fixed per
class; the seed draws the rest (hold-block shape, densities, z, flip
rates).
  14 cheap, ~1-15 ms, percentiles 0-28:
     1 transform at off-axis z, auto route, homogeneous (flip channel)
     1 transform at off-axis z, auto route, corner (flip channel, up corner)
     1 jump_at_one, auto route
    11 site-0 recurrence on DEFAULT_LADDER, auto route
  4 one-point solves, ~40-100 ms, percentiles 28-36:
     2 TruncatedStieltjes(window=800) transform at off-axis z
     2 off-corner recurrence at site 1 (resolvent_block_adaptive)
  22 dense window solves and short sweeps, ~100-240 ms, percentiles
     36-80 (holds p50 inside the reach class):
    14 reach_analysis at window 64, 6 of them on balanced chains
     3 TruncatedStieltjes(window=400) transform of the up-corner flip
       chain at z = 1 + 10^-k, k = 5..8, where the window doubling stops
       unconverged (ROADMAP item 4)
     3 line recurrence (classify_recurrence_on_line)
     2 km_on_line, n=3
  10 site-0 recurrence through TruncatedStieltjes(window=800), ~330-450 ms,
     percentiles 80-100 (holds p90); a minority of the 21 site-0 ladders

The balanced reach queries hit the fixed-window defect of ROADMAP item 4
(1 - i/65 instead of 1) and count as failures.  Only an answer within
REACH_TOL of 1 - i/65 is excused as that defect.
"""

from __future__ import annotations

import numpy as np

from qmcspectra import chain_model, cli, folding, models, spectral, statistics

from common import Query, all_ok, close, density, key, verdict_ok

MIX = (("homog", 1), ("corner", 1), ("jump", 1), ("rec_auto", 11),
       ("trunc_eval", 2), ("site1", 2),
       ("reach", 14), ("trunc_near", 3), ("line_rec", 3), ("km_line", 2),
       ("rec_trunc", 10))
# hopping rates (r, t) of the classes whose cost depends on them
FIXED_RATES = ((0.4, 0.2), (0.2, 0.4), (0.45, 0.25))
TRANSFORM_TOL = 1e-7
REACH_TOL = 1e-6
# an unconverged truncated value is taken as consistent with its own
# residual (the step between the last two windows) when its error is at
# most this many residuals; the worst seen is 2.9, at z = 1 + 1e-8
UNCONVERGED_SLACK = 10.0
KM_LINE_STEPS = 3


# -- closed forms --------------------------------------------------------

def flip_transform(p, q, z):
    """Transform of the cornerless flip-channel half-line (acceptance 4a)."""
    xi = np.array([1.0, 1 - 2 * q, (1 - 2 * p) * (1 - 2 * q)])
    u = models.flip_channel_basis()
    return u @ np.diag(2 * (z - np.sqrt(z * z - xi + 0j)) / xi) @ u.T


def flip_corner_transform(model, p, q, z):
    """Corner identity (z - B0 - C1 X A0)^{-1} around the closed-form
    interior transform X."""
    core = (z * np.eye(3) - model.block(0, "B")
            - model.block(1, "C") @ flip_transform(p, q, z) @ model.block(0, "A"))
    return np.linalg.inv(core)


def hopping_return_limit(r, s, t, site):
    """Expected visits to `site` of the uniform-hopping half-line.

    A, C are multiples of the identity and B is s times a trace-preserving
    map, so site traces follow a birth-death chain (up t, hold s, down r)
    killed below site 0.  Returns 1 / (1 - F) with F the return
    probability by first step."""
    ratio = r / t
    up = min(1.0, ratio)  # from site+1, ever come back down
    if site == 0:
        down = 0.0
    elif abs(ratio - 1.0) < 1e-12:
        down = site / (site + 1.0)
    else:  # from site-1, reach site before dying below 0
        down = (1 - ratio**site) / (1 - ratio ** (site + 1))
    return 1.0 / (1.0 - (s + t * up + r * down))


# -- queries -------------------------------------------------------------

def _verdict(cls):
    return cls.verdict, cls.limit


def _hopping(rng, regime, rates=None):
    """(s, a, b, r, t) with s = 1 - r - t; `rates` fixes (r, t)."""
    while True:
        r, t = rates if rates is not None else rng.uniform(0.15, 0.45, size=2)
        if regime == "balanced":
            t = r
        elif regime == "up" and t - r < 0.1:
            continue
        elif regime == "down" and r - t < 0.1:
            continue
        s = 1.0 - r - t
        if s < 0.1:
            continue
        a, b = rng.uniform(0.3, 0.6, size=2)
        return s, a, b, r, t


def _off_axis(rng):
    return complex(rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.8))


def _flip_pq(rng):
    return rng.uniform(0.6, 0.9), rng.uniform(0.6, 0.9)


def _make(kind, rng, slot):
    if kind in ("homog", "corner", "trunc_eval"):
        p, q = _flip_pq(rng)
        corner = kind == "corner" or (kind == "trunc_eval" and slot == 1)
        model = models.flip_channel_half_line(p, q, corner="up" if corner else None)
        z = _off_axis(rng)
        if kind == "trunc_eval":
            def run():
                return spectral.TruncatedStieltjes(model, window=800).evaluate(z).value
        else:
            def run():
                return cli._evaluator(model, "auto", 800).evaluate(z).value

        def check(out):
            want = flip_corner_transform(model, p, q, z) if corner else flip_transform(p, q, z)
            return close(out, want, TRANSFORM_TOL, "transform vs closed form")
        return Query(kind, key(kind, p=p, q=q, z=z, corner=corner), run, check)

    if kind == "trunc_near":
        p, q = _flip_pq(rng)
        model = models.flip_channel_half_line(p, q, corner="up")
        z = 1.0 + 10.0 ** -int(rng.integers(5, 9))

        def run():
            ev = spectral.TruncatedStieltjes(model, window=400)
            res = ev.evaluate(z)
            return res.value, res.residual, res.residual <= ev.tolerance

        def check(out):
            # the answer carries its certificate.  A converged value must
            # match the closed form.  A value flagged unconverged must
            # still be finite, with a finite residual, and lie within
            # UNCONVERGED_SLACK residuals of the closed form
            value, residual, converged = out
            want = flip_corner_transform(model, p, q, z)
            if converged:
                return close(value, want, TRANSFORM_TOL, "converged transform vs closed form")
            if not (np.all(np.isfinite(value)) and np.isfinite(residual)):
                return False, f"unconverged value or residual not finite (residual {residual})"
            err = float(np.linalg.norm(np.asarray(value) - want, 2))
            if not err <= UNCONVERGED_SLACK * residual + TRANSFORM_TOL:
                return False, (f"unconverged transform: error {err:.3g} above "
                               f"{UNCONVERGED_SLACK:g} x residual {residual:.3g}")
            return True, f"flagged unconverged: error {err:.3g}, residual {residual:.3g}"
        return Query(kind, key(kind, p=p, q=q, z=z), run, check)

    if kind == "jump":
        p, q = _flip_pq(rng)
        model = models.flip_channel_half_line(p, q)

        def run():
            return statistics.jump_at_one(cli._evaluator(model, "auto", 800))

        def check(out):  # the closed form is finite at z = 1: no atom
            return close(out, 0.0, 1e-6, "jump at one vs closed form 0")
        return Query(kind, key(kind, p=p, q=q), run, check)

    if kind in ("rec_auto", "rec_trunc"):
        which = slot % 3 if kind == "rec_auto" else 0
        if which == 0:
            s, a, b, r, t = _hopping(rng, "any", FIXED_RATES[slot % 3])
            model = models.uniform_hopping_half_line(s, a, b, r, t)
            rho = density(rng)
            want = ("transient", hopping_return_limit(r, s, t, 0))
            params = {"s": s, "a": a, "b": b, "r": r, "t": t}
        else:
            # acceptance 4b / 4c chains; (1,1) density entry positive
            model = models.flip_channel_half_line(0.7, 0.8, corner="up" if which == 2 else None)
            rho = density(rng, real=True)
            want = ("recurrent", None) if which == 2 else ("transient", None)
            params = {"corner": which == 2}

        if kind == "rec_trunc":
            def run():
                ev = spectral.TruncatedStieltjes(model, window=800)
                return _verdict(statistics.classify_recurrence(model, 0, rho, ev))
        else:
            def run():
                ev = cli._evaluator(model, "auto", 800)
                return _verdict(statistics.classify_recurrence(model, 0, rho, ev))
        return Query(kind, key(kind, rho=rho, **params), run,
                     lambda out: verdict_ok(out, *want))

    if kind == "site1":
        s, a, b, r, t = _hopping(rng, "any", FIXED_RATES[slot % 3])
        model = models.uniform_hopping_half_line(s, a, b, r, t)
        rho = density(rng)

        def run():
            return _verdict(statistics.classify_recurrence(model, 1, rho))

        def check(out):
            # the chain is irreducible, so site 1 shares the verdict of
            # site 0 (transient, limit 1/max(r, t)); the limit itself
            # follows from the same birth-death chain
            return verdict_ok(out, "transient", hopping_return_limit(r, s, t, 1))
        return Query(kind, key(kind, rho=rho, s=s, a=a, b=b, r=r, t=t), run, check)

    if kind == "reach":
        regime = ("up",) * 5 + ("down",) * 3 + ("balanced",) * 6
        regime = regime[slot]
        s, a, b, r, t = _hopping(rng, regime)
        model = models.uniform_hopping_half_line(s, a, b, r, t)
        rho = density(rng)
        start = int(rng.integers(2, 5))

        def run():
            return statistics.reach_analysis(model, start, 0, rho, window=64).probability

        want = min(1.0, r / t) ** start  # birth-death closed form
        defect = None
        if regime == "balanced":
            def defect(out):  # the fixed window answers 1 - i/65
                return abs(float(out) - (1.0 - start / 65.0)) <= REACH_TOL
        return Query(
            kind, key(kind, rho=rho, start=start, s=s, a=a, b=b, r=r, t=t), run,
            lambda out: close(out, want, REACH_TOL, f"reach {start}->0 vs closed form"),
            known_defect="reach_window64_balanced" if defect else None,
            shows_defect=defect,
        )

    if kind == "line_rec":
        if slot < 2:
            model = models.diagonal_coin_line_walk()
            if slot == 0:  # acceptance 5a
                rho = np.diag([1.0, 0.0]).astype(complex)
                want = ("transient", 3.0)
            else:  # acceptance 5b: any weight on the symmetric component recurs
                rho = density(rng)
                want = ("recurrent", None)
            params = {}
        else:  # acceptance 6b
            s, a, b, r, t = _hopping(rng, "balanced", (0.25, 0.25))
            model = models.uniform_hopping_line(s, a, b, r, t)
            rho = density(rng)
            want = ("recurrent", None)
            params = {"s": s, "a": a, "b": b, "r": r, "t": t}

        def run():
            return _verdict(folding.classify_recurrence_on_line(model, 0, rho))
        return Query(kind, key(kind, rho=rho, **params), run, lambda out: verdict_ok(out, *want))

    if kind == "km_line":
        s, a, b, r, t = _hopping(rng, "any")
        model = models.uniform_hopping_line(s, a, b, r, t)
        # one endpoint at folded index 1 (site 1 or -2) fixes the folded window
        j = int(rng.choice([1, -2]))
        i = int(rng.choice([-1, 0, 1]))
        if rng.random() < 0.5:
            i, j = j, i

        def run():
            return folding.km_on_line(model, j, i, KM_LINE_STEPS)

        def check(out):
            half = max(abs(i), abs(j)) + KM_LINE_STEPS + 2
            d = model.block_dim
            power = np.linalg.matrix_power(
                chain_model.truncate(model, -half, half).matrix, KM_LINE_STEPS)
            jj, ii = j + half, i + half
            return close(out, power[jj * d:(jj + 1) * d, ii * d:(ii + 1) * d], 1e-8,
                         f"km_on_line({j},{i}) vs power")
        return Query(kind, key(kind, i=i, j=j, s=s, a=a, b=b, r=r, t=t), run, check)

    raise ValueError(kind)


def build(seed: int, workdir) -> list[Query]:
    rng = np.random.default_rng([seed, 2])
    cycle = [_make(kind, rng, slot) for kind, count in MIX for slot in range(count)]
    order = rng.permutation(len(cycle))
    return [cycle[k] for k in order]
