"""The `cli` layer: one query is one `qmc` subcommand in a fresh
interpreter.  Every traced run (worker.py, --trace 1) runs this cycle
and reports `cli.<subcommand>.wall_ms` from it; it is not an end-to-end
workload, since start-up (interpreter plus `import qmcspectra.cli`)
dominates every query and that cost already shows in each workload's
`setup_s`.

The `qmc` console script is not assumed to be installed, and
`python -m qmcspectra.cli` does nothing (no `__main__` guard), so each
query runs `sys.exit(qmcspectra.cli.run(argv))` through `python -c`.
Empty or unparseable output fails the query.

Cycle of 20 queries: the ten subcommands on small JSON models written
from the seed (first-passage five times, from sites 1 to 5; prob,
stieltjes and poly twice), plus three malformed inputs whose correct
outcome is exit code 3.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

from qmcspectra import chain_model, models

from common import Query, all_ok, birth_death, close, density, key

SUBCOMMANDS = ("validate", "evolve", "prob", "spectrum", "stieltjes", "recurrence",
               "first-passage", "fold", "poly", "simulate")
CHILD = "import sys; from qmcspectra.cli import run; sys.exit(run(sys.argv[1:]))"
CHILD_TIMEOUT = 60.0
EXIT_SCHEMA = 3


def launch(argv, workdir):
    """Run one subcommand in a fresh interpreter; returns (code, stdout,
    stderr)."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=workdir,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr


def decode(entry):
    """Inverse of the CLI's complex encoding ([re, im] pairs, nested)."""
    arr = np.asarray(entry, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _payload(out, csv=False):
    code, stdout, stderr = out
    if code != 0:
        raise ValueError(f"exit code {code}: {stderr.strip()[-200:]}")
    if not stdout.strip():
        raise ValueError("empty output")
    if csv:
        rows = [line.split(",") for line in stdout.strip().splitlines()]
        if rows[0] != ["step", "site", "mean", "stderr"] or len(rows) < 2:
            raise ValueError("unparseable CSV")
        return [(int(a), int(b), float(c), float(d)) for a, b, c, d in rows[1:]]
    return json.loads(stdout)


def _checked(fn, csv=False):
    """Wrap an oracle on the parsed payload so that a bad exit code, empty
    output or a parse error is a failure, never a pass."""
    def check(out):
        try:
            payload = _payload(out, csv)
        except ValueError as exc:  # json.JSONDecodeError is a ValueError
            return False, str(exc)
        try:
            return fn(payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return False, f"malformed payload: {exc!r}"
    return check


def _write(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return name


def _matrix_json(m):
    return {"matrix": [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m)]}


def _queries(rng, workdir):
    """The ten subcommands on models drawn from rng, plus three malformed
    inputs."""
    r, t = rng.uniform(0.15, 0.3), rng.uniform(0.35, 0.5)
    s = 1.0 - r - t
    a, b = rng.uniform(0.3, 0.6, size=2)
    num_sites = 4
    seg = models.uniform_hopping_segment(num_sites, s, a, b, r, t)
    half = models.uniform_hopping_half_line(s, a, b, r, t)
    p, q = rng.uniform(0.6, 0.9, size=2)
    flip = models.flip_channel_half_line(p, q)
    line = models.diagonal_coin_line_walk()
    rho = density(rng)
    f_seg = _write(workdir, "seg.json", chain_model.model_to_dict(seg))
    f_half = _write(workdir, "half.json", chain_model.model_to_dict(half))
    f_flip = _write(workdir, "flip.json", chain_model.model_to_dict(flip))
    f_line = _write(workdir, "line.json", chain_model.model_to_dict(line))
    f_rho = _write(workdir, "rho.json", _matrix_json(rho))
    f_bad = _write(workdir, "bad.json", {"dim": 2, "homogeneous": {}})
    with open(os.path.join(workdir, "junk.json"), "w") as fh:
        fh.write("{not json")
    f_junk = "junk.json"
    site = int(rng.integers(0, num_sites))
    steps = int(rng.integers(2, 7))
    zs = [complex(rng.uniform(0.8, 2.0), rng.uniform(0.2, 0.8)) for _ in range(2)]
    xs = [float(rng.uniform(-1.0, 1.0)) for _ in range(2)]
    targets = [int(v) for v in rng.integers(0, num_sites, size=2)]
    sim_seed = int(rng.integers(0, 2**31))
    n_traj = 2000
    params = {"r": r, "s": s, "t": t, "a": a, "b": b, "p": p, "q": q, "rho": rho, "site": site,
              "steps": steps, "z": zs, "x": xs, "seed": sim_seed}
    out = []

    def add(kind, argv, oracle, csv=False):
        out.append((kind, argv, _checked(oracle, csv)))

    def validate(pl):
        return close(pl["max_defect"], max(r, t, abs(r + s + t - 1)), 1e-10,
                     "max column defect vs closed form")
    add("validate", ["validate", f_seg], validate)

    def evolve(pl):
        want = birth_death(r, s, t, site, steps, num_sites)[-1]
        got = np.zeros(num_sites)
        for entry in pl["sites"]:
            got[entry["site"]] = entry["trace"]
        return all_ok(close(got, want, 1e-12, "site traces vs birth-death chain"),
                      close(pl["total_trace"], want.sum(), 1e-12, "total trace"))
    add("evolve", ["evolve", f_seg, "--site", str(site), "--steps", str(steps),
                   "--density", f_rho], evolve)

    for target in targets:
        def prob(pl, target=target):
            want = birth_death(r, s, t, site, steps, num_sites)[-1, target]
            return close(pl["probability"], want, 1e-12, "probability vs birth-death chain")
        add("prob", ["prob", f_seg, "--from", str(site), "--to", str(target),
                     "--steps", str(steps), "--density", f_rho], prob)

    def spectrum(pl):
        theta = np.pi * np.arange(1, num_sites + 1) / (num_sites + 1)
        holds = (s, s * (1.0 - 2.0 * (a * a + b * b)))
        want = np.sort(np.concatenate([h + 2 * math.sqrt(r * t) * np.cos(theta) for h in holds]))
        nodes = np.sort(np.array([decode(p_["node"]).real for p_ in pl["points"]]))
        weights = sum(decode(p_["weight"]) for p_ in pl["points"])
        doubles = all(p_["multiplicity"] == 2 for p_ in pl["points"])
        if nodes.shape != want.shape or not doubles:
            return False, f"{len(nodes)} nodes, expected {len(want)} double nodes"
        return all_ok(close(nodes, want, 1e-8, "nodes vs closed form"),
                      close(weights, np.eye(4), 1e-8, "weights sum to I"))
    add("spectrum", ["spectrum", f_seg], spectrum)

    for z in zs:
        def stieltjes(pl, z=z):
            from wl_halfline import flip_transform
            return close(decode(pl["value"]), flip_transform(p, q, z), 1e-7,
                         "transform vs closed form")
        add("stieltjes", ["stieltjes", f_flip, "--z", f"{z.real!r},{z.imag!r}"], stieltjes)

    def recurrence(pl):
        ok = pl["verdict"] == "transient" and abs(pl.get("limit", math.inf) - 1 / max(r, t)) < 1e-4
        return ok, f"verdict {pl['verdict']}, limit {pl.get('limit')}, expected {1 / max(r, t):.10g}"
    add("recurrence", ["recurrence", f_half, "--density", f_rho], recurrence)

    for start in range(1, 6):
        def first_passage(pl, start=start):
            return close(pl["probability"], (r / t) ** start, 1e-6, "reach vs closed form")
        add("first-passage", ["first-passage", f_half, "--from", str(start), "--to", "0",
                              "--density", f_rho], first_passage)

    folded_name = "folded.json"

    def fold(pl):
        # folded site 0 carries original sites 0 and -1
        with open(os.path.join(workdir, folded_name)) as fh:
            folded = chain_model.build_model(json.load(fh))
        vec = np.concatenate([line.state_vec(rho), np.zeros(line.block_dim)])
        got = chain_model.site_prob(folded, 0, 0, vec, steps)
        want = sum(chain_model.site_prob(line, 0, j, rho, steps) for j in (0, -1))
        return all_ok((pl["block_dim"] == 2 * line.block_dim, f"block_dim {pl['block_dim']}"),
                      close(got, want, 1e-12, "folded occupation vs line evolution"))
    add("fold", ["fold", f_line, "--output", folded_name], fold)

    for x in xs:
        def poly(pl, x=x):
            # defining recurrence Q_{n+1} A_n = x Q_n - Q_n B_n - Q_{n-1} C_n
            qs = [decode(v) for v in pl["values"]]
            worst = 0.0
            for n in range(len(qs) - 1):
                prev = qs[n - 1] if n else np.zeros((4, 4))
                lhs = qs[n + 1] @ seg.block(n, "A")
                rhs = x * qs[n] - qs[n] @ seg.block(n, "B") - prev @ seg.block(n, "C")
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            return all_ok((len(qs) == num_sites, f"{len(qs)} values"),
                          close(qs[0], np.eye(4), 0.0, "Q_0 = I"),
                          close(worst, 0.0, 1e-10, "recurrence residual"))
        add("poly", ["poly", f_seg, "--x", repr(x), "--n", str(num_sites - 1)], poly)

    def simulate(pl):
        last = {site_: (mean, se) for step, site_, mean, se in pl if step == steps}
        checks = []
        for j in range(num_sites):
            exact = chain_model.site_prob(seg, site, j, rho, steps)
            mean, se = last.get(j, (0.0, 0.0))
            zval = abs(mean - exact) / max(se, math.sqrt(0.01 / n_traj))
            checks.append((zval < 4.0, f"site {j}: {zval:.2f} sigma"))
        return all_ok(*checks)
    add("simulate", ["simulate", f_seg, "--trajectories", str(n_traj), "--steps", str(steps),
                     "--seed", str(sim_seed), "--site", str(site), "--density", f_rho],
        simulate, csv=True)

    def schema_error(res):
        code, stdout, stderr = res
        ok = code == EXIT_SCHEMA and not stdout.strip() and stderr.startswith("error:")
        return ok, f"exit code {code}, stderr {stderr.strip()[-120:]!r}"
    out.append(("bad_model", ["validate", f_bad], schema_error))
    out.append(("bad_json", ["spectrum", f_junk], schema_error))
    out.append(("bad_z", ["stieltjes", f_flip, "--z", "1.5,oops"], schema_error))
    return out, params


def build(seed: int, workdir) -> list[Query]:
    rng = np.random.default_rng([seed, 4])
    specs, params = _queries(rng, workdir)
    cycle = [
        Query(kind, key(kind, argv=" ".join(argv), **params),
              (lambda argv=argv: launch(argv, workdir)), check)
        for kind, argv, check in specs
    ]
    order = rng.permutation(len(cycle))
    return [cycle[k] for k in order]
