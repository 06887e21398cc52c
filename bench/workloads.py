"""The three benchmark workloads: their inputs and one pass of each.

Input generation uses numpy only and never imports dynell, so the verifier
in the parent process can regenerate the same inputs.  ``setup`` imports
dynell and builds the objects a pass needs; ``run`` is the timed pass;
``dump`` writes the pass output as canonical JSON (byte-identical for equal
outputs).
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

# The default grid is the one `dynell check` samples without --seed.  It is
# fixed, not taken from the workload seed: its 29 det-guard skips are counted
# as failed operations, and other grid seeds skip a different number of
# reports (34 at seed 1, 37 at seed 2), so the failed share would vary.
CHECK_DEFAULT_GRID_SEED = 0

SKEW_CHECKS = ("lemmap1", "shiftcalc")

# point-eval samples p in three bands.  Below 0.5 it evaluates everything,
# the R-matrices included; above 0.5 it leaves R out, because the absolute
# theta guards of the R assembly skip ordinary points there; above 0.75 it
# evaluates theta alone, because rho's absolute Pochhammer guard starts to
# skip ordinary points near p = 0.8 (2 of 680 random z at p in [0.80, 0.81),
# 13 of 652 in [0.84, 0.85), none in 6,700 below 0.80).  Contexts are
# stratified within each band, with p in the middle P_JITTER of its stratum,
# so truncation orders (15 to 200) and the work stay about the same from
# seed to seed (a model of the kernels' cost spreads 0.023 over 40 seeds,
# 0.037 with p anywhere in its stratum).
THETA_OPS = ("theta", "theta_pz", "theta_inv")
SCALAR_OPS = THETA_OPS + ("rho", "n", "n_q4")
MATRIX_OPS = ("R", "R21", "Rt", "Rt21")
BANDS = {
    "low": ((0.05, 0.5), SCALAR_OPS + MATRIX_OPS),
    "mid": ((0.5, 0.75), SCALAR_OPS),
    "high": ((0.75, 0.85), THETA_OPS),
}
# context i of a pass falls in band BAND_CYCLE[i % 6]: 6, 4 and 2 of 12
BAND_CYCLE = ("low", "mid", "low", "high", "low", "mid")
P_JITTER = 0.5
Q_HALF_RANGE = (0.4, 0.8)
Z_ABS_RANGE = (0.55, 1.9)
Z_PER_CONTEXT = 6

# full-size inputs: grid points (check-default, skew-calculus) or Params
# contexts (point-eval) per pass
FULL_SIZE = {"check-default": 25, "skew-calculus": 25, "point-eval": 12}


def _rng(seed: int, tag: str):
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def point_eval_contexts(seed: int, n_contexts: int) -> list[dict]:
    """Params contexts, each with a dynamical coordinate, Z_PER_CONTEXT
    spectral parameters on the annulus and the operations to evaluate."""
    rng = _rng(seed, "point-eval")
    bands = [BAND_CYCLE[i % len(BAND_CYCLE)] for i in range(n_contexts)]
    out = []
    for i, band in enumerate(bands):
        (lo, hi), ops = BANDS[band]
        k, n = bands[:i].count(band), bands.count(band)
        p = float(lo + (hi - lo) * (k + 0.5 + P_JITTER * rng.uniform(-0.5, 0.5)) / n)
        q_half = float(rng.uniform(*Q_HALF_RANGE))
        s = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        zs = []
        for _ in range(Z_PER_CONTEXT):
            r = math.exp(rng.uniform(math.log(Z_ABS_RANGE[0]), math.log(Z_ABS_RANGE[1])))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            zs.append(complex(r * math.cos(phi), r * math.sin(phi)))
        out.append({"p": p, "q_half": q_half, "s": s, "zs": zs, "ops": ops})
    return out


def _cplx(x) -> list:
    x = complex(x)
    return [x.real, x.imag]


def _encode(v):
    if v is None:
        return None
    if isinstance(v, np.ndarray):
        return [[_cplx(e) for e in row] for row in v]
    return _cplx(v)


def dump(doc, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- check-default -----------------------------------------------------------

def setup_check_default(size: int, output: str):
    import dynell.cli

    argv = ["check", "--format", "json", "--no-timestamp",
            "--seed", str(CHECK_DEFAULT_GRID_SEED), "--output", output]
    if size != FULL_SIZE["check-default"]:
        argv += ["--points", str(size)]
    return dynell.cli, argv


def run_check_default(state):
    cli, argv = state
    return cli.main(argv)


def grid_r_sample(size: int) -> dict:
    """R at the first point of the default grid (its first z), with the
    inputs, encoded for the verifier's mpmath oracle."""
    import dynell
    from dynell import checks

    pt = checks.GridSpec(seed=CHECK_DEFAULT_GRID_SEED, n_points=size).sample_points()[0]
    z = pt.zs[0]
    r = dynell.build_r(dynell.RPoint(z, pt.s, pt.params)).at(pt.s)
    return {"q_half": _cplx(pt.params.q_half), "p": _cplx(pt.params.p),
            "s": _cplx(pt.s), "z": _cplx(z), "R": _encode(r)}


# -- skew-calculus -----------------------------------------------------------

def setup_skew(seed: int, size: int):
    from dynell import checks

    return checks, checks.GridSpec(seed=seed, n_points=size, checks=SKEW_CHECKS)


def run_skew(state):
    checks, grid = state
    return checks.run_suite(grid)


def dump_skew(reports, path: str):
    dump([r.to_dict() for r in reports], path)


# -- point-eval ---------------------------------------------------------------

def setup_point_eval(seed: int, size: int):
    import dynell

    prepared = []
    for c in point_eval_contexts(seed, size):
        params = dynell.Params.make(c["q_half"], c["p"])
        q4 = params.q**4
        args = [(z, params.p * z, 1.0 / z, q4 * z) for z in c["zs"]]
        prepared.append((params, c["s"], args, c["ops"]))
    return dynell, prepared


def _attempt(fn):
    try:
        return fn(), None
    except (ArithmeticError, ValueError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_point_eval(state):
    """Every evaluation looks its function up on the package at call time,
    so a tracer installed after setup sees it."""
    d, prepared = state
    out = []
    for params, s, args, ops in prepared:
        for z, pz, zi, q4z in args:
            calls = {
                "theta": lambda: d.theta(z, params),
                "theta_pz": lambda: d.theta(pz, params),
                "theta_inv": lambda: d.theta(zi, params),
                "rho": lambda: d.rho_norm(z, params),
                "n": lambda: d.unitarity_scalar(z, params),
                "n_q4": lambda: d.unitarity_scalar(q4z, params),
                "R": lambda: d.build_r(d.RPoint(z, s, params)).at(s),
                "R21": lambda: d.build_r(d.RPoint(zi, s, params)).swap_legs(1, 2).at(s),
                "Rt": lambda: d.build_r_twisted(d.RPoint(z, s, params)).at(s),
                "Rt21": lambda: d.build_r_twisted(d.RPoint(zi, s, params)).swap_legs(1, 2).at(s),
            }
            out.append({op: _attempt(calls[op]) for op in ops})
    return out


def dump_point_eval(records, path: str):
    dump(
        [{k: {"value": _encode(v), "error": e} for k, (v, e) in rec.items()} for rec in records],
        path,
    )
