"""Independent checks of the program's outputs.

Nothing here imports dynell or trusts its verdicts:

* a report's status is re-derived from its residual (at most the identity
  tolerance for an identity, above the control floor for a ``.negctrl``);
* point evaluations are checked against the identities they must satisfy
  (theta quasi-periodicity and inversion, unitarity ``R12(z) R21(1/z) =
  n(z) I`` for both R-matrices, ``n(q^4 z) = n(z)``);
* ``rho`` and the R-matrix entries at sampled points are recomputed live
  with mpmath, truncating every product factor by factor (the style of
  ``tests/make_oracles.py``), a code path independent of the package's
  total-degree truncation.

An operation that raised, or that the program reports as skipped-singular
or failing, is a failed operation; ``problems`` lists every disagreement
between an output and its check, and a run with problems is not correct.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpc, mpf

IDENTITY_TOL = 1e-9  # the certifier's default tolerance
CONTROL_FLOOR = 1e-3  # a negative control must land above this
THETA_TOL = 1e-12  # the theta-layer gate of the acceptance criteria
ORACLE_TOL = 1e-9
# Rounding allowance of a product of evaluated matrices, in units of
# EPS * sum_k |a_ik| |b_kj| for entry (i, j).  Near the pole lattice R has
# entries of 1e7 whose products cancel to O(1); there double rounding alone
# leaves more than IDENTITY_TOL (3e-9 from mpmath-exact entries rounded
# once), and each computed entry, a quotient of theta products, carries a
# relative error of a few EPS.  Over point-eval seeds 0 to 299 the largest
# excess over IDENTITY_TOL was 4.9 of these units (seed 117); 16 leaves a
# factor 3.
EPS = float(np.finfo(float).eps)
PRODUCT_ULPS = 16
ORACLE_DPS = 30
ORACLE_SAMPLES = 3  # rho comparisons per point-eval run

STATUSES = ("pass", "fail", "skipped-singular")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    skipped_by_family: Counter = field(default_factory=Counter)
    skip_causes: Counter = field(default_factory=Counter)


def resid(lhs, rhs) -> float:
    """max|LHS - RHS| / max(1, max|LHS|), the certifier's convention."""
    lhs, rhs = np.asarray(lhs), np.asarray(rhs)
    return float(abs(lhs - rhs).max() / max(1.0, abs(lhs).max()))


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b)


# -- suite reports --------------------------------------------------------------

def verify_reports(reports: list, n_points: int, tol: float = IDENTITY_TOL) -> Verdict:
    """Check a list of report dicts (the CLI's JSON entries, or
    CheckReport.to_dict()) of a run over n_points grid points."""
    v = Verdict(attempted=len(reports))
    seen = Counter()
    for r in reports:
        name, status, res = r["name"], r["status"], r["residual"]
        label = f"{name}@{r['point'].get('index')}"
        seen[name] += 1
        if status not in STATUSES:
            v.problems.append(f"{label}: unknown status {status!r}")
            continue
        if status == "skipped-singular":
            v.failed += 1
            v.skipped_by_family[name.split(".", 1)[0]] += 1
            v.skip_causes[_skip_cause(r["detail"])] += 1
            if res is not None:
                v.problems.append(f"{label}: skipped report carries a residual")
            continue
        if not isinstance(res, float) or res != res:
            v.problems.append(f"{label}: residual {res!r} is not a number")
            continue
        ok = res > CONTROL_FLOOR if name.endswith(".negctrl") else res <= tol
        if (status == "pass") != ok:
            v.problems.append(f"{label}: status {status} but residual {res:.3e}")
        if status == "fail":
            v.failed += 1
    for name, count in seen.items():
        if count != n_points:
            v.problems.append(f"{name}: {count} reports for {n_points} grid points")
    indices = Counter((r["name"], r["point"].get("index")) for r in reports)
    if any(c > 1 for c in indices.values()):
        v.problems.append("a check reports twice at one grid point")
    return v


def _skip_cause(detail: str) -> str:
    """The guarded quantity of a skip detail, e.g. '|det|' or '|Theta(w)|'."""
    head = detail.split(" = ", 1)[0]
    return head.removeprefix("singular point: ") or "unknown"


# the configuration `dynell check --seed 0` runs with, as its JSON echoes it
DEFAULT_CONFIG = {
    "alpha_beta_offset": 0.0, "checks": ["all"], "p_fixed": False,
    "q_half_fixed": False, "seed": 0, "singular_guard": 1e-6,
    "tolerance": IDENTITY_TOL, "truncation_order": None, "z_samples": 3,
}


def verify_cli_doc(doc: dict, n_points: int, grid_r: dict) -> Verdict:
    """The CLI's JSON report: entries, summary and configuration echo; and
    grid_r, R at the grid's first point (from grid_r_sample), against the
    mpmath oracle."""
    v = verify_reports(doc["reports"], n_points, IDENTITY_TOL)
    counts = Counter(r["status"] for r in doc["reports"])
    expect = {"pass": counts["pass"], "fail": counts["fail"], "skipped": counts["skipped-singular"]}
    if doc["summary"] != expect:
        v.problems.append(f"summary {doc['summary']} does not count the reports {expect}")
    echo = doc["config_echo"]
    config = {k: echo.get(k) for k in DEFAULT_CONFIG}
    if config != DEFAULT_CONFIG or echo.get("points") != n_points:
        v.problems.append(f"the run's configuration {echo} is not the default")
    if "timestamp" in doc:
        v.problems.append("--no-timestamp report carries a timestamp")

    first = next(r["point"] for r in doc["reports"]
                 if r["point"].get("index") == 0 and "z" in r["point"])
    z, p = _c(grid_r["z"]), _c(grid_r["p"])
    if _parse(first["z"][0]) != z or _parse(first["p"]) != p:
        v.problems.append("the R sample is not at the grid's first point")
    ref = r_oracle(z, _c(grid_r["s"]), p, _c(grid_r["q_half"]), twisted=False)
    err = resid(_m(grid_r["R"]), ref)
    if err > ORACLE_TOL:
        v.problems.append(f"grid point 0: R differs from mpmath by {err:.3e}")
    return v


def _parse(literal: str) -> complex:
    """A report's 'a+bi' literal."""
    return complex(literal.replace("i", "j"))


# -- point evaluations -----------------------------------------------------------

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _m(rows) -> np.ndarray:
    return np.array([[_c(e) for e in row] for row in rows])


def verify_point_eval(records: list, contexts: list, seed: int) -> Verdict:
    """records: the pass output, one dict per (context, z), each op mapping
    to {"value", "error"}; contexts: the inputs, from point_eval_contexts."""
    v = Verdict()
    flat = [(c, z) for c in contexts for z in c["zs"]]
    if len(records) != len(flat):
        v.problems.append(f"{len(records)} records for {len(flat)} points")
        return v
    vals = []
    for i, ((ctx, z), rec) in enumerate(zip(flat, records)):
        expect = set(ctx["ops"])
        if set(rec) != expect:
            v.problems.append(f"point {i}: ops {sorted(rec)}, expected {sorted(expect)}")
            vals.append({})
            continue
        v.attempted += len(rec)
        got = {}
        for op, out in rec.items():
            if out["error"] is not None or out["value"] is None:
                v.failed += 1
            elif op.startswith("R"):
                got[op] = _m(out["value"])
            else:
                got[op] = _c(out["value"])
        vals.append(got)
        _check_point(v, f"point {i}", z, got)

    rng = random.Random(seed)
    ok = [i for i, g in enumerate(vals) if "rho" in g]
    for i in sorted(rng.sample(ok, min(ORACLE_SAMPLES, len(ok)))):
        ctx, z = flat[i]
        err = rel(vals[i]["rho"], complex(rho_oracle(z, ctx["p"], ctx["q_half"])))
        if err > ORACLE_TOL:
            v.problems.append(f"point {i}: rho differs from mpmath by {err:.3e}")
    with_r = [i for i, g in enumerate(vals) if "R" in g and "Rt" in g]
    if with_r:
        i = rng.choice(with_r)
        ctx, z = flat[i]
        for op, twisted in (("R", False), ("Rt", True)):
            ref = r_oracle(z, ctx["s"], ctx["p"], ctx["q_half"], twisted)
            err = resid(vals[i][op], ref)
            if err > ORACLE_TOL:
                v.problems.append(f"point {i}: {op} differs from mpmath by {err:.3e}")
    return v


_R_ZERO = [(i, j) for i in range(4) for j in range(4)
           if (i, j) not in ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3))]


def _check_point(v: Verdict, label: str, z: complex, got: dict):
    if {"theta", "theta_pz", "theta_inv"} <= set(got):
        t = got["theta"]
        # theta(p z) = theta(1/z) = -theta(z)/z
        for op in ("theta_pz", "theta_inv"):
            err = rel(got[op], -t / z)
            if err > THETA_TOL:
                v.problems.append(f"{label}: {op} breaks its identity by {err:.3e}")
    if {"n", "n_q4"} <= set(got):
        err = rel(got["n_q4"], got["n"])
        if err > IDENTITY_TOL:
            v.problems.append(f"{label}: n(q^4 z) differs from n(z) by {err:.3e}")
    for a, b in (("R", "R21"), ("Rt", "Rt21")):
        if {a, b, "n"} <= set(got):
            lhs = got[a] @ got[b]
            err = abs(lhs - got["n"] * np.eye(4))
            allowed = IDENTITY_TOL * max(1.0, abs(lhs).max()) + (
                PRODUCT_ULPS * EPS * (abs(got[a]) @ abs(got[b])))
            if (err > allowed).any():
                i, j = np.unravel_index(np.argmax(err - allowed), err.shape)
                v.problems.append(f"{label}: {a} unitarity error {err[i, j]:.3e} "
                                  f"above {allowed[i, j]:.3e} at entry {(int(i), int(j))}")
    for op in ("R", "R21", "Rt", "Rt21"):
        if op in got and any(got[op][i, j] != 0 for i, j in _R_ZERO):
            v.problems.append(f"{label}: {op} has entries outside the six-vertex pattern")
    for op in ("R", "Rt"):
        if op in got and "rho" in got:
            m = got[op]
            if max(rel(m[0, 0], got["rho"]), rel(m[3, 3], got["rho"])) > THETA_TOL:
                v.problems.append(f"{label}: {op} corners differ from rho(z)")


# -- mpmath oracle ----------------------------------------------------------------

_CUTOFF = mpf("1e-34")


def _poch(x, bases) -> mpc:
    """(x; b1[, b2])_inf with every factor kept while |x b1^n1 b2^n2| >= 1e-34."""
    acc = mpc(1)
    outer = x
    b1 = bases[0]
    b2 = bases[1] if len(bases) > 1 else mpc(0)
    while abs(outer) >= _CUTOFF:
        t = outer
        while abs(t) >= _CUTOFF:
            acc *= 1 - t
            t *= b1
        if b2 == 0:
            break
        outer *= b2
    return acc


def _theta(x, p) -> mpc:
    return _poch(x, [p]) * _poch(p / x, [p]) * _poch(p, [p])


def _setup(p, q_half):
    mp.dps = ORACLE_DPS
    qh = mpc(q_half)
    q = qh * qh
    return mpc(p), qh, q, q * q, q**4


def rho_oracle(z, p, q_half) -> mpc:
    p, qh, q, q2, q4 = _setup(p, q_half)
    z = mpc(z)
    num = _poch(q2 * z, [p, q4]) ** 2 * _poch(p / z, [p, q4]) * _poch(p * q4 / z, [p, q4])
    den = _poch(p * q2 / z, [p, q4]) ** 2 * _poch(z, [p, q4]) * _poch(q4 * z, [p, q4])
    return num / den / qh


def r_oracle(z, s, p, q_half, twisted: bool) -> np.ndarray:
    """The R-matrix (or its twist-gauged variant) at (z, s), entry by entry."""
    p, qh, q, q2, q4 = _setup(p, q_half)
    z, s = mpc(z), mpc(s)
    w = mp.exp(2 * s * mp.log(q))
    thq2z, thz = _theta(q2 * z, p), _theta(z, p)
    thw, thwi = _theta(w, p), _theta(1 / w, p)
    if twisted:
        b = q * _poch(p * q2 / w, [p]) * _poch(p / (q2 * w), [p]) / _poch(p / w, [p]) ** 2 * thz / thq2z
        bb = q * _poch(q2 * w, [p]) * _poch(w / q2, [p]) / _poch(w, [p]) ** 2 * thz / thq2z
    else:
        b = _theta(q2 * w, p) * thz / (thw * thq2z)
        bb = _theta(q2 / w, p) * thz / (thwi * thq2z)
    c = _theta(q2, p) * _theta(w * z, p) / (thw * thq2z)
    cb = _theta(q2, p) * _theta(z / w, p) / (thwi * thq2z)
    rho = rho_oracle(z, p, q_half)
    out = np.zeros((4, 4), dtype=complex)
    for (i, j), e in (((0, 0), 1), ((1, 1), b), ((1, 2), c), ((2, 1), cb), ((2, 2), bb), ((3, 3), 1)):
        out[i, j] = complex(rho * e)
    return out
