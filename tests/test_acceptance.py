"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The default point set is the seeded 25-point grid (p in [0.05, 0.5], q_half
in [0.4, 0.8], |Im s| <= 0.5, z on the annulus 0.5 < |z| < 2, auto-selected
truncation order, tolerance 1e-9).  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they print.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from dynell import Params, RPoint, build_r_twisted, rmatrix, shiftcalc, special, twist_of_r
from dynell.checks import (
    CONTROL_THRESHOLD,
    GridSpec,
    check_a_equals_n,
    check_crossing,
    check_crossing_unitarity,
    check_dybe,
    check_lemma_p1,
    check_magic,
    check_n_forms,
    check_n_periodicity,
    check_proof_chain_cor22,
    check_theta_inversion,
    check_theta_quasiperiodicity,
    check_unitarity,
    integration_trace_check,
    run_suite,
    suite_passes,
    summarize,
)
from dynell.special import (
    SingularPointError,
    _poch1,
    _poch2,
    _poch2_table,
    _powers,
    theta,
)
from dynell.rmatrix import _r_array

from helpers import make_params

GRID = GridSpec()
POINTS = GRID.sample_points()
TOL = GRID.tolerance


def _clear_caches():
    for fn in (_powers, _poch1, _poch2_table, _poch2, _r_array, rmatrix._grid_z_factors):
        fn.cache_clear()
    special._GRID.clear()
    rmatrix._R_SAMPLES.clear()
    # the interned patterns and what is derived from them, so each criterion
    # still times a cold start
    shiftcalc._PATTERNS.clear()
    shiftcalc._DERIVED.clear()


def record(num, ok, message):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {message}"
    print(line)
    assert ok, line


def _run_over_points(fn, threshold):
    """Run a check at every grid point; return (worst residual, ran, skipped)
    and assert every residual that was not stopped by a singular point is
    within threshold."""
    worst, ran, skipped = 0.0, 0, 0
    for pt in POINTS:
        try:
            residual = fn(pt)
        except SingularPointError:
            skipped += 1
            continue
        ran += 1
        assert residual <= threshold, (pt.index, residual)
        worst = max(worst, residual)
    assert ran >= len(POINTS) // 2, "too many singular skips for a meaningful run"
    return worst, ran, skipped


def test_criterion_01_special_function_layer():
    _clear_caches()
    t0 = time.perf_counter()
    worst = 0.0
    for pt in POINTS:
        worst = max(worst, check_theta_quasiperiodicity(pt.params, pt.zs))
        worst = max(worst, check_theta_inversion(pt.params, pt.zs))
    trig = Params.make(0.6855654600401044, 0.0)
    closed_forms = max(
        abs(theta(2.0, trig) - (-1.0)),
        abs(theta(0.3 + 0.4j, trig) - (1 - (0.3 + 0.4j))),
        abs(theta(1.0, trig)),
    )
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and closed_forms <= 1e-14 and dt < 1.0
    record(
        1, ok,
        f"theta quasi-periodicity/inversion worst={worst:.2e} (<1e-12), "
        f"p=0 closed forms |err|={closed_forms:.2e} (<=1e-14), {dt:.2f}s (<1s)",
    )


def test_criterion_02_dybe():
    _clear_caches()
    t0 = time.perf_counter()
    worst = 0.0
    ran = skipped = 0
    for twisted in (False, True):
        w, r, sk = _run_over_points(
            lambda pt: check_dybe(pt.params, pt.s, *pt.zs[:3], twisted=twisted), TOL
        )
        worst, ran, skipped = max(worst, w), ran + r, skipped + sk
    ctrl = check_dybe(
        POINTS[0].params, POINTS[0].s, *POINTS[0].zs[:3],
        corruption="drop_spectator_shift",
    )
    dt = time.perf_counter() - t0
    ok = worst < TOL and ctrl > CONTROL_THRESHOLD and dt < 10.0
    record(
        2, ok,
        f"DYBE worst residual={worst:.2e} (<1e-9) over {ran} runs "
        f"({skipped} skipped), control residual={ctrl:.2e} (>1e-3), "
        f"{dt:.2f}s (<10s)",
    )


def test_criterion_03_unitarity_and_periodicity():
    worst_u, ran, skipped = _run_over_points(
        lambda pt: check_unitarity(pt.params, pt.s, pt.zs[0]), TOL
    )
    worst_ut, _, _ = _run_over_points(
        lambda pt: check_unitarity(pt.params, pt.s, pt.zs[0], twisted=True), TOL
    )
    worst_n = max(check_n_periodicity(pt.params, pt.zs) for pt in POINTS)
    ok = max(worst_u, worst_ut) < TOL and worst_n < TOL
    record(
        3, ok,
        f"unitarity worst={max(worst_u, worst_ut):.2e}, n(z) q^4-periodicity "
        f"worst={worst_n:.2e} (both <1e-9; {ran} ran, {skipped} skipped)",
    )


def test_criterion_04_crossing_relations():
    worst_r, ran_r, _ = _run_over_points(
        lambda pt: check_crossing(pt.params, pt.s, pt.zs[0]), TOL
    )
    worst_t, ran_t, _ = _run_over_points(
        lambda pt: check_crossing(pt.params, pt.s, pt.zs[0], twisted=True), TOL
    )
    ctrl = check_crossing(
        POINTS[0].params, POINTS[0].s, POINTS[0].zs[0], twisted=True,
        corruption="drop_gamma",
    )
    ok = max(worst_r, worst_t) < TOL and ctrl > CONTROL_THRESHOLD
    record(
        4, ok,
        f"crossing worst={worst_r:.2e}, gauged crossing worst={worst_t:.2e} "
        f"(<1e-9; {ran_r}/{ran_t} ran), Gamma-removal control "
        f"residual={ctrl:.2e} (>1e-3)",
    )


def test_criterion_05_crossing_unitarity_and_proof_chain():
    worst_t, ran_t, sk_t = _run_over_points(
        lambda pt: check_crossing_unitarity(pt.params, pt.s, pt.zs[0], twisted=True),
        TOL,
    )
    worst_r, ran_r, sk_r = _run_over_points(
        lambda pt: check_crossing_unitarity(pt.params, pt.s, pt.zs[0], twisted=False),
        TOL,
    )
    worst_chain, chain_ran = 0.0, 0
    for pt in POINTS:
        for step, residual in check_proof_chain_cor22(pt.params, pt.s, pt.zs[0]).items():
            if isinstance(residual, SingularPointError):
                continue
            chain_ran += 1
            assert residual <= TOL, (step, pt.index, residual)
            worst_chain = max(worst_chain, residual)
    ok = max(worst_t, worst_r) < TOL and worst_chain < TOL
    record(
        5, ok,
        f"crossing-unitarity worst={max(worst_t, worst_r):.2e} "
        f"({ran_t}+{ran_r} ran, {sk_t}+{sk_r} skipped), proof chain worst="
        f"{worst_chain:.2e} over {chain_ran} step checks (all <1e-9)",
    )


def test_criterion_06_twist_equivalence():
    worst, ran, skipped = 0.0, 0, 0
    for pt in POINTS:
        try:
            point = RPoint(pt.zs[0], pt.s, pt.params)
            a = twist_of_r(point).at(pt.s)
            b = build_r_twisted(point).at(pt.s)
        except SingularPointError:
            skipped += 1
            continue
        ran += 1
        worst = max(worst, abs(a - b).max() / max(1.0, abs(b).max()))
    ok = worst < 1e-10 and ran >= len(POINTS) // 2
    record(
        6, ok,
        f"twist equivalence worst entrywise residual={worst:.2e} (<1e-10) "
        f"at {ran} points ({skipped} skipped)",
    )


def test_criterion_07_trace_exchange_lemma():
    params = make_params()
    worst = 0.0
    for seed in range(20):
        residual = check_lemma_p1(params, seed)
        assert residual <= params.tolerance
        worst = max(worst, residual)
    ok = worst < TOL
    record(7, ok, f"trace-exchange lemma worst residual={worst:.2e} over 20 seeds (<1e-9)")


def test_criterion_08_criticality_dichotomy():
    params = make_params()
    q = params.q
    s0, z1, z2 = 0.37 + 0.11j, 1.3 + 0.4j, 0.7 - 0.2j
    rng = np.random.default_rng(2024)
    worst_on = 0.0
    for _ in range(10):
        t = np.exp(rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
        residual = check_magic(params, s0, z1, z2, q**-2 * t, q**-2 / t)
        assert residual <= params.tolerance
        worst_on = max(worst_on, residual)
    off = [
        check_magic(params, s0, z1, z2, q**-2 * np.exp(d), q**-2)
        for d in (0.1, -0.1)
    ]
    rows = check_a_equals_n(params, z1, z2)
    ok = (
        worst_on < TOL
        and min(off) > CONTROL_THRESHOLD
        and rows <= params.tolerance
    )
    record(
        8, ok,
        f"critical locus worst={worst_on:.2e} over 10 draws (<1e-9), "
        f"off-critical |delta|=0.1 residuals {off[0]:.2e}/{off[1]:.2e} (>1e-3), "
        f"pairing-table residual={rows:.2e}",
    )


def test_criterion_09_trace_weight_forms():
    worst, ran, skipped = _run_over_points(
        lambda pt: check_n_forms(pt.params, pt.s), TOL
    )
    record(
        9, worst < TOL,
        f"trace-weight double construction worst={worst:.2e} (<1e-9; "
        f"{ran} ran, {skipped} skipped)",
    )


def test_criterion_10_integration_trace():
    worst, ran, skipped = _run_over_points(
        lambda pt: integration_trace_check(pt.params, pt.s, *pt.zs[:3]), TOL
    )
    record(
        10, worst < TOL,
        f"evaluation-model trace check worst={worst:.2e} (<1e-9; "
        f"{ran} ran, {skipped} skipped)",
    )


def test_criterion_11_full_suite():
    _clear_caches()
    t0 = time.perf_counter()
    reports = run_suite(GRID)
    dt = time.perf_counter() - t0
    counts = summarize(reports)
    coverage = (len(reports) - counts["skipped"]) / len(reports)
    first = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    second = json.dumps(
        [r.to_dict() for r in run_suite(GRID)], sort_keys=True
    )
    ok = (
        counts["fail"] == 0
        and coverage >= 0.9
        and dt < 60.0
        and suite_passes(reports)
        and first == second
    )
    record(
        11, ok,
        f"default suite: {counts['pass']} pass / {counts['fail']} fail / "
        f"{counts['skipped']} skipped (coverage {coverage:.1%} >= 90%), "
        f"{dt:.1f}s (<60s), seeded rerun byte-identical",
    )
    # the statuses of the default grid, pinned so that a refactor cannot
    # move one silently; all 29 skips are absolute det-guard skips
    skipped = Counter(
        r.name.split(".")[0] for r in reports if r.status == "skipped-singular"
    )
    assert counts == {"pass": 971, "fail": 0, "skipped": 29}
    assert skipped == {"crossunit": 15, "magic": 10, "cor22chain": 4}
    det_families = ("crossunit.negctrl", "crossunit.r", "crossunit.rtilde",
                    "magic.critical", "magic.negctrl")
    assert sorted(
        (r.name, r.point["index"]) for r in reports if r.status == "skipped-singular"
    ) == sorted(
        [("cor22chain.step2", i) for i in (1, 11, 18, 22)]
        + [(name, i) for name in det_families for i in (1, 5, 11, 18, 22)]
    )
