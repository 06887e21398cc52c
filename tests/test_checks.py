"""Identity checks, negative controls, and the suite harness."""

import json

import numpy as np
import pytest

from dynell.checks import (
    _REGISTRY,
    _skew_resid,
    CONTROL_THRESHOLD,
    GridSpec,
    all_check_names,
    check_a_equals_n,
    check_crossing,
    check_crossing_unitarity,
    check_dybe,
    check_lemma_p1,
    check_magic,
    check_n_forms,
    check_proof_chain_cor22,
    check_unitarity,
    integration_trace_check,
    resolve_check_names,
    run_suite,
    suite_passes,
    summarize,
)
from dynell import DynMatrix, Params, weight_shift_matrix

from helpers import make_params

PARAMS = make_params()
S0 = 0.37 + 0.11j
Z = (1.3 + 0.4j, 0.7 - 0.2j, 1.1 + 0.9j)


def assert_pass(report, tol=None):
    assert report.status == "pass", (report.name, report.status, report.detail)
    assert report.residual <= (tol if tol is not None else PARAMS.tolerance)


def assert_control_fails(report):
    # a control report "passes" exactly when the corrupted identity fails
    assert report.status == "pass", (report.name, report.detail)
    assert report.residual > CONTROL_THRESHOLD


class TestDybe:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_passes(self, twisted):
        assert_pass(check_dybe(PARAMS, S0, *Z, twisted=twisted))

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        assert_pass(check_dybe(params, S0, *Z))

    def test_negative_control(self):
        rep = check_dybe(PARAMS, S0, *Z, corruption="drop_spectator_shift")
        assert rep.name == "dybe.negctrl"
        assert_control_fails(rep)


class TestUnitarity:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_passes(self, twisted):
        assert_pass(check_unitarity(PARAMS, S0, Z[0], twisted=twisted))

    def test_unit_circle_point(self):
        z = np.exp(0.7j)
        assert_pass(check_unitarity(PARAMS, S0, z))

    def test_rescaling_control(self):
        assert_control_fails(check_unitarity(PARAMS, S0, Z[0], corruption="rescale"))


class TestCrossing:
    def test_plain(self):
        assert_pass(check_crossing(PARAMS, S0, Z[0]))

    def test_twisted(self):
        assert_pass(check_crossing(PARAMS, S0, Z[0], twisted=True))

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        assert_pass(check_crossing(params, S0, Z[0]))
        assert_pass(check_crossing(params, S0, Z[0], twisted=True))

    def test_gamma_removal_control(self):
        assert_control_fails(
            check_crossing(PARAMS, S0, Z[0], twisted=True, corruption="drop_gamma")
        )


class TestCrossingUnitarity:
    @pytest.mark.parametrize("twisted", [True, False])
    def test_passes(self, twisted):
        assert_pass(check_crossing_unitarity(PARAMS, S0, Z[0], twisted=twisted))

    def test_wrong_argument_control(self):
        assert_control_fails(
            check_crossing_unitarity(PARAMS, S0, Z[0], corruption="wrong_shift_arg")
        )


class TestProofChain:
    def test_all_steps_pass(self):
        reports = check_proof_chain_cor22(PARAMS, S0, Z[0])
        assert len(reports) == 7
        for rep in reports:
            assert_pass(rep)

    def test_trigonometric_limit(self):
        params = Params.make(0.6855654600401044, 0.0)
        for rep in check_proof_chain_cor22(params, S0, Z[0]):
            assert_pass(rep)

    def test_mu_factor_control(self):
        reports = check_proof_chain_cor22(PARAMS, S0, Z[0], corruption="drop_detg_sc")
        assert len(reports) == 1
        assert reports[0].name == "cor22chain.negctrl"
        assert_control_fails(reports[0])


class TestLemmaP1:
    def test_twenty_seeds(self):
        for seed in range(20):
            assert_pass(check_lemma_p1(PARAMS, seed))

    def test_identity_inputs_reduce_to_conjugated_trace(self):
        # A = C = identity: both sides equal tr_1 of the conjugated matrix
        eye = DynMatrix.identity(2)
        rng = np.random.default_rng(3)
        from helpers import rand_matrix

        m1 = rand_matrix(1, rng).embed(2, (1,))
        d1m = weight_shift_matrix(2, 1, -1)
        d1p = weight_shift_matrix(2, 1, +1)
        lhs = (eye @ d1m @ m1 @ d1p @ eye).partial_trace(1)
        core = (d1m @ m1 @ d1p).partial_trace(1)
        assert _skew_resid(lhs, core, [S0, S0 + 0.4]) < 1e-12

    def test_swapped_dressing_control(self):
        assert_control_fails(check_lemma_p1(PARAMS, 11, corruption="swap_sl_sc"))


class TestMagic:
    def test_critical_locus_passes(self):
        q = PARAMS.q
        rng = np.random.default_rng(17)
        for _ in range(10):
            t = np.exp(rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
            rep = check_magic(PARAMS, S0, Z[0], Z[1], q**-2 * t, q**-2 / t)
            assert_pass(rep)

    def test_canonical_pair(self):
        q = PARAMS.q
        assert_pass(check_magic(PARAMS, S0, Z[0], Z[1], q**-2, q**-2))

    @pytest.mark.parametrize("delta", [0.1, -0.1])
    def test_off_critical_fails(self, delta):
        q = PARAMS.q
        rep = check_magic(
            PARAMS, S0, Z[0], Z[1], q**-2 * np.exp(delta), q**-2
        )
        assert rep.status == "fail"
        assert rep.residual > CONTROL_THRESHOLD

    def test_detail_reports_product_gap(self):
        q = PARAMS.q
        rep = check_magic(PARAMS, S0, Z[0], Z[1], q**-2, q**-2)
        assert "alpha*beta" in rep.detail


class TestAEqualsN:
    def test_all_rows(self):
        assert_pass(check_a_equals_n(PARAMS, Z[0], Z[1]))


class TestNForms:
    def test_passes(self):
        assert_pass(check_n_forms(PARAMS, S0))

    def test_flip_control(self):
        assert_control_fails(check_n_forms(PARAMS, S0, corruption="flip_sc_sign"))


class TestTraceIntegration:
    def test_passes(self):
        assert_pass(integration_trace_check(PARAMS, S0, *Z))

    def test_identity_n_control(self):
        assert_control_fails(
            integration_trace_check(PARAMS, S0, *Z, corruption="identity_n")
        )

    def test_coincident_spectral_points_skip_deterministically(self):
        a = integration_trace_check(PARAMS, S0, Z[0], Z[1], Z[0])
        b = integration_trace_check(PARAMS, S0, Z[0], Z[1], Z[0])
        assert a.status == "skipped-singular"
        assert a.status == b.status and a.detail == b.detail


class TestResidualTruncationScaling:
    def test_doubling_order_does_not_degrade_residuals(self):
        coarse = make_params()
        fine = make_params(truncation_order=2 * coarse.truncation_order)
        pairs = [
            (check_dybe(p, S0, *Z) for p in (coarse, fine)),
            (check_crossing(p, S0, Z[0]) for p in (coarse, fine)),
            (check_unitarity(p, S0, Z[0]) for p in (coarse, fine)),
        ]
        for gen in pairs:
            r_coarse, r_fine = [next(gen) for _ in range(2)]
            assert r_fine.residual <= 10 * max(r_coarse.residual, 1e-16)


class TestSuite:
    def test_registry_contains_negative_controls(self):
        names = all_check_names()
        assert "dybe.negctrl" in names
        assert "cor22chain" in names

    def test_registry_keys_name_their_reports(self):
        grid = GridSpec()
        pt = grid.sample_points()[0]
        for key, runner in _REGISTRY.items():
            reports = runner(grid, pt)
            assert reports, key
            for rep in reports:
                assert rep.name == key or rep.name.startswith(key + "."), (key, rep.name)

    def test_resolve_prefixes(self):
        assert resolve_check_names(["magic"]) == ["magic.critical", "magic.negctrl"]
        assert resolve_check_names(["all"]) == all_check_names()
        with pytest.raises(ValueError):
            resolve_check_names(["nonsense"])

    def test_empty_selection_gives_empty_report(self):
        grid = GridSpec(n_points=1, checks=())
        assert run_suite(grid) == []
        assert suite_passes([])

    def test_small_suite_passes_and_is_deterministic(self):
        grid = GridSpec(seed=3, n_points=2)
        r1 = run_suite(grid)
        r2 = run_suite(grid)
        assert suite_passes(r1)
        s1 = json.dumps([r.to_dict() for r in r1], sort_keys=True)
        s2 = json.dumps([r.to_dict() for r in r2], sort_keys=True)
        assert s1 == s2

    def test_reports_ordered_by_name_then_index(self):
        grid = GridSpec(seed=3, n_points=3, checks=("theta", "nforms"))
        reports = run_suite(grid)
        # scheduled names run in sorted order; per name, points run in order
        scheduled = sorted(resolve_check_names(("theta", "nforms")))
        expected = [(n, i) for n in scheduled for i in range(3)]
        assert [(r.name, r.point["index"]) for r in reports] == expected

    def test_summarize_and_coverage_rule(self):
        from dynell.checks import CheckReport

        mk = lambda st: CheckReport("x", {}, 0.0 if st != "skipped-singular" else None, st)
        reports = [mk("pass")] * 9 + [mk("skipped-singular")]
        assert suite_passes(reports)
        reports = [mk("pass")] * 8 + [mk("skipped-singular")] * 2
        assert not suite_passes(reports)
        reports = [mk("pass")] * 9 + [mk("fail")]
        assert not suite_passes(reports)
        assert summarize(reports) == {"pass": 9, "fail": 1, "skipped": 0}

    def test_fixed_params_grid(self):
        grid = GridSpec(
            seed=1, n_points=2, checks=("unitarity.r",),
            q_half_fixed=0.6855654600401044 + 0j, p_fixed=0.31 + 0j,
        )
        reports = run_suite(grid)
        assert all(r.point["q"] == pytest.approx(0.47) for r in reports)
        assert suite_passes(reports)
