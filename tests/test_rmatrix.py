"""R-matrix construction, twist gauge, and diagonal dressing factors."""

import numpy as np
import pytest

from dynell import (
    DynMatrix,
    Params,
    RPoint,
    SingularPointError,
    build_r,
    build_r_twisted,
    cross_gauge,
    gamma_twist,
    gauge_g,
    mu_scalar,
    trace_weight,
    trace_weight_direct,
    twist_of_r,
    qpochhammer,
    rho_norm,
    theta,
    unitarity_scalar,
    upsilon,
    upsilon_ratio,
    zero_weight_check,
)
from dynell.checks import GridSpec
from dynell.rmatrix import _R_PATTERN, _g22, _qpow, _r_array, _r_dyn, dyn_w, ups_ratio
from dynell.shiftcalc import PAULI_Y, guarded_div, shift_scalar, weight

from helpers import make_params, resid

PARAMS = make_params()
S0 = 0.37 + 0.11j
Z0 = 0.6 + 0.2j

# mpmath oracle (tests/make_oracles.py): b(z0) * bbar(z0) at s0, order 400
B_TIMES_BBAR = 0.150052928102181 - 0.06872664864554173j


def point(z=Z0, s=S0, params=PARAMS):
    return RPoint(z, s, params)


class TestBuildR:
    def test_structural_zero_pattern(self):
        r = build_r(point())
        nonzero = {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        assert set(r.masks) == {0}
        assert {tuple(ij) for ij in np.argwhere(r.masks[0])} == nonzero

    def test_zero_weight(self):
        assert zero_weight_check(build_r(point()), [S0], 1e-14)
        assert zero_weight_check(build_r_twisted(point()), [S0], 1e-14)

    def test_components_at_unit_spectral_parameter(self):
        # strip the normalization: b(1) = bbar(1) = 0, c(1) = cbar(1) = 1
        params = make_params()
        w = dyn_w(S0, params)
        from dynell import theta

        q2 = params.q**2
        b = theta(q2 * w, params) * theta(1.0, params)
        assert b == 0
        c = theta(q2, params) * theta(w * 1.0, params) / (
            theta(w, params) * theta(q2, params)
        )
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_product_of_middle_diagonal_matches_oracle(self):
        params = make_params(truncation_order=400)
        r = build_r(point(params=params)).at(S0)
        rho = rho_norm(Z0, params)
        assert (r[1, 1] / rho) * (r[2, 2] / rho) == pytest.approx(
            B_TIMES_BBAR, abs=1e-13
        )

    def test_unitarity(self):
        for builder in (build_r, build_r_twisted):
            a = builder(point()).at(S0)
            b = builder(point(z=1 / Z0)).swap_legs(1, 2).at(S0)
            n = unitarity_scalar(Z0, PARAMS)
            assert resid(a @ b, n * np.eye(4)) < PARAMS.tolerance

    def test_entries_evaluable_at_shifted_s(self):
        r = build_r(point())
        for k in (-2, -1, 1, 2):
            arr = r.at(S0 + k)
            assert np.isfinite(arr).all()

    def test_singular_guard_on_pole(self):
        # z = 1 is a pole of the normalization factor
        with pytest.raises(SingularPointError):
            build_r(point(z=1.0)).at(S0)


class TestTwistGauge:
    def test_twisted_b_entries_vanish_at_unit_spectral_parameter(self):
        # the Theta(z) factor kills both dressed diagonal components at z = 1
        from dynell import qpochhammer, theta

        params = PARAMS
        p, q, n = params.p, params.q, params.truncation_order
        w = dyn_w(S0, params)
        thz = theta(1.0, params)
        b_prime = (
            q
            * qpochhammer(p * q**2 / w, [p], n)
            * qpochhammer(p / (q**2 * w), [p], n)
            / qpochhammer(p / w, [p], n) ** 2
            * thz
            / theta(q**2, params)
        )
        bbar_prime = (
            q
            * qpochhammer(q**2 * w, [p], n)
            * qpochhammer(w / q**2, [p], n)
            / qpochhammer(w, [p], n) ** 2
            * thz
            / theta(q**2, params)
        )
        assert b_prime == 0
        assert bbar_prime == 0

    def test_twist_equivalence(self):
        t1 = twist_of_r(point()).at(S0)
        t2 = build_r_twisted(point()).at(S0)
        assert resid(t2, t1) < 1e-10

    def test_twist_with_identity_gauge_is_plain_r(self):
        # dressing by the identity gauge leaves the matrix unchanged
        eye = DynMatrix.identity(1)
        r = build_r(point())
        left = eye.embed(2, (2,)) @ eye.embed(2, (1,)).shift_col({2: +1})
        right = eye.embed(2, (1,)) @ eye.embed(2, (2,)).shift_col({1: +1})
        assert resid((left @ r @ right).at(S0), r.at(S0)) == 0

    def test_twist_preserves_zero_pattern(self):
        t = twist_of_r(point())
        assert zero_weight_check(t, [S0], 1e-14)

    def test_gauge_entry_one_is_constant(self):
        g = gauge_g(PARAMS)
        assert g.at(S0)[0, 0] == 1.0

    def test_gauge_at_p_zero(self):
        params = Params.make(0.6855654600401044, 0.0)
        g = gauge_g(params)
        w = dyn_w(S0, params)
        expect = np.exp(-S0 * np.log(params.q)) * (1 - w)
        assert g.at(S0)[1, 1] == pytest.approx(expect)

    def test_det_equals_second_entry(self):
        g = gauge_g(PARAMS).at(S0)
        assert np.linalg.det(g) == pytest.approx(g[1, 1])

    @pytest.mark.parametrize("s", [S0, -0.8 + 0.4j, 1.3 - 0.45j])
    def test_single_base_products_equal_the_wrapper_form(self, s):
        # the gauge entry and the twisted b, bbar call _poch1 directly; their
        # values are the qpochhammer wrapper's, bit for bit
        p, n = PARAMS.p, PARAMS.truncation_order
        q = PARAMS.q
        q2 = q * q
        w = dyn_w(s, PARAMS)

        def poch(x):
            return qpochhammer(x, [p], n)

        g22 = _qpow(-s, PARAMS) * poch(w) * poch(p * q2 / w)
        assert _g22(PARAMS, s) == g22
        thz, thq2z = theta(Z0, PARAMS), theta(q2 * Z0, PARAMS)
        pw, ww = poch(p / w), poch(w)
        b = q * poch(p * q2 / w) * poch(p / (q2 * w)) / (pw * pw) * thz / thq2z
        bb = q * poch(q2 * w) * poch(w / q2) / (ww * ww) * thz / thq2z
        r = _r_array(Z0, s, PARAMS, True)
        assert r[1, 1] == (rho_norm(Z0, PARAMS) * np.array([b]))[0]
        assert r[2, 2] == (rho_norm(Z0, PARAMS) * np.array([bb]))[0]


class TestUpsilon:
    def test_ratio_at_zero_shift(self):
        assert upsilon_ratio(S0, 0, PARAMS) == pytest.approx(1.0)

    def test_ratio_telescopes(self):
        r1 = upsilon_ratio(S0, 1, PARAMS)
        r2 = upsilon_ratio(S0 + 1, -1, PARAMS)
        assert r1 * r2 == pytest.approx(1.0, abs=1e-12)

    def test_ratio_matches_direct_quotient(self):
        u = upsilon(PARAMS)
        for k in (-2, 1, 3):
            assert upsilon_ratio(S0, k, PARAMS) == pytest.approx(
                u(S0 + k) / u(S0), abs=1e-10
            )

    def test_quasi_periodicity_of_ratio(self):
        # under w -> p w the theta factors transform; the ratio follows the
        # theta quasi-periodicity numerically
        from dynell import theta

        params = PARAMS
        w = dyn_w(S0, params)
        q2 = params.q**2
        lhs = theta(params.p * w * q2, params) / theta(params.p * w, params)
        rhs = (theta(w * q2, params) / q2 / theta(w, params))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_ratio_guard(self):
        # w = 1 (s = 0) is a zero of theta
        with pytest.raises(SingularPointError):
            upsilon_ratio(0.0, 1, PARAMS)

    def test_ratio_guard_names_s(self):
        # w q^2 = 1 at s = -1: the denominator Theta(w q^2) vanishes
        with pytest.raises(SingularPointError) as info:
            ups_ratio(0, 1, PARAMS)(-1.0 + 0j)
        assert str(info.value).startswith("singular point: |Theta(w q^{2})| = ")
        assert str(info.value).endswith(" below guard at s = (-1+0j)")


class TestDressingFactors:
    def test_n_two_forms_agree(self):
        a = trace_weight(PARAMS).at(S0)
        b = trace_weight_direct(PARAMS).at(S0)
        assert resid(a, b) < PARAMS.tolerance

    def test_n_forms_agree_after_shift(self):
        a = trace_weight(PARAMS).at(S0 + 1)
        b = trace_weight_direct(PARAMS).at(S0 + 1)
        assert resid(a, b) < PARAMS.tolerance

    def test_promoting_n_back_recovers_cross_gauge(self):
        n_back = trace_weight(PARAMS).shift_col({1: +1})
        g = cross_gauge(PARAMS)
        assert resid(n_back.at(S0), g.at(S0)) < 1e-14
        prod = g.inv(PARAMS.singular_guard).at(S0) @ n_back.at(S0)
        assert resid(prod, np.eye(2)) < 1e-12

    def test_gamma_is_diagonal_of_gauge_entries(self):
        g = gauge_g(PARAMS)
        gam = gamma_twist(PARAMS).at(S0)
        assert gam[0, 0] == pytest.approx(g.at(S0)[1, 1], rel=1e-12)
        assert gam[1, 1] == pytest.approx(g.at(S0 + 1)[1, 1], rel=1e-12)

    def test_gamma_mu_reduction(self):
        mu = mu_scalar(PARAMS)
        ups = upsilon(PARAMS)
        gam = gamma_twist(PARAMS)
        mid = DynMatrix.diagonal(
            1,
            lambda i: guarded_div(
                mu, shift_scalar(ups, weight(i)), PARAMS.singular_guard
            ),
        )
        lhs = gam.at(S0) @ mid.at(S0) @ gam.shift_col({1: +1}).at(S0)
        assert resid(lhs, cross_gauge(PARAMS).at(S0)) < PARAMS.tolerance

    def test_gamma_sigma_y_commutation(self):
        g = gauge_g(PARAMS)
        det_g = np.prod(np.diag(g.at(S0)))
        det_gsc = np.prod(np.diag(g.shift_col({1: -1}).at(S0)))
        gam = gamma_twist(PARAMS)
        lhs = gam.inv(PARAMS.singular_guard).at(S0) @ PAULI_Y
        rhs = (1.0 / (det_g * det_gsc)) * PAULI_Y @ gam.at(S0)
        assert resid(lhs, rhs) < PARAMS.tolerance


class TestRPoint:
    def test_validate_passes_generic_point(self):
        point().validate()

    def test_validate_rejects_pole(self):
        with pytest.raises(SingularPointError):
            RPoint(1.0, S0, PARAMS).validate()

    def test_validate_rejects_theta_zero_of_w(self):
        with pytest.raises(SingularPointError):
            RPoint(Z0, 0.0, PARAMS).validate()


class TestStackedR:
    """A grid read of R is assembled as one stack, which agrees with the
    one-point assembly of _r_array sample by sample."""

    @pytest.mark.parametrize("twisted", [False, True])
    def test_stack_equals_the_one_point_assembly(self, twisted):
        points = GridSpec().sample_points()
        ps = [pt.params for pt in points]
        s = np.array([pt.s + k for pt in points for k in (0, 1, -1, 2)])
        for i in range(3):
            zs = [pt.zs[i] for pt in points]
            leaf = _r_dyn(zs, ps, twisted)
            log = []
            vals = leaf.ev(s, leaf.masks, log)
            assert log == []
            for j, r in enumerate(vals[0]):
                p = j // 4
                want = _r_array(zs[p], complex(s[j]), ps[p], twisted)
                assert abs(r - want).max() <= 1e-13 * abs(want).max()

    @pytest.mark.parametrize("twisted", [False, True])
    def test_a_tripped_sample_keeps_the_one_point_detail(self, twisted):
        # point 1 sits on the zeros of Theta(q^2 z), point 2 on rho's pole at
        # z = 1, and s = 0 puts w = 1 on the zeros of Theta(w)
        zs = [Z0, 1 / PARAMS.q**2, 1.0 + 0j]
        s = np.array([S0, 0.0, S0 + 1] * 3)
        leaf = _r_dyn(zs, [PARAMS] * 3, twisted)
        log = []
        vals = leaf.ev(s, leaf.masks, log)
        trips = [None] * len(s)
        for i, exc in log:
            trips[i] = exc
        want = []
        for z, x in zip(np.repeat(zs, 3).tolist(), s.tolist()):
            try:
                _r_array(z, x, PARAMS, twisted)
                want.append(None)
            except SingularPointError as exc:
                want.append(str(exc))
        assert [t and str(t) for t in trips] == want
        labels = {d.split("|")[1] for d in want if d}
        assert labels == {"Theta(q^2 z)", "Theta(w)", "(z; p, q^4)"}
        assert want.count(None) == 2
        at = [i for i, _ in log]
        assert at == sorted(set(at))  # logged once each, in sample order
        tripped = [t is not None for t in trips]
        assert not vals[0][tripped].any()
        assert vals[0][[0, 2]].all(axis=0)[_R_PATTERN].all()
