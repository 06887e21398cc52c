"""R-matrix construction, twist gauge, and diagonal dressing factors."""

import traceback
from functools import partial

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
from dynell import checks, rmatrix
from dynell.checks import GridSpec
from dynell.rmatrix import (_R_PATTERN, _dyn_w_rows, _g22, _qpow, _r_array, _r_dyn,
                            dyn_w, ups_ratio)
from dynell.special import _poch1, guarded
from dynell.shiftcalc import PAULI_Y, Trips, _leg_shifts, guarded_div, shift_scalar, weight

from helpers import make_params, outcome, resid

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


def _bits(x) -> bytes:
    return np.array([x], complex).tobytes()


class TestArrayForms:
    """The array forms of the grid path equal their per-sample forms bit for
    bit: dyn_w over a read's samples, and the gauge entry's two products."""

    def test_w_rows_equal_dyn_w(self):
        rng = np.random.default_rng(11)
        n = 1200
        q_half = rng.uniform(0.4, 0.8, n) * np.exp(1j * rng.uniform(-0.3, 0.3, n))
        params = tuple(Params.make(q, 0.31) for q in q_half.tolist())
        s = rng.uniform(-3, 3, n) + 1j * rng.uniform(-1, 1, n)
        s[:100] = s[:100].real  # real s
        s.imag[100:200] = -0.0
        s.real[200:300] = -0.0
        s[300] = -30
        assert np.signbit(s.imag[100:200]).all() and np.signbit(s.real[200:300]).all()
        pts = np.arange(n)
        got = _dyn_w_rows(s, params, pts)
        assert [_bits(w) for w in got] == [
            _bits(dyn_w(x, p)) for x, p in zip(s.tolist(), params)
        ]
        real = [dyn_w(x.real, p) for x, p in zip(s[:100].tolist(), params)]
        assert [_bits(w) for w in got[:100]] == [_bits(w) for w in real]
        # per-point Params gathered by pts
        pts = rng.integers(0, 25, n)
        got = _dyn_w_rows(s, params[:25], pts)
        assert [_bits(w) for w in got] == [
            _bits(dyn_w(x, params[p])) for x, p in zip(s.tolist(), pts.tolist())
        ]

    def test_g22_equals_the_two_single_base_products(self):
        rng = np.random.default_rng(12)
        samples = (rng.uniform(-2, 2, 40) + 1j * rng.uniform(-0.5, 0.5, 40)).tolist() + [-30]
        nonfinite = 0
        for pt in GridSpec().sample_points():
            prm = pt.params
            p, n, q2 = prm.p, prm.truncation_order, prm.q * prm.q
            for s in samples + [pt.s]:
                with np.errstate(over="ignore", invalid="ignore"):
                    rmatrix._G22.clear()  # formed, not read back
                    got = _g22(prm, s)
                    w = dyn_w(s, prm)
                    want = _qpow(-s, prm) * _poch1(w, p, n) * _poch1(p * q2 / w, p, n)
                assert _bits(got) == _bits(want)
                nonfinite += not np.isfinite(got)
        assert nonfinite  # s = -30 overflows at some points


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
        assert gam[0, 0] == g.at(S0)[1, 1]
        assert gam[1, 1] == g.at(S0 + 1)[1, 1]
        assert gam[0, 1] == gam[1, 0] == 0.0

    @pytest.mark.parametrize("params", [
        PARAMS, [pt.params for pt in GridSpec(n_points=5).sample_points()]
    ], ids=["one-point", "grid"])
    def test_gamma_is_its_definition(self, params):
        # the definition built literally: det g scales g^{-1} g^{-sc}, and a
        # sample trips on g^{-1}'s det guard; s = 0 puts (1; p) = 0 in det g,
        # and s = 1e-8 puts det g just below the guard
        per_point = [params] if isinstance(params, Params) else params
        det_g = partial(_g22, params) if isinstance(params, Params) else [
            partial(_g22, prm) for prm in params]
        g = gauge_g(params)
        literal = (g.inv(PARAMS.singular_guard) @ g.shift_col({1: -1})).scale(det_g)
        gam = gamma_twist(params)
        rng = np.random.default_rng(26)
        n = 200 // len(per_point)
        s = np.concatenate([
            (rng.uniform(-2, 2, n) + 1j * rng.uniform(-0.5, 0.5, n)).tolist()
            + [0.0, 1e-8, -1.0, 1.0] for _ in per_point
        ])
        pts = np.repeat(np.arange(len(per_point)), n + 4)
        logs = [], []
        want, got = (m.ev(s, pts, m.masks, log)[0]
                     for m, log in zip((literal, gam), logs))
        assert logs[0] == logs[1]
        tripped = [i for i, _ in logs[1]]
        assert [i % (n + 4) for i in tripped] == [n, n + 1] * len(per_point)
        assert logs[1][0][1] == "singular point: |det| = 0.000e+00 below guard at s = 0j"
        ok = np.ones(len(s), dtype=bool)
        ok[tripped] = False
        assert (abs(got[ok] - want[ok]) <= 1e-14 * abs(want[ok])).all()
        for entry in np.eye(2, dtype=bool):  # either entry alone trips
            log = []
            gam.ev(s, pts, {0: np.diag(entry)}, log)
            assert log == logs[0]
        trips = Trips(len(per_point)), Trips(len(per_point))
        literal.at(s, trips[0])
        gam.at(s, trips[1])
        assert trips[0] == trips[1]

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
        pts = np.repeat(np.arange(len(points)), 4)
        for i in range(3):
            zs = [pt.zs[i] for pt in points]
            leaf = _r_dyn(zs, ps, twisted)
            log = []
            vals = leaf.ev(s, pts, leaf.masks, log)
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
        vals = leaf.ev(s, np.repeat(np.arange(3), 3), leaf.masks, log)
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

    @pytest.mark.parametrize("twisted", [False, True])
    def test_a_kept_sample_is_not_evaluated_again_and_logs_its_trip(self, twisted, monkeypatch):
        # the points of the test above; a second read holds the first's
        # samples in another order, one of them twice
        zs = [Z0, 1 / PARAMS.q**2, 1.0 + 0j]
        s = np.array([S0, 0.0, S0 + 1] * 3)
        pts = np.repeat(np.arange(3), 3)
        stacked, stack = [], rmatrix._r_stack
        monkeypatch.setattr(rmatrix, "_r_stack", lambda *a: stacked.append(len(a[3])) or stack(*a))
        monkeypatch.setattr(rmatrix, "_R_SAMPLES", {})
        leaf = _r_dyn(zs, [PARAMS] * 3, twisted)
        first, second = [], []
        vals = leaf.ev(s, pts, leaf.masks, first)[0]
        order = [8, 7, 6, 5, 4, 3, 2, 1, 0, 4]
        again = leaf.ev(s[order], pts[order], leaf.masks, second)[0]
        assert stacked == [9]
        assert again.tobytes() == vals[order].tobytes()
        trips = {i: str(exc) for i, exc in first}
        assert len(trips) == 7
        assert [(i, str(exc)) for i, exc in second] == [
            (i, trips[k]) for i, k in enumerate(order) if k in trips]
        # every kept or logged trip is its message, and each raising read
        # builds an error of its own
        assert all(type(t) is str for _, t in first + second)
        assert all(t is None or type(t) is str for _, t in rmatrix._R_SAMPLES.values())
        raised = []
        for _ in range(2):
            with pytest.raises(SingularPointError) as info:
                leaf.at(s)
            raised.append(info.value)
        assert raised[0] is not raised[1] and str(raised[0]) == str(raised[1])


def _gamma_read():
    gamma = gamma_twist(PARAMS)  # its det guard trips at s = 0, where (1; p) = 0
    return lambda: gamma.at(0.0)


def _outcome_read():
    tr = Trips(1)
    gamma_twist(PARAMS).at([0.0], tr)

    def read():
        raise tr.outcomes([0.0])[0]

    return read


class TestTripErrors:
    """A trip is kept as its message; each raise builds a new error."""

    @pytest.mark.parametrize("make_read", [
        _gamma_read,
        lambda: lambda: rho_norm(1.0, PARAMS),  # kept in the value cache
        lambda: lambda: build_r(point(z=1.0)).at(S0),
        _outcome_read,
    ], ids=["gamma", "rho", "R", "outcomes"])
    def test_each_raise_is_a_new_error_with_one_traceback_length(self, make_read):
        read, raised = make_read(), []
        for _ in range(3):
            with pytest.raises(SingularPointError) as info:
                read()
            raised.append(info.value)
        assert len({id(e) for e in raised}) == 3
        assert len({str(e) for e in raised}) == 1
        assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


def _theta_def(z, prm):
    """Theta(z) as a value-cache miss forms it."""
    p, n = prm.p, prm.truncation_order
    return _poch1(z, p, n) * _poch1(p / z, p, n) * _poch1(p, p, n)


def _g22_def(prm, s):
    """The gauge entry q^{-s} (w; p)(p q^2/w; p), product by product."""
    p, n, q2 = prm.p, prm.truncation_order, prm.q * prm.q
    w = dyn_w(s, prm)
    return _qpow(-s, prm) * _poch1(w, p, n) * _poch1(p * q2 / w, p, n)


def _ups_def(prm):
    return lambda s: _qpow(-s, prm) * _theta_def(dyn_w(s, prm), prm)


def _ratio_def(kn, kd, prm):
    """upsilon(s + kn) / upsilon(s + kd), one sample at a time, guarded."""
    def ev(s):
        w, q2 = dyn_w(s, prm), prm.q * prm.q
        den = guarded(_theta_def(w * q2**kd, prm), f"Theta(w q^{{{2 * kd}}})",
                      prm.singular_guard, " at s = {}", s)
        return _qpow(-(kn - kd), prm) * _theta_def(w * q2**kn, prm) / den
    return ev


def _mu_def(prm, drop=False):
    det = (lambda s: _g22_def(prm, s)) if drop else (
        lambda s: _g22_def(prm, s) * _g22_def(prm, s + 1))
    return guarded_div(_ups_def(prm), det, prm.singular_guard)


def _gamma_def(prm, i):
    def ev(s):
        det = guarded(_g22_def(prm, s), "det", prm.singular_guard, " at s = {}", s)
        return det if i == 0 else _g22_def(prm, s + 1)
    return ev


class TestGaugeRows:
    """Every gauge diagonal reads its demanded entry over all of a read's
    samples at once, and equals its per-sample definition bit for bit: the
    values, the sign of zero included, and the position and message of each
    trip.  The samples hold complex s, real s (imaginary part -0.0), s = 0
    (Theta(1) = det g = 0), s = 1e-8 (det g below the guard) and s = -30
    (overflow)."""

    GRID5 = [pt.params for pt in GridSpec(n_points=5).sample_points()]
    K2 = [-1, 1, -1, 1]  # step 5's mu(s + k) / mu(s)

    @staticmethod
    def samples(points: int):
        rng = np.random.default_rng(29)
        block = ((rng.uniform(-2, 2, 6) + 1j * rng.uniform(-0.5, 0.5, 6)).tolist()
                 + [complex(x, -0.0) for x in rng.uniform(-2, 2, 3)]
                 + [0j, 1e-8 + 0j, -1 + 0j, 1 + 0j, -30 + 0j])
        s = np.array(block * points)
        assert np.signbit(s.imag[6:9]).all()
        return s, np.repeat(np.arange(points), len(block))

    def assert_rows(self, leaf, entry_def, params) -> set:
        """Each entry alone read as a row equals entry_def(prm, i)(s) at each
        sample, and a tripped sample logs its message and holds zeros; the
        positions in a point's block of the samples that tripped."""
        per_point = [params] if isinstance(params, Params) else params
        s, pts = self.samples(len(per_point))
        d, tripped = leaf.dim, set()
        for i in range(d):
            want, log, trips = np.zeros((len(s), d, d), complex), [], []
            for j, (x, p) in enumerate(zip(s.tolist(), pts.tolist())):
                try:
                    want[j, i, i] = entry_def(per_point[p], i)(x)
                except SingularPointError as exc:
                    trips.append((j, str(exc)))
            with np.errstate(all="ignore"):
                got = leaf.ev(s, pts, {0: np.diag(np.arange(d) == i)}, log)[0]
            assert log == trips
            assert got.tobytes() == want.tobytes()
            tripped |= {j % (len(s) // len(per_point)) for j, _ in trips}
        return tripped

    # a guard of 0.5 trips many samples on several of their guarded
    # quantities at once, so the order of each entry's guards shows
    @pytest.fixture(params=["one-point", "grid", "guard 0.5"])
    def params(self, request):
        return {"one-point": PARAMS, "grid": self.GRID5,
                "guard 0.5": make_params(singular_guard=0.5)}[request.param]

    def test_gamma(self, params):
        with np.errstate(all="ignore"):
            assert self.assert_rows(gamma_twist(params), _gamma_def, params) >= {9, 10}

    # trips: Theta(w) = 0 at s = 0 and below the guard at 1e-8, Theta(w q^{-+2}) at s = +-1
    @pytest.mark.parametrize("nlegs, num, den, tripped", [
        (1, {}, {1: +1}, {11, 12}),  # G
        (1, {1: -1}, {}, {9, 10}),  # N, direct form
        (2, {2: +1}, {}, {9, 10}),  # crossing's U
        (2, {}, {2: +1}, {11, 12}),  # the chain's U^{-1}
        (2, {1: +1}, {1: +1, 2: -1}, {9, 10}),  # the chain's step 5
    ])
    def test_upsilon_ratios(self, params, nlegs, num, den, tripped):
        kn, kd = _leg_shifts(nlegs, num), _leg_shifts(nlegs, den)
        with np.errstate(all="ignore"):
            assert self.assert_rows(rmatrix._ups_diag(params, nlegs, num, den),
                                    lambda prm, i: _ratio_def(kn[i], kd[i], prm), params) >= tripped
            for x in self.samples(1)[0].tolist():  # and the scalar form, at one point
                prm = params if isinstance(params, Params) else params[0]
                assert outcome(ups_ratio(kn[0], kd[0], prm), x) == outcome(
                    _ratio_def(kn[0], kd[0], prm), x)

    @pytest.mark.parametrize("drop", [False, True])
    def test_mu_by_upsilon(self, params, drop):
        def entry(prm, i):
            return guarded_div(_mu_def(prm, drop), shift_scalar(_ups_def(prm), weight(i)),
                               prm.singular_guard)

        with np.errstate(all="ignore"):
            tripped = self.assert_rows(checks._mu_weight_diag(params, drop), entry, params)
            assert tripped >= {9, 10, 11, 12}
            for x in self.samples(1)[0].tolist():
                prm = params if isinstance(params, Params) else params[0]
                assert outcome(mu_scalar(prm), x) == outcome(_mu_def(prm), x)

    def test_mu_ratio(self, params):
        def entry(prm, i):
            return guarded_div(shift_scalar(_mu_def(prm), self.K2[i]), _mu_def(prm),
                               prm.singular_guard)

        with np.errstate(all="ignore"):
            assert self.assert_rows(checks._mu_shift_diag(params), entry, params) >= {9, 10, 11, 12}
