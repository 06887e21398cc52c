"""Skew shift ring and tensor-leg matrix operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynell import (
    DynMatrix,
    SingularPointError,
    promote_shifted_scalar,
    shift_scalar,
    skew_mul,
    weight_shift_matrix,
    zero_weight_check,
)
from dynell.checks import _skew_element as elem
from dynell.checks import _skew_resid as skew_resid
from dynell.shiftcalc import PAULI_Y, index_bits, weight

from helpers import rand_fourier, rand_matrix, sample_s

RNG = np.random.default_rng(20240811)
S_SAMPLES = sample_s(np.random.default_rng(99))


def test_weight_convention():
    assert weight(0) == 1
    assert weight(1) == -1
    assert index_bits(2, 2) == (1, 0)


class TestShiftScalar:
    def test_zero_shift_is_identity(self):
        f = rand_fourier(RNG)
        assert shift_scalar(f, 0) is f

    def test_shifts_compose_additively(self):
        f = rand_fourier(RNG)
        g = shift_scalar(shift_scalar(f, 1), -1)
        for s in S_SAMPLES:
            assert g(s) == pytest.approx(f(s))

    def test_shift_unfolds_argument(self):
        def f(s):
            return s * s + 1j

        assert shift_scalar(f, 3)(0.5) == pytest.approx((3.5) ** 2 + 1j)


class TestSkewRing:
    def test_defining_relation(self):
        f = rand_fourier(RNG)
        lhs = skew_mul(elem({1: 1.0}), elem({0: f}))
        assert set(lhs.masks) == {1}
        for s in S_SAMPLES:
            assert lhs.coeffs_at(s)[1][0, 0] == pytest.approx(f(s + 1))

    def test_inverse_shifts_cancel(self):
        prod = skew_mul(elem({1: 1.0}), elem({-1: 1.0}))
        assert set(prod.masks) == {0}
        assert prod.coeffs_at(0.3 + 0.1j)[0][0, 0] == 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)

        def rand_elem():
            degs = rng.choice(np.arange(-2, 3), size=2, replace=False)
            return elem({int(d): rand_fourier(rng) for d in degs})

        a, b, c = rand_elem(), rand_elem(), rand_elem()
        lhs = skew_mul(skew_mul(a, b), c)
        rhs = skew_mul(a, skew_mul(b, c))
        for s in sample_s(rng, 3):
            lv, rv = lhs.coeffs_at(s), rhs.coeffs_at(s)
            assert set(lv) == set(rv)
            for k in lv:
                assert lv[k][0, 0] == pytest.approx(rv[k][0, 0], abs=1e-9)

    def test_addition_merges_degrees(self):
        a = elem({0: 2.0, 1: 1.0})
        b = elem({1: -1.0})
        tot = (a + b).coeffs_at(0.0)
        assert tot[0][0, 0] == 2.0 and tot[1][0, 0] == 0.0


class TestWeightShiftMatrix:
    def test_single_leg_diagonal(self):
        d = weight_shift_matrix(1, 1, +1)
        assert set(d.masks) == {1, -1}
        assert d.masks[1].tolist() == [[True, False], [False, False]]
        assert d.masks[-1].tolist() == [[False, False], [False, True]]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: weight_shift_matrix(2, 0, +1),
            lambda: weight_shift_matrix(2, 3, +1),
            lambda: promote_shifted_scalar(lambda s: s, 2, {0: 1}),
            lambda: promote_shifted_scalar(lambda s: s, 2, {3: 1}),
            lambda: DynMatrix.identity(2).conj_by_shift(0),
            lambda: DynMatrix.identity(2).conj_by_shift(3),
        ],
        ids=["wsm-0", "wsm-3", "promote-0", "promote-3", "conj-0", "conj-3"],
    )
    def test_leg_out_of_range(self, build):
        with pytest.raises(ValueError, match="out of range"):
            build()

    def test_opposite_signs_cancel(self):
        prod = weight_shift_matrix(1, 1, +1) @ weight_shift_matrix(1, 1, -1)
        assert skew_resid(prod, DynMatrix.identity(1), S_SAMPLES) < 1e-15

    def test_constant_zero_weight_matrix_commutes_with_joint_shift(self):
        rng = np.random.default_rng(5)
        arr = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                wi = sum(weight(b) for b in index_bits(i, 2))
                wj = sum(weight(b) for b in index_bits(j, 2))
                if wi == wj:
                    arr[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        m = DynMatrix.constant(arr)
        d12 = weight_shift_matrix(2, 1, +1) @ weight_shift_matrix(2, 2, +1)
        assert skew_resid(m @ d12, d12 @ m, S_SAMPLES) < 1e-15

    def test_function_valued_zero_weight_needs_joint_sl_dressing(self):
        rng = np.random.default_rng(6)

        def entry(i, j):
            wi = sum(weight(b) for b in index_bits(i, 2))
            wj = sum(weight(b) for b in index_bits(j, 2))
            return rand_fourier(rng) if wi == wj else None

        m = DynMatrix.from_entries(2, entry)
        d12 = weight_shift_matrix(2, 1, +1) @ weight_shift_matrix(2, 2, +1)
        dressed = m.shift_row({1: -1, 2: -1})
        assert skew_resid(m @ d12, d12 @ dressed, S_SAMPLES) < 1e-12


class TestLegTranspose:
    def test_double_transpose(self):
        m = rand_matrix(2, RNG)
        back = m.transpose_leg(1).transpose_leg(1)
        assert skew_resid(m, back, S_SAMPLES[:3]) == 0

    def test_identity_fixed(self):
        eye = DynMatrix.identity(2)
        assert skew_resid(eye.transpose_leg(2), eye, S_SAMPLES[:2]) == 0

    def test_disjoint_legs_commute(self):
        m = rand_matrix(2, RNG)
        a = m.transpose_leg(1).transpose_leg(2)
        b = m.transpose_leg(2).transpose_leg(1)
        assert skew_resid(a, b, S_SAMPLES[:3]) == 0


class TestShiftColRow:
    def test_identity_unchanged(self):
        eye = DynMatrix.identity(2)
        assert skew_resid(eye.shift_col({1: +1, 2: -1}), eye, S_SAMPLES[:2]) == 0

    def test_inverse_shifts_cancel(self):
        m = rand_matrix(2, RNG)
        back = m.shift_col({1: +1}).shift_col({1: -1})
        assert skew_resid(m, back, S_SAMPLES[:3]) < 1e-15

    def test_transpose_shift_exchange(self):
        m = rand_matrix(2, RNG)
        lhs = m.transpose_leg(1).shift_col({1: +1})
        rhs = m.shift_row({1: +1}).transpose_leg(1)
        assert skew_resid(lhs, rhs, S_SAMPLES) < 1e-12

    @pytest.mark.parametrize("nlegs", [1, 2])
    def test_sc_operator_form(self, nlegs):
        m = rand_matrix(nlegs, RNG)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = (d @ m.transpose_leg(1)).transpose_leg(1) @ di
        assert skew_resid(m.shift_col({1: +1}), op, S_SAMPLES) < 1e-12

    @pytest.mark.parametrize("nlegs", [1, 2])
    def test_sl_operator_form(self, nlegs):
        m = rand_matrix(nlegs, RNG)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = ((d @ m).transpose_leg(1) @ di).transpose_leg(1)
        assert skew_resid(m.shift_row({1: +1}), op, S_SAMPLES) < 1e-12

    def test_component_contract(self):
        m = rand_matrix(2, RNG)
        shifted = m.shift_col({1: +1, 2: -1})
        s = 0.21 - 0.4j
        raw = m.at(s + 0)  # force scalar evaluation path
        for i in range(4):
            for j in range(4):
                jb = index_bits(j, 2)
                k = weight(jb[0]) - weight(jb[1])
                assert shifted.at(s)[i, j] == pytest.approx(m.at(s + k)[i, j])
        assert raw.shape == (4, 4)

    def test_rejects_shift_valued_matrix(self):
        d = weight_shift_matrix(1, 1, +1)
        with pytest.raises(ValueError):
            d.shift_col({1: +1})


class TestConjugateByShift:
    def test_identity_fixed(self):
        eye = DynMatrix.identity(2)
        assert skew_resid(eye.conj_by_shift(1), eye, S_SAMPLES[:3]) < 1e-15

    def test_hand_expanded_two_by_two(self):
        # D^{-1} M D with D = diag(E, E^{-1}):
        #   (0,0) -> f00(s-1) E^0      (0,1) -> f01(s-1) E^{-2}
        #   (1,0) -> f10(s+1) E^{+2}   (1,1) -> f11(s+1) E^0
        fs = [[rand_fourier(RNG) for _ in range(2)] for _ in range(2)]
        m = DynMatrix.from_entries(1, lambda i, j: fs[i][j])
        c = m.conj_by_shift(1)
        s = 0.37 + 0.11j
        assert {k: m.tolist() for k, m in c.masks.items()} == {
            0: [[True, False], [False, True]],
            -2: [[False, True], [False, False]],
            2: [[False, False], [True, False]],
        }
        got = c.coeffs_at(s)
        assert got[0][0, 0] == pytest.approx(fs[0][0](s - 1))
        assert got[-2][0, 1] == pytest.approx(fs[0][1](s - 1))
        assert got[2][1, 0] == pytest.approx(fs[1][0](s + 1))
        assert got[0][1, 1] == pytest.approx(fs[1][1](s + 1))

    def test_joint_conjugation_fixes_zero_weight_constants(self):
        arr = np.zeros((4, 4), dtype=complex)
        rng = np.random.default_rng(8)
        for i in range(4):
            for j in range(4):
                wi = sum(weight(b) for b in index_bits(i, 2))
                wj = sum(weight(b) for b in index_bits(j, 2))
                if wi == wj:
                    arr[i, j] = rng.standard_normal()
        m = DynMatrix.constant(arr)
        both = m.conj_by_shift(1).conj_by_shift(2)
        assert skew_resid(both, m, S_SAMPLES[:3]) < 1e-15


class TestPromoteShiftedScalar:
    def test_empty_spec_is_scalar_times_identity(self):
        f = rand_fourier(RNG)
        m = promote_shifted_scalar(f, 2, {})
        s = 0.4 - 0.2j
        assert np.allclose(m.at(s), f(s) * np.eye(4))

    def test_leg2_shift_promotes_to_matrix(self):
        f = rand_fourier(RNG)
        m = promote_shifted_scalar(f, 2, {2: +1})
        s = -0.3 + 0.25j
        expect = np.diag([f(s + 1), f(s - 1), f(s + 1), f(s - 1)])
        assert np.allclose(m.at(s), expect)

    def test_constant_promotes_to_constant(self):
        m = promote_shifted_scalar(lambda s: 3.0 - 1j, 1, {1: -1})
        assert np.allclose(m.at(0.7), (3.0 - 1j) * np.eye(2))


class TestSwapAndTrace:
    def test_swap_twice_is_identity(self):
        m = rand_matrix(2, RNG)
        assert skew_resid(m.swap_legs(1, 2).swap_legs(1, 2), m, S_SAMPLES[:3]) == 0

    def test_partial_trace_of_identity(self):
        eye = DynMatrix.identity(2)
        tr = eye.partial_trace(1)
        assert np.allclose(tr.at(0.1 + 0.1j), 2 * np.eye(2))

    def test_trace_cyclicity_on_traced_leg(self):
        a = rand_matrix(1, RNG).embed(2, (1,))
        b = rand_matrix(1, RNG).embed(2, (1,))
        lhs = (a @ b).partial_trace(1)
        rhs = (b @ a).partial_trace(1)
        assert skew_resid(lhs, rhs, S_SAMPLES[:4]) < 1e-12

    def test_swap_exchanges_embedding(self):
        m = rand_matrix(1, RNG)
        a = m.embed(2, (1,)).swap_legs(1, 2)
        b = m.embed(2, (2,))
        assert skew_resid(a, b, S_SAMPLES[:3]) == 0


class TestZeroWeightCheck:
    def test_identity_is_zero_weight(self):
        assert zero_weight_check(DynMatrix.identity(2), S_SAMPLES[:3], 1e-12)

    def test_weight_mismatch_detected(self):
        arr = np.zeros((4, 4), dtype=complex)
        arr[0, 3] = 1.0  # row weight +2, column weight -2
        assert not zero_weight_check(DynMatrix.constant(arr), S_SAMPLES[:3], 1e-12)


class TestSigmaY:
    def test_conjugation_commutes_with_leg1_transpose(self):
        sy = DynMatrix.constant(PAULI_Y).embed(2, (1,))
        a = rand_matrix(2, RNG)
        lhs = (sy @ a @ sy).transpose_leg(1)
        rhs = sy @ a.transpose_leg(1) @ sy
        for s in S_SAMPLES[:4]:
            assert np.allclose(lhs.at(s), rhs.at(s))


class TestMatrixBasics:
    def test_inverse_roundtrip(self):
        m = rand_matrix(2, RNG)
        prod = m @ m.inv(1e-9)
        for s in S_SAMPLES[:3]:
            assert np.allclose(prod.at(s), np.eye(4), atol=1e-10)

    def test_inverse_guard_raises(self):
        zero = DynMatrix.from_entries(2, lambda i, j: 1e-12 if i == j else None)
        with pytest.raises(SingularPointError):
            zero.inv(1e-6).at(0.0)

    def test_inverse_is_evaluated_only_where_read(self):
        # the inverse is singular at s0 - 2 and s0 + 2, but the shifts below
        # cancel, so every entry of the product reads it at s0 only
        s0 = 0.37 + 0.11j

        def f(s):
            return (s - s0 - 2) * (s - s0 + 2)

        minv = DynMatrix.diagonal(2, lambda i: f).inv(1e-6)
        dmix = weight_shift_matrix(2, 1, -1) @ weight_shift_matrix(2, 2, +1)
        coeffs = (dmix @ minv.shift_row({1: +1, 2: -1})).coeffs_at(s0)
        assert np.allclose(sum(coeffs.values()), np.eye(4) / f(s0))

    @pytest.mark.parametrize(
        "read, expect",
        [
            (lambda m, f: m.shift_row({1: -1}).shift_col({1: +1}), 2 * np.eye(4)),
            (lambda m, f: m.shift_col({2: +1}).shift_row({2: -1}), 2 * np.eye(4)),
            (
                lambda m, f: m.shift_col({1: +1}).transpose_leg(1).shift_col({1: -1}),
                2 * np.eye(4),
            ),
            (
                lambda m, f: m.shift_col({1: +1}).swap_legs(1, 2).shift_col({2: -1}),
                2 * np.eye(4),
            ),
            (
                lambda m, f: m.shift_col({1: +1}).embed(3, (1, 3)).shift_col({1: -1}),
                2 * np.eye(8),
            ),
            (
                lambda m, f: m.shift_col({2: +1}).partial_trace(1).shift_col({1: -1}),
                4 * np.eye(2),
            ),
            (
                lambda m, f: m.shift_col({1: +1}).scale(3.0).shift_col({1: -1})
                .scale(f),
                12 * np.eye(4),
            ),
            (
                lambda m, f: (m.shift_col({1: +1}) + m.shift_col({1: +1})).shift_col(
                    {1: -1}
                ),
                4 * np.eye(4),
            ),
            (
                lambda m, f: weight_shift_matrix(2, 1, +1) @ m.shift_row({1: -1}),
                2 * np.eye(4),
            ),
        ],
        ids=[
            "shift_col", "shift_row", "transpose_leg", "swap_legs", "embed",
            "partial_trace", "scale", "add", "weight_shift_product",
        ],
    )
    def test_entries_are_evaluated_only_where_read(self, read, expect):
        # every read below moves the argument and moves it back, so each
        # demanded entry reads f at s0 only; f is singular everywhere else
        s0 = 0.37 + 0.11j

        def f(s):
            if abs(s - s0) > 1e-12:
                raise SingularPointError(f"f read at s = {s}")
            return 2.0

        m = DynMatrix.diagonal(2, lambda i: f)
        coeffs = read(m, f).coeffs_at(s0)
        assert np.allclose(sum(coeffs.values()), expect)

    def test_kept_arrays_are_read_only(self):
        s = 0.37 + 0.11j
        held = [
            DynMatrix.constant(PAULI_Y).at(0.0),
            rand_matrix(2, RNG).inv(1e-9).at(s),
        ]
        for arr in held:
            with pytest.raises(ValueError):
                arr[0, 0] = 7.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "array",
        [np.zeros((0, 0)), np.array(1.0), np.zeros(2), np.zeros((3, 3)),
         np.zeros((2, 4)), np.zeros((2, 2, 2))],
        ids=["empty", "0-d", "1-d", "3x3", "2x4", "3-d"],
    )
    def test_constant_rejects_bad_shape(self, array):
        with pytest.raises(ValueError, match="square of dimension 2\\^n"):
            DynMatrix.constant(array)

    def test_embed_spectators_identity(self):
        m = rand_matrix(1, RNG)
        e = m.embed(3, (2,))
        s = 0.15 - 0.05j
        expect = np.kron(np.kron(np.eye(2), m.at(s)), np.eye(2))
        assert np.allclose(e.at(s), expect)

    def test_at_rejects_shift_valued(self):
        d = weight_shift_matrix(1, 1, +1)
        with pytest.raises(ValueError):
            d.at(0.0)
