"""Skew shift ring and tensor-leg matrix operations."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynell import (
    DynMatrix,
    Params,
    SingularPointError,
    promote_shifted_scalar,
    shift_scalar,
    skew_mul,
    weight_shift_matrix,
    zero_weight_check,
)
from dynell.checks import _skew_element as elem
from dynell.checks import _rand_matrix as rand_matrix_over_points
from dynell.shiftcalc import PAULI_Y, Trips, guarded_div, index_bits, inv_guarded, weight

from helpers import make_params, rand_fourier, rand_matrix, sample_s, skew_resid

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
        assert list(d.masks) == [1, -1]  # from_entries keeps first-seen order
        assert d.masks[1].tolist() == [[True, False], [False, False]]
        assert d.masks[-1].tolist() == [[False, False], [False, True]]
        assert d.masks is weight_shift_matrix(1, 1, +1).masks
        assert not d.masks[1].flags.writeable

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
        # the skew product lists degrees in the order its pairs first reach them
        assert list(c.masks) == [0, -2, 2]
        assert c.masks is m.scale(2.0).conj_by_shift(1).masks
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
        read = dmix @ minv.shift_row({1: +1, 2: -1})
        coeffs = read.coeffs_at(s0)
        assert np.allclose(sum(coeffs.values()), np.eye(4) / f(s0))
        batch = read.coeffs_at([s0])
        assert np.allclose(sum(batch.values()), [np.eye(4) / f(s0)])

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
        batch = read(m, f).coeffs_at([s0])
        assert np.allclose(sum(batch.values()), [expect])

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


def _scalar(s):
    return 1.5 - 0.5j + 0.2 * s * s


class TestBatchedEvaluation:
    """A batch of samples evaluates to the stacked per-sample values, exactly."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda a, b: a @ b,
            lambda a, b: a @ weight_shift_matrix(2, 1, +1) @ b,
            lambda a, b: a.shift_col({1: +1, 2: -1}),
            lambda a, b: a.shift_row({2: +1}) @ b.shift_row({1: -1}),
            lambda a, b: a.transpose_leg(1),
            lambda a, b: a.swap_legs(1, 2),
            lambda a, b: a.embed(3, (1, 3)),
            lambda a, b: (a @ weight_shift_matrix(2, 1, -1)).partial_trace(1),
            lambda a, b: a.scale(_scalar).scale(2.0 - 1j),
            lambda a, b: a + b.shift_col({1: +1}),
            lambda a, b: a.inv(1e-9) @ b,
            lambda a, b: a.inv(1e-9).shift_col({1: +1}) @ a.inv(1e-9),
        ],
        ids=[
            "matmul", "skew_matmul", "shift_col", "shift_row", "transpose_leg",
            "swap_legs", "embed", "partial_trace", "scale", "add", "inv",
            "inv_shifted",
        ],
    )
    def test_batch_equals_stacked_samples(self, build):
        rng = np.random.default_rng(17)
        a, b = rand_matrix(2, rng), rand_matrix(2, rng)
        samples = S_SAMPLES + [S_SAMPLES[0]]
        # separate builds, so that inverses do not share their per-s caches
        batch = build(a, b).coeffs_at(samples)
        m = build(a, b)
        singles = [m.coeffs_at(s) for s in samples]
        assert set(batch) == set(singles[0])
        for k, v in batch.items():
            assert v.shape == (len(samples),) + singles[0][k].shape
            assert np.array_equal(v, np.stack([c[k] for c in singles]))
        if set(batch) == {0}:
            assert np.array_equal(build(a, b).at(samples), batch[0])
            assert np.array_equal(m.at(samples[1]), singles[1][0])

    def test_scalar_read_keeps_read_only_arrays_read_only(self):
        m = DynMatrix.constant(PAULI_Y)
        assert m.at([0.0, 1.0]).shape == (2, 2, 2)
        assert not m.at(0.0).flags.writeable

    def test_empty_pattern_reads_zeros(self):
        zero = DynMatrix.from_entries(1, lambda i, j: None)
        assert np.array_equal(zero.at(0.3), np.zeros((2, 2)))
        assert np.array_equal(zero.at([0.3, 0.4]), np.zeros((2, 2, 2)))
        assert zero.coeffs_at([0.3]) == {}

    def test_rejects_nested_samples(self):
        with pytest.raises(ValueError, match="1-D"):
            DynMatrix.identity(1).at([[0.1, 0.2]])

    def test_singular_sample_in_a_batch_is_named(self):
        bad = 0.25 - 0.1j
        batch = [0.1 + 0.2j, bad, -0.4 + 0.3j]

        def f(s):
            return s - bad

        msg = re.escape(f"at s = {bad}")
        m = DynMatrix.diagonal(2, lambda i: f)
        with pytest.raises(SingularPointError, match=r"\|det\|.*" + msg):
            m.inv(1e-6).at(batch)
        ratio = DynMatrix.diagonal(1, lambda i: guarded_div(lambda s: 1.0, f))
        with pytest.raises(SingularPointError, match="denominator.*" + msg):
            ratio.at(batch)
        good = [batch[0], batch[2]]
        assert np.allclose(m.inv(1e-6).at(good), [np.eye(4) / f(s) for s in good])

    def test_skew_resid_over_a_batch_is_the_worst_sample(self):
        rng = np.random.default_rng(23)
        a, b = rand_matrix(2, rng), rand_matrix(2, rng)
        lhs = a @ weight_shift_matrix(2, 1, +1)
        rhs = b.shift_col({2: -1})
        worst = skew_resid(lhs, rhs, S_SAMPLES)
        assert worst > 0
        assert worst == max(skew_resid(lhs, rhs, [s]) for s in S_SAMPLES)

    def test_zero_weight_check_reads_every_sample(self):
        bad = S_SAMPLES[3]

        def entry(i, j):
            if (i, j) == (0, 3):  # row weight +2, column weight -2
                return lambda s: 1e-3 if s == bad else 0.0
            return 1.0 if i == j else None

        m = DynMatrix.from_entries(2, entry)
        assert zero_weight_check(m, S_SAMPLES[:3], 1e-6)
        assert not zero_weight_check(m, S_SAMPLES, 1e-6)


class TestGridLeaves:
    """A grid leaf evaluates block p of a batch with point p's data."""

    PARAMS = (make_params(), Params.make(0.61, 0.27))
    # two-point reads, point-major: the same s at both points, partly new
    # samples, all new, all seen, and new samples at one point only
    INVERSE_READS = (
        [S_SAMPLES[0]] * 2,
        [S_SAMPLES[0], S_SAMPLES[1]] * 2,
        S_SAMPLES[2:6],
        [S_SAMPLES[0], S_SAMPLES[2], S_SAMPLES[1], S_SAMPLES[4]],
        S_SAMPLES[:4],
    )

    def leaf(self, nlegs=2, points=2, seed=41):
        rngs = [np.random.default_rng(seed + i) for i in range(points)]
        params = [self.PARAMS[i % 2] for i in range(points)]
        return rand_matrix_over_points(nlegs, rngs, params)

    def test_block_p_reads_point_p(self):
        grid = self.leaf()
        alone = [
            rand_matrix_over_points(2, [np.random.default_rng(41 + i)], [self.PARAMS[i]])
            for i in range(2)
        ]
        got = grid.at(S_SAMPLES[:4])
        assert np.array_equal(got[:2], alone[0].at(S_SAMPLES[:2]))
        assert np.array_equal(got[2:], alone[1].at(S_SAMPLES[2:4]))
        op = lambda m: (m @ weight_shift_matrix(2, 1, +1)).partial_trace(2)
        vals = op(grid).coeffs_at(S_SAMPLES[:4])
        for k, v in vals.items():
            assert np.array_equal(v[:2], op(alone[0]).coeffs_at(S_SAMPLES[:2])[k])
            assert np.array_equal(v[2:], op(alone[1]).coeffs_at(S_SAMPLES[2:4])[k])

    def test_batch_that_is_not_equal_blocks_raises(self):
        grid = self.leaf()
        assert grid.points == 2
        with pytest.raises(ValueError, match="not 2 equal point blocks"):
            grid.at(S_SAMPLES[:3])
        with pytest.raises(ValueError, match="not 2 equal point blocks"):
            grid.at(S_SAMPLES[0])
        dressed = grid.shift_row({1: +1}).transpose_leg(2) @ weight_shift_matrix(2, 2, -1)
        assert dressed.points == 2
        with pytest.raises(ValueError, match="not 2 equal point blocks"):
            dressed.coeffs_at(S_SAMPLES[:5])

    def test_grid_inverse_equals_the_per_point_inverses(self):
        alone = [
            rand_matrix_over_points(2, [np.random.default_rng(41 + i)], [self.PARAMS[i]])
            for i in range(2)
        ]
        for op in (lambda m: m, lambda m: (m @ m.shift_col({1: +1})).swap_legs(1, 2)):
            inv = op(self.leaf()).inv(1e-9)
            invs = [op(m).inv(1e-9) for m in alone]
            assert (inv.points, invs[0].points) == (2, 1)
            # each point alone reads the same samples in the same order
            for s in self.INVERSE_READS:
                got = inv.at(s).reshape(2, -1, 4, 4)
                for p, block in enumerate(np.reshape(s, (2, -1))):
                    assert np.array_equal(got[p], invs[p].at(block))

    def test_grid_inverse_evaluates_new_samples_only_in_equal_blocks(self):
        leaf, seen = self.leaf(), []
        ev = leaf.ev
        leaf.ev = lambda s, need, log: seen.append(len(s)) or ev(s, need, log)
        inv = leaf.inv(1e-9)
        for s in self.INVERSE_READS:
            inv.at(s)
        # 2 new, 2 new in equal blocks, 4 new, none new, then new samples at
        # point 1 only: a grid read of the whole batch
        assert seen == [2, 2, 4, 4]

    def test_first_grid_inverse_trip_is_the_first_in_point_major_order(self):
        # points 1 and 2 are singular at their own s; point 1's trip is first
        s = [0.2 + 0.1j, -0.3 + 0.2j, 0.4 - 0.3j]
        entries = [lambda x: 1.0, lambda x: x - s[1], lambda x: (x - s[2]) * 1e-3]
        grid = DynMatrix.diagonal(2, lambda i: entries)
        assert grid.points == 3
        with pytest.raises(SingularPointError) as batch:
            grid.inv(1e-6).at(s)
        with pytest.raises(SingularPointError) as alone:
            DynMatrix.diagonal(2, lambda i: entries[1]).inv(1e-6).at(s[1])
        assert str(batch.value) == str(alone.value)
        assert str(batch.value).startswith("singular point: |det| = 0.000e+00")
        assert str(batch.value).endswith(f" at s = {s[1]}")

    def test_per_point_entries_and_factors(self):
        params = list(self.PARAMS)
        f = lambda p: (lambda x: x * p.q)
        grid = DynMatrix.diagonal(1, lambda i: [f(p) for p in params] if i else 2.0)
        scaled = grid.scale([3.0, f(params[1])])
        got = scaled.at(S_SAMPLES[:4])
        for p, c in enumerate((3.0, f(params[1]))):
            m = DynMatrix.diagonal(1, lambda i: f(params[p]) if i else 2.0).scale(c)
            assert np.array_equal(got[2 * p:2 * p + 2], m.at(S_SAMPLES[2 * p:2 * p + 2]))
        with pytest.raises(ValueError, match="different point counts"):
            grid.scale([1.0, 2.0, 3.0])

    def test_grids_of_different_sizes_do_not_combine(self):
        with pytest.raises(ValueError, match="different point counts"):
            self.leaf(points=2) @ self.leaf(points=3)
        with pytest.raises(ValueError, match="different point counts"):
            self.leaf(points=3) + self.leaf(points=2)


class TestTripRecords:
    """A guard trip is a per-sample record; only a read without a record
    raises it."""

    BAD = S_SAMPLES[1]

    def ratio(self):
        # the denominator vanishes at BAD: the leaf trips there
        return DynMatrix.diagonal(
            1, lambda i: guarded_div(lambda s: 2.0, lambda s: s - self.BAD) if i else 3.0
        )

    def test_a_tripped_sample_is_noted_and_the_others_evaluate(self):
        m = self.ratio() @ weight_shift_matrix(1, 1, +1) @ self.ratio()
        s = S_SAMPLES[:4]  # two points of two samples; BAD is point 0's second
        tr = Trips(2)
        got = m.coeffs_at(s, tr)
        assert tr[1] is None
        assert str(tr[0]).startswith("singular point: |denominator|")
        assert str(tr[0]).endswith(f"at s = {self.BAD}")
        for i in (0, 2, 3):
            want = m.coeffs_at(s[i])
            assert all(np.array_equal(got[k][i], want[k]) for k in want)
        with pytest.raises(SingularPointError, match=re.escape(str(tr[0]))):
            m.coeffs_at(s)

    def test_a_point_takes_the_trip_its_samples_met_first(self):
        # sample 0 trips only in the right factor, sample 1 in the left one,
        # which is evaluated first: point 0's trip is sample 1's
        left, right = S_SAMPLES[1], S_SAMPLES[0]

        def leaf(bad):
            return DynMatrix.diagonal(1, lambda i: guarded_div(lambda s: 1.0, lambda s: s - bad))

        tr = Trips(1)
        (leaf(left) @ leaf(right)).at([right, left], tr)
        assert str(tr[0]).endswith(f"at s = {left}")
        later = Trips(1)
        later.note([(1, tr[0])], 2)
        assert later[0] is tr[0]
        later.note([(0, SingularPointError("later read"))], 2)
        assert later[0] is tr[0]  # the first read's trip stays

    def test_a_kept_inverse_trip_stays_first_when_read_again(self):
        # X trips its det guard at a, Y its leaf guard at b; the read meets
        # X's trip first, and reading X again later does not move it
        a, b = S_SAMPLES[0], S_SAMPLES[1]
        x = DynMatrix.diagonal(1, lambda i: lambda s: s - a).inv(1e-6)
        y = DynMatrix.diagonal(1, lambda i: guarded_div(lambda s: 1.0, lambda s: s - b))
        tr = Trips(1)
        (x @ y @ x).at([a, b], tr)
        assert str(tr[0]).startswith("singular point: |det| = 0.000e+00")
        assert str(tr[0]).endswith(f" at s = {a}")

    def test_a_whole_batch_inverse_read_logs_new_trips_once_then_kept_ones(self):
        # point 0 trips at BAD and at NEW; the second read's new sample NEW
        # sits at point 0 only, so the base is read at the whole batch, where
        # BAD trips again
        bad, new, good = self.BAD, S_SAMPLES[2], S_SAMPLES[3]
        ratio = guarded_div(lambda s: 1.0, lambda s: (s - bad) * (s - new))
        inv = DynMatrix.diagonal(1, lambda i: [ratio, lambda s: 1.0]).inv(1e-6)
        first, log = [], []
        inv.ev(np.array([bad, good]), inv.masks, first)
        assert [i for i, _ in first] == [0]
        got = inv.ev(np.array([bad, new, good, good]), inv.masks, log)[0]
        assert [i for i, _ in log] == [1, 0]
        assert str(log[0][1]).endswith(f"at s = {new}")
        assert log[1][1] is first[0][1]
        assert np.array_equal(got[:2], [np.eye(2)] * 2)

    def test_a_tripped_inverse_holds_the_identity_and_keeps_its_trip(self):
        seen = []
        base = DynMatrix.diagonal(2, lambda i: lambda s: seen.append(s) or s - self.BAD)
        inv = base.inv(1e-6)
        s = S_SAMPLES[:3]
        first, second = Trips(3), Trips(3)
        got = inv.at(s, first)
        again = inv.at(s, second)
        assert seen == [x for x in s for _ in range(4)]  # each entry once
        assert np.array_equal(got[1], np.eye(4))
        assert np.array_equal(got, again)
        assert first[1] is second[1] and first[0] is first[2] is None
        assert str(first[1]).startswith("singular point: |det| = 0.000e+00")
        with pytest.raises(SingularPointError):
            inv.at(self.BAD)

    def test_inv_guarded_replaces_a_singular_sample_by_the_identity(self):
        arrs = np.array([2 * np.eye(2), np.zeros((2, 2)), np.diag([1.0, 4.0])])
        log = []
        inverses = inv_guarded(arrs, 1e-6, log, " at sample {}", [0, 1, 2])
        assert [i for i, _ in log] == [1]
        assert str(log[0][1]).endswith(" at sample 1")
        assert np.array_equal(inverses, np.linalg.inv([2 * np.eye(2), np.eye(2), np.diag([1.0, 4.0])]))
        inv_guarded(arrs[::2], 1e-6, log)
        assert len(log) == 1

    def test_zero_weight_check_skips_tripped_samples(self):
        def entry(i, j):
            if (i, j) == (0, 3):  # off-weight; singular at BAD
                return guarded_div(lambda s: 0.0, lambda s: s - self.BAD)
            return 1.0 if i == j else None

        m = DynMatrix.from_entries(2, entry)
        tr = Trips(3)
        assert zero_weight_check(m, S_SAMPLES[:3], 1e-12, tr)
        assert [t is None for t in tr] == [True, False, True]
        with pytest.raises(SingularPointError):
            zero_weight_check(m, S_SAMPLES[:3], 1e-12)


class TestPatterns:
    """Patterns are interned and read-only; degree order is part of one."""

    def test_equal_patterns_are_one_object(self):
        rng = np.random.default_rng(31)
        a, b = rand_matrix(2, rng), rand_matrix(2, rng)
        c, d = rand_matrix(2, rng), rand_matrix(2, rng)
        assert a.masks is c.masks
        for build in (
            lambda x, y: x @ weight_shift_matrix(2, 1, +1) @ y,
            lambda x, y: x + y.shift_col({1: +1}),
            lambda x, y: x.partial_trace(2),
        ):
            assert build(a, b).masks is build(c, d).masks
        assert a.masks is not a.embed(3, (1, 2)).masks

    def test_interned_masks_are_read_only(self):
        mask = np.array([[True, False], [False, False]])
        m = DynMatrix(1, {0: mask}, lambda s, need, log: {0: np.ones((len(s), 2, 2))})
        assert mask.flags.writeable  # interning copies what it keeps
        assert m.masks[0].tolist() == mask.tolist()
        assert not m.masks[0].flags.writeable
        with pytest.raises(ValueError):
            m.masks[0][1, 1] = True
        with pytest.raises(TypeError, match="read-only"):
            m.masks[1] = mask
        with pytest.raises(TypeError, match="read-only"):
            m.masks.update({1: mask})
        with pytest.raises(TypeError, match="read-only"):
            del m.masks[0]

    def test_degree_order_is_part_of_a_pattern(self):
        def f(s):
            return s

        up, down = elem({0: f, 1: 2.0}), elem({1: 2.0, 0: f})
        assert list(up.masks) == [0, 1] and list(down.masks) == [1, 0]
        assert up.masks is not down.masks
        prod = skew_mul(elem({1: f, 0: 3.0}), elem({0: 1.0, -1: f}))
        assert list(prod.masks) == [1, 0, -1]
        assert list(skew_mul(up, down).masks) == [1, 0, 2]

    def test_plain_dict_demand_reads_as_its_pattern(self):
        rng = np.random.default_rng(37)
        a, b = rand_matrix(2, rng), rand_matrix(2, rng)
        c = (a @ weight_shift_matrix(2, 1, +1) @ b.shift_row({2: -1})).swap_legs(
            1, 2
        ) + a.inv(1e-9).transpose_leg(2)
        xs = np.asarray(S_SAMPLES, dtype=complex)
        plain = {k: m.copy() for k, m in c.masks.items()}
        log = []
        got = c.ev(xs, plain, log)
        want = c.ev(xs, c.masks, log)
        assert log == []
        assert list(got) == list(want)
        for k in want:
            assert np.array_equal(got[k], want[k])
        assert all(m.flags.writeable for m in plain.values())
        one = np.zeros((4, 4), dtype=bool)
        one[1, 2] = True
        assert c.ev(xs, {0: one}, log)[0][:, 1, 2].tolist() == want[0][:, 1, 2].tolist()
