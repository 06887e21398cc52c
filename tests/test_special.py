"""Special-function layer: truncated products, theta, normalization, and the
unitarity scalar.

Frozen reference values were generated by tests/make_oracles.py (mpmath,
per-factor truncation through mp.qp, an independent code path) before the
package implementation existed.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynell import Params, SingularPointError, qpochhammer, rho_norm, theta, unitarity_scalar
from dynell import special
from dynell.rmatrix import _r_array
from dynell.special import (_RHO, _THETA, _grid_fill, _held, _poch1, _poch1_rows, _poch2,
                            _poch2_rows, _poch2_table, _powers)

from helpers import make_params, outcome

Z0 = 0.6 + 0.2j

# mpmath oracle values at q_half = sqrt(0.47), p = 0.31 (see make_oracles.py)
RHO_Z0 = 1.3517393971096406 + 1.1874559064136709j
RHO_Z0_INV = -1.1515845624170522 - 1.0239607264887145j
N_Z0 = -0.3407340095177381 - 2.7515839454647358j


class TestQPochhammer:
    def test_zero_base_gives_single_factor(self):
        for order in (1, 5, 80):
            assert qpochhammer(0.5, [0], order) == pytest.approx(0.5)

    def test_vanishing_argument_one(self):
        assert qpochhammer(1.0, [0.31], 7) == 0

    def test_base_symmetry(self):
        a = qpochhammer(0.3, [0.2, 0.1], 50)
        b = qpochhammer(0.3, [0.1, 0.2], 50)
        assert a == pytest.approx(b, abs=1e-15)

    def test_order_zero_is_empty_product(self):
        assert qpochhammer(0.9, [0.5], 0) == 1

    def test_rejects_divergent_base(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, [1.0], 10)
        with pytest.raises(ValueError):
            qpochhammer(0.5, [0.2, 1.5], 10)

    def test_rejects_bad_arity_and_order(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, [], 10)
        with pytest.raises(ValueError):
            qpochhammer(0.5, [0.1, 0.2, 0.3], 10)
        with pytest.raises(ValueError):
            qpochhammer(0.5, [0.1], -1)


def _loop_powers(base, n):
    out = np.empty(n, dtype=complex)
    out[0] = 1.0
    if n > 1:
        np.cumprod(np.full(n - 1, base, dtype=complex), out=out[1:])
    return out


def _loop_poch1(z, base, order):
    if order <= 0:
        return 1.0 + 0.0j
    return complex(np.prod(1.0 - z * _loop_powers(base, order)))


def _loop_poch2(z, b1, b2, order):
    """The reference kernel: one np.prod per row of fixed n1."""
    if order <= 0:
        return 1.0 + 0.0j
    pw2 = _loop_powers(b2, order)
    acc = 1.0 + 0.0j
    zn = complex(z)
    for n1 in range(order):
        acc *= complex(np.prod(1.0 - zn * pw2[: order - n1]))
        zn *= b1
    return acc


def _bits(x) -> tuple:
    """Both parts of a complex to the last bit, the sign of a zero included."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


KERNEL_ZS = (0.6 + 0.2j, -1.3 + 0j, 0j, 1.0 + 0j)
KERNEL_BASES = (
    (0.31 + 0j, 0.0488 + 0j),
    (0.5 + 0.3j, -0.2 + 0.6j),
    (0j, 0.3 + 0j),
    (0.4 - 0.1j, 0j),
)


class TestKernels:
    @pytest.mark.parametrize("order", (0, 1, 2, 15, 61, 200))
    def test_equal_to_the_reference_loop(self, order):
        for z in KERNEL_ZS:
            for b1, b2 in KERNEL_BASES:
                want2 = _bits(_loop_poch2(z, b1, b2, order))
                assert _bits(_poch2(z, b1, b2, order)) == want2
                assert _bits(qpochhammer(z, [b1, b2], order)) == want2
                want1 = _bits(_loop_poch1(z, b1, order))
                assert _bits(_poch1(z, b1, order)) == want1
                assert _bits(qpochhammer(z, [b1], order)) == want1

    def test_padded_rows_equal_the_one_base_product_bit_for_bit(self):
        # one stack mixes orders 1-200 and |p| up to 0.85; each row is padded
        # with zeros to the widest order, and every product, the zero
        # argument included, keeps every bit of _poch1's
        rng = np.random.default_rng(7)
        bases = [0.85 + 0j, 0.05 + 0j, -0.6 + 0.5j, 0.31 + 0j, 0.7j, 0.8 - 0.2j]
        orders = [200, 1, 37, 61, 15, 120]
        table = np.zeros((len(bases), max(orders)), dtype=complex)
        for row, b, n in zip(table, bases, orders):
            row[:n] = _powers(b, n)
        x = rng.normal(size=(len(bases), 40)) + 1j * rng.normal(size=(len(bases), 40))
        x *= rng.uniform(0.1, 3.0, size=x.shape)
        x[:, 0] = 0.0
        x[:, 1] = 1.0
        # one row per sample, aligned with its point's row of the table
        got = _poch1_rows(x.reshape(-1), table.repeat(x.shape[1], axis=0)).reshape(x.shape)
        # each row equals the same argument's batch of one, and the reference loop
        for kernel in (_poch1, _loop_poch1):
            want = np.array([[kernel(complex(v), b, n) for v in row]
                             for row, b, n in zip(x, bases, orders)])
            assert got.view(float).tobytes() == want.view(float).tobytes(), kernel
        assert (got[:, 0] == 1.0).all() and (got[:, 1] == 0.0).all()

    @pytest.mark.parametrize("rows", (1, 6, 34, 35, 96))
    def test_rows_equal_the_two_base_product_bit_for_bit(self, rows):
        # one call per order, orders 1-200 with |p| up to 0.85, a zero
        # argument in every call of more than one row; 34 rows at order 61
        # are what one broadcast of a fill holds (_ROW_FACTORS), 35 one more
        rng = np.random.default_rng(rows)
        orders = {34: (61,), 35: (61,), 96: (1, 2, 3, 15, 61, 120)}.get(rows, range(1, 201))
        for order in orders:
            p = complex(rng.uniform(0.0, 0.85))
            q4 = complex(rng.uniform(0.4, 0.8) ** 8)
            x = rng.normal(size=rows) + 1j * rng.normal(size=rows)
            x *= rng.uniform(0.1, 3.0, size=rows)
            x[1:2] = 0.0
            got = _poch2_rows(x, p, q4, order)
            # each row equals the same argument's batch of one, and the
            # reference loop, which is slow at high orders, at one order in 8
            kernels = [_poch2.__wrapped__]
            if rows > 6 or order % 8 == 1:
                kernels.append(_loop_poch2)
            for kernel in kernels:
                want = np.array([kernel(v, p, q4, order) for v in x.tolist()])
                assert got.view(float).tobytes() == want.view(float).tobytes(), (order, kernel)

    def test_cached_arrays_are_read_only(self):
        params = make_params()
        arrays = (
            _powers(0.3 + 0j, 5),
            *_poch2_table(0.3 + 0j, 5),
            _r_array(Z0, 0.3 + 0.1j, params, False),
        )
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0


class TestTheta:
    def test_p_zero_collapses_to_linear_factor(self):
        params = Params.make(0.6, 0.0)
        assert theta(2.0, params) == pytest.approx(-1.0, abs=1e-14)
        assert theta(0.3 + 0.4j, params) == pytest.approx(1 - (0.3 + 0.4j), abs=1e-14)

    def test_zero_at_one(self):
        assert theta(1.0, make_params()) == 0

    def test_rejects_zero_argument(self):
        with pytest.raises(ValueError):
            theta(0.0, make_params())

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.floats(min_value=0.55, max_value=1.9),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @example(r=1.0, phi=0.0)  # z = 1
    def test_quasi_periodicity_on_annulus(self, r, phi):
        params = make_params()
        z = r * complex(np.cos(phi), np.sin(phi))
        t = theta(z, params)
        assume(t != 0)  # z = 1 is the zero test_zero_at_one covers
        assert abs(theta(params.p * z, params) + t / z) / abs(t) < params.tolerance

    @settings(max_examples=25, deadline=None)
    @given(
        r=st.floats(min_value=0.55, max_value=1.9),
        phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    )
    @example(r=1.0, phi=0.0)  # z = 1
    def test_inversion_identity(self, r, phi):
        params = make_params()
        z = r * complex(np.cos(phi), np.sin(phi))
        t = theta(z, params)
        assume(t != 0)  # z = 1 is the zero test_zero_at_one covers
        assert abs(theta(1 / z, params) + t / z) / abs(t) < params.tolerance

    def test_truncation_convergence(self):
        params = make_params()
        fine = make_params(truncation_order=2 * params.truncation_order)
        for z in (Z0, 1.7 - 0.4j, 0.55j):
            assert abs(theta(z, params) - theta(z, fine)) < params.tolerance


class TestRhoNorm:
    def test_reference_value(self):
        params = make_params(truncation_order=400)
        assert rho_norm(Z0, params) == pytest.approx(RHO_Z0, abs=1e-13)
        assert rho_norm(1 / Z0, params) == pytest.approx(RHO_Z0_INV, abs=1e-13)

    def test_singular_at_one(self):
        with pytest.raises(SingularPointError, match="singular point"):
            rho_norm(1.0, make_params())

    def test_singular_at_q_minus_4(self):
        params = make_params()
        with pytest.raises(SingularPointError):
            rho_norm(1.0 / params.q**4, params)

    def test_truncation_convergence(self):
        params = make_params()
        fine = make_params(truncation_order=2 * params.truncation_order)
        assert abs(rho_norm(Z0, params) - rho_norm(Z0, fine)) < params.tolerance


class TestUnitarityScalar:
    def test_reference_product(self):
        params = make_params(truncation_order=400)
        assert unitarity_scalar(Z0, params) == pytest.approx(N_Z0, abs=1e-13)

    def test_inversion_symmetry_exact(self):
        params = make_params()
        assert unitarity_scalar(Z0, params) == unitarity_scalar(1 / Z0, params)

    def test_q4_periodicity(self):
        params = make_params()
        q4 = params.q**4
        for z in (Z0, 1.3 - 0.8j):
            n0 = unitarity_scalar(z, params)
            assert abs(unitarity_scalar(q4 * z, params) - n0) / abs(n0) < params.tolerance

    def test_rho_times_rho_inverse_is_unitarity_scalar(self):
        params = make_params()
        lhs = rho_norm(Z0, params) * rho_norm(1 / Z0, params)
        assert lhs == unitarity_scalar(Z0, params)


def _clear():
    _THETA.clear()
    _RHO.clear()


def _cold(f, z, params):
    """_outcome of f formed by a read miss: the value caches emptied first."""
    _clear()
    return outcome(f, z, params)


def _misses_raise(monkeypatch):
    """Make a read miss raise, so that a read that passes was a cache hit."""
    def miss(*args):
        raise AssertionError("a read missed the value cache")

    monkeypatch.setattr(special, "_poch1", miss)
    monkeypatch.setattr(special, "_poch2", miss)


class TestGridCache:
    """A value of the value caches (_THETA, _RHO) formed by a fill (many rows per
    kernel call) equals the value a cold read forms (one row) to the last bit,
    trips included; a trip is formed once and raised afresh at every read,
    and the cache stays bounded however it is filled."""

    def setup_method(self):
        _clear()

    def test_values_equal_the_one_point_functions_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        readers = (theta, rho_norm, unitarity_scalar)
        for q_half, p in ((0.6855654600401044, 0.31), (0.45, 0.05), (0.75, 0.6), (0.55, 0.85)):
            params = Params.make(q_half, p)
            r = np.exp(rng.uniform(np.log(0.55), np.log(1.9), 8))
            zs = (r * np.exp(2j * np.pi * rng.uniform(size=8))).tolist()
            zs += [1.0 + 0j, 1 / params.q**4, params.q**-2]  # on rho's and Theta's zeros
            cold = [[_cold(f, z, params) for z in zs] for f in readers]
            _clear()
            _grid_fill(params, thetas=zs, rhos=zs, ns=zs)
            with monkeypatch.context() as m:
                _misses_raise(m)
                assert [[outcome(f, z, params) for z in zs] for f in readers] == cold

    def test_a_guarded_argument_gives_the_same_trip(self):
        params = make_params()
        for z in (1.0, 1.0 / params.q**4):
            for fill in (True, False):
                _clear()
                if fill:
                    _grid_fill(params, ns=[z])
                raised = []
                for _ in range(2):
                    for f in (rho_norm, unitarity_scalar):
                        with pytest.raises(SingularPointError) as got:
                            f(z, params)
                        raised.append(got.value)
                assert len({str(exc) for exc in raised}) == 1
                assert "below guard at z = " in str(raised[0])
                assert len({id(exc) for exc in raised}) == len(raised)

    def test_zero_raises_value_error(self):
        params = make_params()
        _grid_fill(params, thetas=[0j], rhos=[0j], ns=[0j])  # left to the readers
        for f, name in ((theta, "theta"), (rho_norm, "rho_norm"), (unitarity_scalar, "rho_norm")):
            with pytest.raises(ValueError, match=f"^{name} undefined at z = 0$"):
                f(0.0, params)
        assert (0j, params) not in _THETA and (0j, params) not in _RHO

    def test_the_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(special, "_GRID_SIZE", 4)
        params = make_params()
        zs = [0.6 + 0.1j * k for k in range(6)]
        cold = [_cold(rho_norm, z, params) for z in zs]
        _clear()
        for z in zs:
            _grid_fill(params, thetas=[z], rhos=[z])
            assert len(_THETA) <= 4 and len(_RHO) <= 4
        _grid_fill(params, rhos=zs)  # more than fit: each is still formed
        with monkeypatch.context() as m:
            _misses_raise(m)
            assert [outcome(rho_norm, z, params) for z in zs] == cold
        _clear()
        for z in zs:  # a session of one-point reads alone
            theta(z, params), rho_norm(z, params), unitarity_scalar(z, params)
            assert len(_THETA) <= 4 and len(_RHO) <= 4


class TestHeld:
    """_held, the one read of every batched memo: each distinct miss formed
    once, at its first position, and every value returned however the bound
    empties the cache."""

    @staticmethod
    def _read(cache, size, keys):
        calls = []

        def form(at):
            calls.append(at)
            return [keys[i] * 10 for i in at]

        return _held(cache, size, keys, form), calls

    def test_each_distinct_miss_is_formed_once_at_its_first_position(self):
        cache = {1: 10, 9: -1}
        got, calls = self._read(cache, None, [3, 1, 3, 4, 1, 4, 5])
        assert got == [30, 10, 30, 40, 10, 40, 50]
        assert calls == [[0, 3, 6]]
        assert cache == {1: 10, 9: -1, 3: 30, 4: 40, 5: 50}
        got, calls = self._read(cache, None, [4, 3, 4])  # all held: form not called
        assert (got, calls) == ([40, 30, 40], [])

    def test_misses_past_the_bound_empty_the_cache_first_and_keep_the_read(self):
        cache = {1: 10, 2: 20, 3: 30}
        # two misses on three keys would make five, past four: emptied first
        got, calls = self._read(cache, 4, [5, 1, 6, 5])
        assert got == [50, 10, 60, 50] and calls == [[0, 2]]
        assert cache == {1: 10, 5: 50, 6: 60}
        # more misses than the bound holds: every value is still returned
        got, calls = self._read(cache, 2, [7, 8, 9, 1, 7])
        assert got == [70, 80, 90, 10, 70] and calls == [[0, 1, 2]]
        assert cache == {1: 10, 7: 70, 8: 80, 9: 90}
        # at the bound exactly, nothing is emptied
        got, _ = self._read(cache, 5, [2])
        assert got == [20] and len(cache) == 5


class TestParams:
    def test_q_is_square_of_q_half(self):
        params = make_params()
        assert params.q == pytest.approx(0.47)

    def test_rejects_large_nome(self):
        with pytest.raises(ValueError, match=r"\|p\| must be < 1"):
            Params.make(0.5, 1.5)

    def test_rejects_large_q(self):
        with pytest.raises(ValueError, match=r"\|q\|\^4"):
            Params.make(1.2, 0.1)

    def test_rejects_insufficient_order(self):
        with pytest.raises(ValueError, match="truncation_order too small"):
            Params(q_half=0.6855654600401044, p=0.31, truncation_order=5)

    def test_rejects_nonpositive_tolerance_and_guard(self):
        with pytest.raises(ValueError):
            make_params(tolerance=0.0)
        with pytest.raises(ValueError):
            make_params(singular_guard=-1.0)

    @pytest.mark.parametrize("key", ["tolerance", "singular_guard"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_tolerance_and_guard(self, key, value):
        # a nan tolerance would silently skip the series-tail invariant
        with pytest.raises(ValueError, match=f"^{key} must be finite and > 0, got {value!r}$"):
            make_params(**{key: value})

    def test_hash_is_the_hash_of_the_fields(self):
        params = make_params()
        fields = (params.q_half, params.p, params.truncation_order, params.tolerance,
                  params.singular_guard)
        assert hash(params) == hash(fields) == hash(replace(params))
        assert replace(params, truncation_order=99) != params

    def test_grid_rejects_non_finite_settings(self):
        from dynell.checks import GridSpec

        for key in ("tolerance", "singular_guard", "alpha_beta_offset"):
            with pytest.raises(ValueError, match=f"^{key} must be finite, got nan$"):
                GridSpec(**{key: float("nan")})

    def test_auto_order_meets_invariant(self):
        for p, qh in ((0.05, 0.4), (0.5, 0.8), (0.0, 0.6)):
            params = Params.make(qh, p)
            m = max(abs(params.p), abs(params.q) ** 4)
            assert m**params.truncation_order <= params.tolerance * 1e-3

    def test_p_zero_admitted(self):
        params = Params.make(0.6, 0.0)
        assert theta(2.0, params) == pytest.approx(-1.0)
