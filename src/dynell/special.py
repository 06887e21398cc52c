"""Truncated q-series kernels: multiple Pochhammer products, the Jacobi theta
function, the R-matrix normalization factor and the unitarity scalar.

All infinite products are truncated by total degree: a product over
multi-indices (n_1, ..., n_m) keeps exactly the factors with
n_1 + ... + n_m < order.  With every base of modulus < 1 the neglected
factors differ from 1 by O(max|base|^order), so the truncation error is
controlled by the Params invariant max(|p|, |q|^4)^order <= tolerance*1e-3.

Evaluations that land within ``singular_guard`` of a vanishing denominator
raise SingularPointError instead of returning huge values; the R-matrix has
genuine pole lattices and silent infinities would corrupt residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SingularPointError",
    "guarded",
    "Params",
    "qpochhammer",
    "theta",
    "rho_norm",
    "unitarity_scalar",
]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_GUARD = 1e-6

# Auto-selected truncation orders aim below this series tail, capped at 200.
_SERIES_FLOOR = 1e-18
_MAX_AUTO_ORDER = 200


class _OrderTooSmall(ValueError):
    """The truncation order violates the Params series-tail invariant."""


class SingularPointError(ArithmeticError):
    """An evaluation fell within singular_guard of a pole or vanishing
    denominator."""


def guarded(value, label: str, guard: float, where: str = "", *args):
    """Return value, or raise SingularPointError when |value| < guard.

    This is the one singular-guard policy of the package.  label names the
    guarded quantity; where locates it and is formatted with args only when
    the guard trips, e.g. guarded(d, "denominator", g, " at s = {}", s)."""
    if abs(value) < guard:
        raise SingularPointError(
            f"singular point: |{label}| = {abs(value):.3e} below guard"
            + where.format(*args)
        )
    return value


@dataclass(frozen=True)
class Params:
    """Global numeric context shared by every evaluation.

    q_half is the primary input (q = q_half**2 is derived), so q^{+-1/2}
    powers are single-valued.  p is the elliptic nome.  Convergence of all
    products requires |p| < 1 and |q|^4 < 1.
    """

    q_half: complex
    p: complex
    truncation_order: int
    tolerance: float = DEFAULT_TOLERANCE
    singular_guard: float = DEFAULT_GUARD

    def __post_init__(self):
        object.__setattr__(self, "q_half", complex(self.q_half))
        object.__setattr__(self, "p", complex(self.p))
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.singular_guard <= 0:
            raise ValueError("singular_guard must be > 0")
        if self.truncation_order < 1:
            raise ValueError("truncation_order must be a positive integer")
        if abs(self.p) >= 1:
            raise ValueError("|p| must be < 1")
        if abs(self.q) ** 4 >= 1:
            raise ValueError("|q|^4 must be < 1 (|q_half| too large)")
        m = max(abs(self.p), abs(self.q) ** 4)
        if m**self.truncation_order > self.tolerance * 1e-3:
            raise _OrderTooSmall(
                "truncation_order too small: max(|p|, |q|^4)^order must not "
                "exceed tolerance * 1e-3"
            )

    @property
    def q(self) -> complex:
        return self.q_half * self.q_half

    @staticmethod
    def auto_order(q_half: complex, p: complex) -> int:
        """Smallest order with max(|p|, |q|^4)^order below the series floor,
        capped at 200."""
        m = max(abs(complex(p)), abs(complex(q_half)) ** 8)
        if m == 0.0:
            return 1
        n = math.ceil(math.log(_SERIES_FLOOR) / math.log(m)) + 1
        return min(_MAX_AUTO_ORDER, max(1, n))

    @classmethod
    def make(
        cls,
        q_half: complex,
        p: complex,
        truncation_order: int | None = None,
        tolerance: float = DEFAULT_TOLERANCE,
        singular_guard: float = DEFAULT_GUARD,
    ) -> "Params":
        """Construct with an auto-selected truncation order when none is given."""
        order = cls.auto_order(q_half, p) if truncation_order is None else truncation_order
        try:
            return cls(
                q_half=q_half,
                p=p,
                truncation_order=order,
                tolerance=tolerance,
                singular_guard=singular_guard,
            )
        except _OrderTooSmall as exc:
            if truncation_order is not None:
                raise
            # every other invariant passed, so 0 < m < 1 and tolerance > 0
            m = max(abs(complex(p)), abs(complex(q_half)) ** 8)
            needed = math.ceil(math.log(tolerance * 1e-3) / math.log(m))
            raise _OrderTooSmall(
                f"{exc}; the automatic truncation order {order} (capped at "
                f"{_MAX_AUTO_ORDER}) is below the {needed} that max(|p|, |q|^4) = "
                f"{m:.4g} needs at tolerance {tolerance:g}; give truncation_order "
                "(--truncation-order) explicitly"
            ) from None


def _powers(base: complex, n: int) -> np.ndarray:
    """[1, base, base^2, ..., base^{n-1}] without pow-edge cases at base = 0."""
    out = np.empty(n, dtype=complex)
    out[0] = 1.0
    if n > 1:
        np.cumprod(np.full(n - 1, base, dtype=complex), out=out[1:])
    return out


@lru_cache(maxsize=1 << 16)
def _poch1(z: complex, base: complex, order: int) -> complex:
    if order <= 0:
        return 1.0 + 0.0j
    return complex(np.prod(1.0 - z * _powers(base, order)))


@lru_cache(maxsize=1 << 16)
def _poch2(z: complex, b1: complex, b2: complex, order: int) -> complex:
    if order <= 0:
        return 1.0 + 0.0j
    pw2 = _powers(b2, order)
    acc = 1.0 + 0.0j
    zn = complex(z)
    for n1 in range(order):
        # keep n1 + n2 < order
        acc *= complex(np.prod(1.0 - zn * pw2[: order - n1]))
        zn *= b1
    return acc


def qpochhammer(z: complex, bases, order: int) -> complex:
    """Truncated multiple Pochhammer product (z; b_1[, b_2])_inf.

    Keeps factors (1 - z b_1^{n_1} b_2^{n_2}) with n_1 + n_2 < order (single
    base: n < order).  Every base must have modulus < 1; the argument z is
    unrestricted.
    """
    bs = [complex(b) for b in bases]
    if len(bs) not in (1, 2):
        raise ValueError("qpochhammer supports 1 or 2 bases")
    for b in bs:
        if abs(b) >= 1:
            raise ValueError("divergent product: base modulus must be < 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    z = complex(z)
    if len(bs) == 1:
        return _poch1(z, bs[0], order)
    return _poch2(z, bs[0], bs[1], order)


@lru_cache(maxsize=1 << 16)
def _theta(z: complex, p: complex, order: int) -> complex:
    return _poch1(z, p, order) * _poch1(p / z, p, order) * _poch1(p, p, order)


def theta(z: complex, params: Params) -> complex:
    """Jacobi theta function (z;p)_inf (p/z;p)_inf (p;p)_inf, truncated."""
    z = complex(z)
    if z == 0:
        raise ValueError("theta undefined at z = 0")
    return _theta(z, params.p, params.truncation_order)


def rho_norm(z: complex, params: Params) -> complex:
    """Normalization factor of the R-matrix.

    q^{-1/2} (q^2 z; p, q^4)^2 (p/z; p, q^4) (p q^4/z; p, q^4)
            / [ (p q^2/z; p, q^4)^2 (z; p, q^4) (q^4 z; p, q^4) ]

    Raises SingularPointError when a denominator factor falls below
    singular_guard (z on the lattice of 1 or q^{-4} up to p^a q^{4b}).
    """
    z = complex(z)
    if z == 0:
        raise ValueError("rho_norm undefined at z = 0")
    p, q, n = params.p, params.q, params.truncation_order
    q2, q4 = q * q, q * q * q * q
    den_factors = (
        ("(p q^2/z; p, q^4)", _poch2(p * q2 / z, p, q4, n)),
        ("(z; p, q^4)", _poch2(z, p, q4, n)),
        ("(q^4 z; p, q^4)", _poch2(q4 * z, p, q4, n)),
    )
    for label, val in den_factors:
        guarded(val, label, params.singular_guard, " at z = {}", z)
    num = (
        _poch2(q2 * z, p, q4, n) ** 2
        * _poch2(p / z, p, q4, n)
        * _poch2(p * q4 / z, p, q4, n)
    )
    d = den_factors[0][1] ** 2 * den_factors[1][1] * den_factors[2][1]
    return num / d / params.q_half


def unitarity_scalar(z: complex, params: Params) -> complex:
    """rho(z) * rho(1/z); symmetric in z <-> 1/z and q^4-periodic."""
    z = complex(z)
    return rho_norm(z, params) * rho_norm(1.0 / z, params)
