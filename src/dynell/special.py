"""Truncated q-series kernels: multiple Pochhammer products, the Jacobi theta
function, the R-matrix normalization factor and the unitarity scalar.

All infinite products are truncated by total degree: a product over
multi-indices (n_1, ..., n_m) keeps exactly the factors with
n_1 + ... + n_m < order.  With every base of modulus < 1 the neglected
factors differ from 1 by O(max|base|^order), so the truncation error is
controlled by the Params invariant max(|p|, |q|^4)^order <= tolerance*1e-3.

Each product has one kernel, which forms the products of many arguments in
one broadcast, one row of factors per argument: _poch1_rows the one-base
product (x; b), over the powers of b, and _poch2_rows the two-base product
(x; b1, b2), over a factor table cached per (b2, order): b2^{n2} for every
n1 + n2 < order, laid out in rows of fixed n1.  _poch2_rows forms x b1^{n1}
by a cumulative product, expands it over the rows, forms every factor
1 - x b1^{n1} b2^{n2}, multiplies each row (np.multiply.reduceat) and then
the rows.  Every product runs left to right in the same order as a loop
over n1 of np.prod over n2 would, so the result is that loop's to the last
bit.  The cached power and factor tables are read-only.

theta, rho_norm and unitarity_scalar are the only readers of Theta, rho and
n(z) = rho(z) rho(1/z), through two bounded value caches keyed by
(z, Params): _THETA of Theta(z) and _RHO of rho(z) or the trip of rho's
guards, its message.  Every batched memo of the package, these two
included, is read through _held.  The ways a value gets there differ only
in how many rows one kernel call forms.  A one-point read miss forms its
one value product by product, one row a call, through the lru-cached _poch1
and _poch2, and stores it (_keep).  A fill (_grid_fill), which the checks run before they read,
forms many arguments of one Params at once, and a grid read (_theta_rows,
_rho_rows) many arguments of many Params: the one-base factors in one
_poch1_rows broadcast, the two-base ones in _poch2_rows broadcasts of up to
_ROW_FACTORS factors (or one row) per Params.  A miss formed as a fill of
one would be faster, but it lowers the point-eval benchmark's traced layer
share towards the bound its test asserts, so it waits on ROADMAP item 1.
Every way combines and guards rho in one step (_rho).

Evaluations that land within ``singular_guard`` of a vanishing denominator
raise SingularPointError instead of returning huge values; the R-matrix has
genuine pole lattices and silent infinities would corrupt residuals.  Caches
and logs keep a trip as its message (singular), not as an error.
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
        raise SingularPointError(singular(value, label, where, *args))
    return value


def singular(value, label: str, where: str = "", *args) -> str:
    """The message of guarded's error for value: a trip, as every log keeps it."""
    return f"singular point: |{label}| = {abs(value):.3e} below guard" + where.format(*args)


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
    return complex(_poch1_rows(np.array([z]), _powers(base, order))[0])


def _poch1_rows(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """(x[i]; b_i) for every sample i in one broadcast, x 1-D and aligned
    with the rows of table: table[i] is _powers(b_i, order_i), padded with
    zeros to the widest order, where a padded factor 1 - x * 0 is exactly 1.
    A 1-D table is one base's powers, shared by every sample."""
    return np.multiply.reduce(1.0 - x[:, None] * table, -1)


@lru_cache(maxsize=1 << 16)
def _poch2(z: complex, b1: complex, b2: complex, order: int) -> complex:
    if order <= 0:
        return 1.0 + 0.0j
    return complex(_poch2_rows((z,), b1, b2, order)[0])


def _poch2_rows(xs, b1: complex, b2: complex, order: int) -> np.ndarray:
    """(x; b1, b2) for every x of the sequence xs in one broadcast, one row
    of order (order + 1) / 2 factors per argument."""
    table, lengths, offsets = _poch2_table(b2, order)
    # xn[i, n1] = xs[i] b1^n1, rounded as the repeated x *= b1 of Python
    # complex arithmetic: numpy accumulates two or more steps in its scalar
    # loop, which rounds as Python does, but a single step in its vector
    # loop, which does not; so take all `order` steps, the last one unused.
    steps = np.full((len(xs), order + 1), b1, dtype=complex)
    steps[:, 0] = xs
    # the factors 1 - xn[i, n1] b2^n2, formed in one buffer: a fresh array
    # per step costs more than the arithmetic at high orders
    f = np.repeat(np.cumprod(steps, axis=1)[:, :order], lengths, axis=1)
    f *= table
    np.subtract(1.0, f, out=f)
    # each row of fixed n1 multiplied left to right, then the rows
    rows = np.multiply.reduceat(f, offsets, axis=1)
    return np.multiply.reduce(rows, axis=1)


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


# The value caches, by (z, Params): _THETA of Theta(z), _RHO of rho(z) or the
# trip (message) of its guards, each read through _held (a one-point miss
# stored by _keep) and bounded by _GRID_SIZE keys.
_THETA: dict = {}
_RHO: dict = {}
_GRID_SIZE = 1 << 14
# the factors in one _poch2_rows broadcast of rho's misses (16 bytes each):
# the rows of 34 arguments at order 61, of 3 at order 200
_ROW_FACTORS = 1 << 16
_RHO_DENOMINATORS = ("(p q^2/z; p, q^4)", "(z; p, q^4)", "(q^4 z; p, q^4)")


def _held(cache: dict, size, keys: list, form) -> list:
    """cache[k] for every key k of keys: the one read of every batched memo.
    The distinct keys the cache lacks are formed in one call form(at), at
    their first positions at in keys, and stored.  A read whose misses would
    take the cache past size keys (None: no bound) empties it first, and
    keeps what it read, so the cache holds every key of a read after it."""
    got = [cache.get(k) for k in keys]
    at = {}
    for i in [i for i, v in enumerate(got) if v is None]:
        at.setdefault(keys[i], i)
    if not at:
        return got
    if size is not None and len(cache) + len(at) > size:
        cache.clear()
        cache.update((k, v) for k, v in zip(keys, got) if v is not None)
    cache.update(zip(at, form(list(at.values()))))
    return [cache[k] if v is None else v for k, v in zip(keys, got)]


def _keep(cache: dict, key, value):
    """Store the value a one-point read miss formed, bounded as _held bounds
    a read of one key (a list-building _held costs a one-point miss 30%)."""
    if len(cache) >= _GRID_SIZE:
        cache.clear()
    cache[key] = value
    return value


def theta(z: complex, params: Params) -> complex:
    """Jacobi theta function (z;p)_inf (p/z;p)_inf (p;p)_inf, truncated."""
    z = complex(z)
    if z == 0:
        raise ValueError("theta undefined at z = 0")
    value = _THETA.get((z, params))
    if value is None:
        p, n = params.p, params.truncation_order
        value = _keep(_THETA, (z, params), _poch1(z, p, n) * _poch1(p / z, p, n) * _poch1(p, p, n))
    return value


@lru_cache(maxsize=64)
def _grid_tables(params: tuple) -> tuple:
    """Per point of a grid: the powers of p padded with zeros to the widest
    order (_poch1_rows), and (p; p)."""
    table = np.zeros((len(params), max(x.truncation_order for x in params)), complex)
    for row, x in zip(table, params):
        row[:x.truncation_order] = _powers(x.p, x.truncation_order)
    return table, np.array([_poch1(x.p, x.p, x.truncation_order) for x in params])


def _theta_rows(x: list, pts, prms: tuple) -> list:
    """theta(x[i], prms[pts[i]]) for every i through _THETA, its misses
    formed over the points' padded rows of powers (_grid_tables) in one
    broadcast."""
    keys = list(zip(x, map(prms.__getitem__, pts.tolist())))

    def form(at):
        xs, pa = [x[i] for i in at], pts[at]
        if 0 in xs:  # w underflows to 0 at large s
            raise ValueError("theta undefined at z = 0")
        table, pp = _grid_tables(prms)
        f = _poch1_rows(np.array(xs + [keys[i][1].p / z for i, z in zip(at, xs)]),
                        np.concatenate([table[pa]] * 2)).tolist()
        pp = pp.tolist()  # (p; p) as Python complex: a numpy factor rounds otherwise
        return [a * b * pp[p] for a, b, p in zip(f, f[len(xs):], pa.tolist())]

    return _held(_THETA, _GRID_SIZE, keys, form)


def _rho_args(z: complex, params: Params) -> tuple:
    """The arguments of rho_norm's six factors (x; p, q^4) at z, its
    denominator's (in the order of _RHO_DENOMINATORS) then its numerator's,
    and p, q^4 and the truncation order."""
    p, q = params.p, params.q
    q2, q4 = q * q, q * q * q * q  # not q**4, which rounds differently
    return (p * q2 / z, z, q4 * z, q2 * z, p / z, p * q4 / z), p, q4, params.truncation_order


def _rho(z: complex, params: Params, d, num):
    """rho_norm at z from d, its denominator's three factors (in the order of
    _RHO_DENOMINATORS), and num(), its numerator's: its value, or the trip
    (message) of the first factor of d below singular_guard, num then not
    called."""
    for label, value in zip(_RHO_DENOMINATORS, d):
        if abs(value) < params.singular_guard:
            return singular(value, label, " at z = {}", z)
    n1, n2, n3 = num()
    return n1**2 * n2 * n3 / (d[0] ** 2 * d[1] * d[2]) / params.q_half


def _rho_rows(keys: list) -> list:
    """rho_norm, or the trip of its guards, at each (z, Params) of keys
    through _RHO, its misses formed per Params in _poch2_rows broadcasts of
    up to _ROW_FACTORS factors (or one row)."""
    def form(at):
        groups, out = {}, {}
        for i in at:
            groups.setdefault(keys[i][1], []).append(keys[i][0])
        for prm, zs in groups.items():
            rows = [_rho_args(z, prm) for z in zs]
            xs, (p, q4, n) = np.array([args for args, *_ in rows]).reshape(-1), rows[0][1:]
            fit = max(1, _ROW_FACTORS // (n * (n + 1) // 2))
            f = np.concatenate([_poch2_rows(xs[i:i + fit], p, q4, n)
                                for i in range(0, len(xs), fit)]).tolist()
            for i, z in zip(range(0, len(f), 6), zs):
                out[z, prm] = _rho(z, prm, f[i:i + 3], lambda: f[i + 3:i + 6])
        return [out[keys[i]] for i in at]

    return _held(_RHO, _GRID_SIZE, keys, form)


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
    value = _RHO.get((z, params))
    if value is None:
        args, p, q4, n = _rho_args(z, params)
        value = _keep(_RHO, (z, params), _rho(z, params, [_poch2(x, p, q4, n) for x in args[:3]],
                                              lambda: [_poch2(x, p, q4, n) for x in args[3:]]))
    if isinstance(value, str):
        raise SingularPointError(value)
    return value


def unitarity_scalar(z: complex, params: Params) -> complex:
    """rho(z) * rho(1/z); symmetric in z <-> 1/z and q^4-periodic."""
    z = complex(z)
    return rho_norm(z, params) * rho_norm(1.0 / z, params)


def _grid_fill(params: Params, thetas=(), rhos=(), ns=()) -> None:
    """Form what the value caches lack of Theta at each z of thetas, and of
    rho at each z of rhos and at z and 1/z for each z of ns (what n(z)
    reads), all at one Params: Theta's one-base factors in one _poch1_rows
    broadcast over the powers of p, rho's misses as _rho_rows forms them.
    A zero z is left to the readers, which raise for it."""
    keys = [(z, params) for z in map(complex, thetas) if z]

    def form(at):
        zs, p, n = [keys[i][0] for i in at], params.p, params.truncation_order
        f = _poch1_rows(np.array(zs + [p / z for z in zs] + [p]), _powers(p, n)).tolist()
        return [a * b * f[-1] for a, b in zip(f, f[len(zs):])]

    _held(_THETA, _GRID_SIZE, keys, form)
    rhos = [*map(complex, rhos), *(x for z in map(complex, ns) if z for x in (z, 1.0 / z))]
    _rho_rows([(z, params) for z in rhos if z])
