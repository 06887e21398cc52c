"""Dynamical scalars, the skew shift ring, and tensor-leg matrix operations.

Conventions used throughout the package:

* A dynamical scalar is a function of a single complex coordinate s.  The
  unit shift operator E maps s -> s+1 and obeys the skew rule
  E^a . f = (f o shift_a) . E^a, so products of shift-dressed functions
  live in the skew ring of finite sums  sum_k f_k(s) E^k.
* Every tensor leg is 2-dimensional.  Basis index 0 carries weight +1 and
  index 1 carries weight -1.  Legs are numbered from 1; a multi-leg basis
  index is the big-endian tuple of per-leg indices, so on two legs the
  flat order is (0,0), (0,1), (1,0), (1,1).
* The diagonal weight-shift matrix on one leg is diag(E, E^{-1}); its
  inverse is the sign -1 variant.
* Shift-column (sc) dresses entry (rows, cols) of a function-valued matrix
  by moving its argument by the signed weight of the chosen legs' column
  indices; shift-row (sl) uses the row indices.  Equivalently, with D the
  unit weight-shift matrix on the chosen leg,
      M^{sc} = (D M^t)^t D^{-1},      M^{sl} = ((D M)^t D^{-1})^t,
  an identity the test-suite verifies against the component form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .special import DEFAULT_GUARD, guarded

__all__ = [
    "DynScalar",
    "ShiftElement",
    "DynMatrix",
    "PAULI_Y",
    "weight",
    "index_bits",
    "shift_scalar",
    "skew_mul",
    "weight_shift_matrix",
    "promote_shifted_scalar",
    "zero_weight_check",
    "inv_guarded",
]

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def weight(bit: int) -> int:
    """Weight of a basis index on one leg: +1 for index 0, -1 for index 1."""
    return 1 - 2 * bit


@lru_cache(maxsize=None)
def _bit_table(nlegs: int) -> tuple[tuple[int, ...], ...]:
    dim = 1 << nlegs
    return tuple(
        tuple((i >> (nlegs - 1 - l)) & 1 for l in range(nlegs)) for i in range(dim)
    )


def _from_bits(bits) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


def index_bits(i: int, nlegs: int) -> tuple[int, ...]:
    """Per-leg basis indices of a flat multi-leg index (big-endian)."""
    return _bit_table(nlegs)[i]


class DynScalar:
    """An evaluable map from the dynamical coordinate s to a complex value,
    closed under integer shifts of s."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[complex], complex]):
        self.fn = fn

    @classmethod
    def const(cls, value) -> "DynScalar":
        v = complex(value)
        return cls(lambda s: v)

    def __call__(self, s: complex) -> complex:
        return self.fn(s)

    def shift(self, k: int) -> "DynScalar":
        """s -> self(s + k)."""
        if k == 0:
            return self
        return DynScalar(lambda s, f=self.fn, k=k: f(s + k))

    def __add__(self, other):
        g = _as_scalar(other)
        return DynScalar(lambda s, f=self.fn, g=g.fn: f(s) + g(s))

    __radd__ = __add__

    def __sub__(self, other):
        g = _as_scalar(other)
        return DynScalar(lambda s, f=self.fn, g=g.fn: f(s) - g(s))

    def __rsub__(self, other):
        g = _as_scalar(other)
        return DynScalar(lambda s, f=self.fn, g=g.fn: g(s) - f(s))

    def __mul__(self, other):
        if isinstance(other, ShiftElement):
            return NotImplemented
        g = _as_scalar(other)
        return DynScalar(lambda s, f=self.fn, g=g.fn: f(s) * g(s))

    __rmul__ = __mul__

    def __neg__(self):
        return DynScalar(lambda s, f=self.fn: -f(s))

    def __truediv__(self, other):
        g = _as_scalar(other)
        return DynScalar(lambda s, f=self.fn, g=g.fn: f(s) / g(s))

    def guarded_div(self, other, guard: float = DEFAULT_GUARD) -> "DynScalar":
        """Division raising SingularPointError when |denominator| < guard."""
        g = _as_scalar(other)

        def ev(s, f=self.fn, g=g.fn, guard=guard):
            d = guarded(g(s), "denominator", guard, " at s = {}", s)
            return f(s) / d

        return DynScalar(ev)


def _as_scalar(x) -> DynScalar:
    if isinstance(x, DynScalar):
        return x
    return DynScalar.const(x)


def shift_scalar(f: DynScalar, k: int) -> DynScalar:
    """Shift the dynamical argument: returns s -> f(s + k)."""
    return _as_scalar(f).shift(k)


class ShiftElement:
    """Finite formal sum sum_k f_k E^k over dynamical-scalar coefficients.

    Treated as immutable: every operation returns a new element.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, DynScalar] | None = None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def scalar(cls, f) -> "ShiftElement":
        return cls({0: _as_scalar(f)})

    @classmethod
    def unit(cls, k: int) -> "ShiftElement":
        """The pure shift E^k."""
        return cls({k: DynScalar.const(1.0)})

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.terms))

    def coeff(self, k: int) -> DynScalar:
        return self.terms.get(k, DynScalar.const(0.0))

    def __add__(self, other):
        other = _as_shift(other)
        out = dict(self.terms)
        for k, g in other.terms.items():
            out[k] = out[k] + g if k in out else g
        return ShiftElement(out)

    __radd__ = __add__

    def __neg__(self):
        return ShiftElement({k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-_as_shift(other))

    def __rsub__(self, other):
        return _as_shift(other) + (-self)

    def __mul__(self, other):
        other = _as_shift(other)
        out: dict[int, DynScalar] = {}
        for a, f in self.terms.items():
            for b, g in other.terms.items():
                k = a + b
                term = f * g.shift(a)
                out[k] = out[k] + term if k in out else term
        return ShiftElement(out)

    def __rmul__(self, other):
        return _as_shift(other) * self

    def shift_arg(self, k: int) -> "ShiftElement":
        """Shift the dynamical argument of every coefficient by k."""
        if k == 0:
            return self
        return ShiftElement({d: f.shift(k) for d, f in self.terms.items()})

    def at(self, s: complex) -> dict[int, complex]:
        return {k: f(s) for k, f in self.terms.items()}

    @property
    def is_scalar(self) -> bool:
        return all(k == 0 for k in self.terms)

    @staticmethod
    def sum(elements: list["ShiftElement"]) -> "ShiftElement":
        """Sum many elements, grouping coefficients per degree into a single
        closure (avoids deep chained-add evaluation trees)."""
        grouped: dict[int, list[DynScalar]] = {}
        for e in elements:
            for k, f in e.terms.items():
                grouped.setdefault(k, []).append(f)
        out = {}
        for k, fs in grouped.items():
            if len(fs) == 1:
                out[k] = fs[0]
            else:
                out[k] = DynScalar(
                    lambda s, fs=tuple(f.fn for f in fs): sum(f(s) for f in fs)
                )
        return ShiftElement(out)


def _as_shift(x) -> ShiftElement:
    if isinstance(x, ShiftElement):
        return x
    if isinstance(x, DynScalar):
        return ShiftElement.scalar(x)
    return ShiftElement.scalar(complex(x))


def skew_mul(a: ShiftElement, b: ShiftElement) -> ShiftElement:
    """Skew ring product obeying E.f = (f o shift_1).E."""
    return _as_shift(a) * _as_shift(b)


_ZERO = ShiftElement()


class DynMatrix:
    """Square matrix on 2-dimensional tensor legs with ShiftElement entries.

    Function-valued (degree-0) matrices evaluate to complex arrays through
    ``at``; genuinely shift-valued matrices are read out degree by degree
    through ``coeffs_at``.
    """

    __slots__ = ("nlegs", "cells")

    def __init__(self, nlegs: int, cells):
        self.nlegs = nlegs
        self.cells = cells

    @property
    def dim(self) -> int:
        return 1 << self.nlegs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, nlegs: int) -> "DynMatrix":
        d = 1 << nlegs
        return cls(nlegs, [[_ZERO] * d for _ in range(d)])

    @classmethod
    def identity(cls, nlegs: int) -> "DynMatrix":
        m = cls.zeros(nlegs)
        one = ShiftElement.scalar(1.0)
        for i in range(m.dim):
            m.cells[i][i] = one
        return m

    @classmethod
    def from_entries(cls, nlegs: int, fn) -> "DynMatrix":
        """fn(i, j) -> ShiftElement | DynScalar | complex | None (None = 0)."""
        d = 1 << nlegs
        cells = []
        for i in range(d):
            row = []
            for j in range(d):
                v = fn(i, j)
                row.append(_ZERO if v is None else _as_shift(v))
            cells.append(row)
        return cls(nlegs, cells)

    @classmethod
    def diagonal(cls, nlegs: int, fn) -> "DynMatrix":
        """fn(i) -> diagonal entry at flat index i."""
        m = cls.zeros(nlegs)
        for i in range(m.dim):
            m.cells[i][i] = _as_shift(fn(i))
        return m

    @classmethod
    def constant(cls, array) -> "DynMatrix":
        arr = np.asarray(array, dtype=complex)
        nlegs = int(np.log2(arr.shape[0]))
        if arr.shape != (1 << nlegs, 1 << nlegs):
            raise ValueError("constant matrix must be square of dimension 2^n")
        return cls.from_entries(
            nlegs, lambda i, j: arr[i, j] if arr[i, j] != 0 else None
        )

    def entry(self, i: int, j: int) -> ShiftElement:
        return self.cells[i][j]

    def map_entries(self, f) -> "DynMatrix":
        return DynMatrix(
            self.nlegs, [[f(e) for e in row] for row in self.cells]
        )

    # -- ring operations ----------------------------------------------------

    def __matmul__(self, other: "DynMatrix") -> "DynMatrix":
        if self.nlegs != other.nlegs:
            raise ValueError("leg count mismatch")
        d = self.dim
        cells = []
        for i in range(d):
            row = []
            arow = self.cells[i]
            for j in range(d):
                terms = [
                    arow[k] * other.cells[k][j]
                    for k in range(d)
                    if arow[k].terms and other.cells[k][j].terms
                ]
                row.append(ShiftElement.sum(terms) if terms else _ZERO)
            cells.append(row)
        return DynMatrix(self.nlegs, cells)

    def __add__(self, other: "DynMatrix") -> "DynMatrix":
        return DynMatrix(
            self.nlegs,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.cells, other.cells)
            ],
        )

    def __sub__(self, other: "DynMatrix") -> "DynMatrix":
        return DynMatrix(
            self.nlegs,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.cells, other.cells)
            ],
        )

    def scale(self, factor) -> "DynMatrix":
        """Left-multiply every entry by a scalar (complex or DynScalar)."""
        f = _as_shift(factor)
        return self.map_entries(lambda e: f * e if e.terms else e)

    # -- leg operations -----------------------------------------------------

    def _check_leg(self, leg: int):
        if not 1 <= leg <= self.nlegs:
            raise ValueError(f"leg {leg} out of range (1..{self.nlegs})")

    def transpose_leg(self, leg: int) -> "DynMatrix":
        """Transpose on a single leg only."""
        self._check_leg(leg)
        bt = _bit_table(self.nlegs)
        pos = leg - 1
        d = self.dim
        out = DynMatrix.zeros(self.nlegs)
        for i in range(d):
            for j in range(d):
                e = self.cells[i][j]
                if not e.terms:
                    continue
                rb, cb = list(bt[i]), list(bt[j])
                rb[pos], cb[pos] = cb[pos], rb[pos]
                out.cells[_from_bits(rb)][_from_bits(cb)] = e
        return out

    def swap_legs(self, a: int, b: int) -> "DynMatrix":
        """Exchange two tensor factors."""
        self._check_leg(a)
        self._check_leg(b)
        bt = _bit_table(self.nlegs)
        d = self.dim
        out = DynMatrix.zeros(self.nlegs)
        for i in range(d):
            for j in range(d):
                e = self.cells[i][j]
                if not e.terms:
                    continue
                rb, cb = list(bt[i]), list(bt[j])
                rb[a - 1], rb[b - 1] = rb[b - 1], rb[a - 1]
                cb[a - 1], cb[b - 1] = cb[b - 1], cb[a - 1]
                out.cells[_from_bits(rb)][_from_bits(cb)] = e
        return out

    def _shift(self, spec: dict[int, int], use_rows: bool) -> "DynMatrix":
        if not self.is_scalar_valued:
            raise ValueError("shift dressing requires a function-valued matrix")
        for leg in spec:
            self._check_leg(leg)
        bt = _bit_table(self.nlegs)
        d = self.dim
        out = DynMatrix.zeros(self.nlegs)
        for i in range(d):
            for j in range(d):
                e = self.cells[i][j]
                if not e.terms:
                    continue
                bits = bt[i] if use_rows else bt[j]
                k = sum(sign * weight(bits[leg - 1]) for leg, sign in spec.items())
                out.cells[i][j] = e.shift_arg(k)
        return out

    def shift_col(self, spec: dict[int, int]) -> "DynMatrix":
        """Shift-column dressing: entry arguments move by the signed weights
        of the chosen legs' column indices."""
        return self._shift(spec, use_rows=False)

    def shift_row(self, spec: dict[int, int]) -> "DynMatrix":
        """Shift-row dressing: same with the row indices."""
        return self._shift(spec, use_rows=True)

    def partial_trace(self, leg: int) -> "DynMatrix":
        """Sum the diagonal on one leg; remaining legs renumber from 1."""
        self._check_leg(leg)
        pos = leg - 1
        bt = _bit_table(self.nlegs)
        out = DynMatrix.zeros(self.nlegs - 1)
        d_out = out.dim
        bt_out = _bit_table(self.nlegs - 1) if self.nlegs > 1 else ((),)
        for i in range(d_out):
            for j in range(d_out):
                terms = []
                for b in (0, 1):
                    rb = list(bt_out[i])
                    cb = list(bt_out[j])
                    rb.insert(pos, b)
                    cb.insert(pos, b)
                    e = self.cells[_from_bits(rb)][_from_bits(cb)]
                    if e.terms:
                        terms.append(e)
                out.cells[i][j] = ShiftElement.sum(terms) if terms else _ZERO
        return out

    def conj_by_shift(self, leg: int) -> "DynMatrix":
        """D^{-1} M D with D the unit weight-shift matrix on the chosen leg."""
        dm = weight_shift_matrix(self.nlegs, leg, -1)
        dp = weight_shift_matrix(self.nlegs, leg, +1)
        return dm @ self @ dp

    def embed(self, total: int, placement: tuple[int, ...]) -> "DynMatrix":
        """Place this matrix's legs onto the given global legs (1-based) of a
        larger space, acting as the identity elsewhere."""
        if len(placement) != self.nlegs:
            raise ValueError("placement must list one global leg per local leg")
        if len(set(placement)) != len(placement) or any(
            not 1 <= g <= total for g in placement
        ):
            raise ValueError("placement legs must be distinct and in range")
        bt_big = _bit_table(total)
        spectators = [g for g in range(1, total + 1) if g not in placement]
        out = DynMatrix.zeros(total)
        d = out.dim
        for i in range(d):
            rb = bt_big[i]
            for j in range(d):
                cb = bt_big[j]
                if any(rb[g - 1] != cb[g - 1] for g in spectators):
                    continue
                li = _from_bits([rb[g - 1] for g in placement])
                lj = _from_bits([cb[g - 1] for g in placement])
                e = self.cells[li][lj]
                if e.terms:
                    out.cells[i][j] = e
        return out

    # -- evaluation ---------------------------------------------------------

    @property
    def is_scalar_valued(self) -> bool:
        return all(e.is_scalar for row in self.cells for e in row)

    def at(self, s: complex) -> np.ndarray:
        """Evaluate a function-valued matrix to a complex array."""
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                e = self.cells[i][j]
                if not e.terms:
                    continue
                vals = e.at(s)
                if any(k != 0 for k in vals):
                    raise ValueError(
                        "matrix carries nonzero shift degrees; use coeffs_at"
                    )
                out[i, j] = vals.get(0, 0.0)
        return out

    def coeffs_at(self, s: complex) -> dict[int, np.ndarray]:
        """Evaluate degree by degree: {E-degree: complex array}."""
        d = self.dim
        out: dict[int, np.ndarray] = {}
        for i in range(d):
            for j in range(d):
                for k, v in self.cells[i][j].at(s).items():
                    if k not in out:
                        out[k] = np.zeros((d, d), dtype=complex)
                    out[k][i, j] = v
        return out

    def inv(self, guard: float = DEFAULT_GUARD) -> "DynMatrix":
        """Lazy matrix inverse of a function-valued matrix.

        The inverse is itself a DynMatrix (entries evaluable at shifted s);
        each evaluation inverts the full matrix once per sample point and
        raises SingularPointError when |det| falls below the guard.
        """
        if not self.is_scalar_valued:
            raise ValueError("inverse requires a function-valued matrix")
        cache: dict[complex, np.ndarray] = {}
        base = self

        def inv_at(s):
            if s not in cache:
                cache[s] = inv_guarded(base.at(s), guard, " at s = {}", s)
            return cache[s]

        return DynMatrix.from_entries(
            self.nlegs,
            lambda i, j: DynScalar(lambda s, i=i, j=j: inv_at(s)[i, j]),
        )


def inv_guarded(arr: np.ndarray, guard: float, where: str = "", *args) -> np.ndarray:
    """Inverse of an evaluated square array; raises SingularPointError when
    |det| falls below the guard (where and args locate it, as in guarded)."""
    guarded(np.linalg.det(arr), "det", guard, where, *args)
    return np.linalg.inv(arr)


def weight_shift_matrix(nlegs: int, leg: int, sign: int) -> DynMatrix:
    """Diagonal matrix with entry E^{sign * weight(i_leg)} on the chosen leg."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    bt = _bit_table(nlegs)
    return DynMatrix.diagonal(
        nlegs, lambda i: ShiftElement.unit(sign * weight(bt[i][leg - 1]))
    )


def promote_shifted_scalar(
    f: DynScalar, nlegs: int, spec: dict[int, int]
) -> DynMatrix:
    """Diagonal matrix whose entry at multi-index i is f evaluated at
    s + sum_a sign_a * weight(i_a); a shifted scalar becomes a genuine
    matrix."""
    f = _as_scalar(f)
    bt = _bit_table(nlegs)

    def diag(i):
        k = sum(sign * weight(bt[i][leg - 1]) for leg, sign in spec.items())
        return f.shift(k)

    return DynMatrix.diagonal(nlegs, diag)


def zero_weight_check(m: DynMatrix, samples, tol: float) -> bool:
    """True iff every entry whose row and column weight sums differ vanishes
    below tol at all sample points (all shift degrees included)."""
    bt = _bit_table(m.nlegs)
    for i in range(m.dim):
        wr = sum(weight(b) for b in bt[i])
        for j in range(m.dim):
            wc = sum(weight(b) for b in bt[j])
            if wr == wc:
                continue
            e = m.cells[i][j]
            if not e.terms:
                continue
            for s in samples:
                if any(abs(v) > tol for v in e.at(s).values()):
                    return False
    return True
