"""The skew shift ring and tensor-leg matrices over it, evaluated on demand.

Conventions used throughout the package:

* A dynamical scalar is a plain function of a single complex coordinate s.
  The unit shift operator E maps s -> s+1 and obeys the skew rule
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

A DynMatrix is a d x d matrix (d = 2^nlegs) of skew-ring elements, held as
a pattern and an evaluator.  ``masks`` maps each E-degree to the boolean
d x d pattern of its structurally nonzero entries; a skew-ring element is a
matrix on 0 legs.  ``ev(s, need)`` takes a demand {degree: boolean d x d
mask} inside the pattern and returns {degree: complex d x d array} for the
same degrees, exact on the demanded entries, zero off the pattern and
finite elsewhere.  Every operation works out from the patterns alone which
entries of its operands the demanded entries read, and at which shifts of
s, and evaluates only those: a guarded entry or an inverse is evaluated
only where a result reads it.  Arrays an evaluator keeps (constant leaves,
cached inverses) are read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .special import DEFAULT_GUARD, guarded

__all__ = [
    "DynMatrix",
    "PAULI_Y",
    "weight",
    "index_bits",
    "shift_scalar",
    "guarded_div",
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


def _check_leg(nlegs: int, leg: int):
    if not 1 <= leg <= nlegs:
        raise ValueError(f"leg {leg} out of range (1..{nlegs})")


def _leg_shifts(nlegs: int, spec: dict[int, int]) -> list[int]:
    """Per flat index i: sum over spec of sign * weight(i's index on leg)."""
    for leg in spec:
        _check_leg(nlegs, leg)
    return [
        sum(sign * weight(bits[leg - 1]) for leg, sign in spec.items())
        for bits in _bit_table(nlegs)
    ]


def shift_scalar(f, k: int):
    """Shift the dynamical argument: returns s -> f(s + k)."""
    if k == 0:
        return f
    return lambda s: f(s + k)


def guarded_div(num, den, guard: float = DEFAULT_GUARD):
    """s -> num(s) / den(s), raising SingularPointError when |den(s)| < guard."""

    def ev(s):
        d = guarded(den(s), "denominator", guard, " at s = {}", s)
        return num(s) / d

    return ev


def _key(need) -> tuple:
    return tuple(sorted((k, m.tobytes()) for k, m in need.items()))


def _planned(plan):
    """Memoize plan(need), which depends on patterns only, per demand."""
    cache = {}

    def get(need):
        key = _key(need)
        p = cache.get(key)
        if p is None:
            p = cache[key] = plan(need)
        return p

    return get


def _nonempty(masks) -> dict:
    return {k: m for k, m in masks.items() if m.any()}


_GATHER_TABLES: dict = {}


def _gather_table(key, nlegs_in: int, nlegs_out: int, sources) -> np.ndarray:
    """Flat index table of a leg operation, cached per leg layout.  Column
    I * D + J lists the flat input entries i * d + j that sum into output
    entry (I, J), as sources(row bits, column bits) gives them; the pad index
    d * d reads 0."""
    table = _GATHER_TABLES.get(key)
    if table is None:
        d = 1 << nlegs_in
        bt = _bit_table(nlegs_out)
        cols = [
            [_from_bits(r) * d + _from_bits(c) for r, c in sources(list(rb), list(cb))]
            for rb in bt
            for cb in bt
        ]
        width = max(map(len, cols))
        table = np.array([c + [d * d] * (width - len(c)) for c in cols]).T
        table.flags.writeable = False
        _GATHER_TABLES[key] = table
    return table


@lru_cache(maxsize=None)
def _shift_groups(nlegs: int, spec: tuple, use_rows: bool) -> tuple:
    """(shift, entries moved by it) pairs of an sc (columns) or sl (rows)
    dressing."""
    ks = np.array(_leg_shifts(nlegs, dict(spec)))
    grid = ks[:, None] if use_rows else ks[None, :]
    d = 1 << nlegs
    groups = []
    for k in sorted(set(ks.tolist())):
        sel = np.broadcast_to(grid == k, (d, d)).copy()
        sel.flags.writeable = False
        groups.append((k, sel))
    return tuple(groups)


class DynMatrix:
    """Square matrix of skew-ring elements on 2-dimensional tensor legs:
    a pattern per E-degree and one demand-driven evaluator (module
    docstring).

    Function-valued (degree-0) matrices evaluate to complex arrays through
    ``at``; genuinely shift-valued matrices are read out degree by degree
    through ``coeffs_at``.
    """

    __slots__ = ("nlegs", "masks", "ev")

    def __init__(self, nlegs: int, masks: dict, ev):
        self.nlegs = nlegs
        self.masks = _nonempty(masks)
        self.ev = ev

    @property
    def dim(self) -> int:
        return 1 << self.nlegs

    def _require_function_valued(self, what: str):
        if any(k != 0 for k in self.masks):
            raise ValueError(f"{what} requires a function-valued matrix")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, nlegs: int, fn) -> "DynMatrix":
        """fn(i, j) -> None (a structural zero), a number, a function of s,
        or a {E-degree: number or function of s} dict."""
        d = 1 << nlegs
        consts: dict[int, np.ndarray] = {}
        masks: dict[int, np.ndarray] = {}
        fns: dict[int, list] = {}
        for i in range(d):
            for j in range(d):
                v = fn(i, j)
                if v is None:
                    continue
                for k, c in v.items() if isinstance(v, dict) else ((0, v),):
                    if k not in masks:
                        consts[k] = np.zeros((d, d), dtype=complex)
                        masks[k] = np.zeros((d, d), dtype=bool)
                        fns[k] = []
                    masks[k][i, j] = True
                    if callable(c):
                        fns[k].append((i * d + j, c))
                    else:
                        consts[k][i, j] = c
        for arr in consts.values():
            arr.flags.writeable = False

        def ev(s, need):
            out = {}
            for k, n in need.items():
                arr = consts[k]
                if fns[k]:
                    arr = arr.copy()
                    flat, wanted = arr.reshape(-1), n.reshape(-1)
                    for ij, f in fns[k]:
                        if wanted[ij]:
                            flat[ij] = f(s)
                out[k] = arr
            return out

        return cls(nlegs, masks, ev)

    @classmethod
    def diagonal(cls, nlegs: int, fn) -> "DynMatrix":
        """fn(i) -> diagonal entry at flat index i (as in from_entries)."""
        return cls.from_entries(nlegs, lambda i, j: fn(i) if i == j else None)

    @classmethod
    def identity(cls, nlegs: int) -> "DynMatrix":
        return cls.diagonal(nlegs, lambda i: 1.0)

    @classmethod
    def constant(cls, array) -> "DynMatrix":
        arr = np.asarray(array, dtype=complex)
        d = arr.shape[0] if arr.ndim == 2 else 0
        nlegs = d.bit_length() - 1
        if d < 1 or arr.shape != (d, d) or d != 1 << nlegs:
            raise ValueError("constant matrix must be square of dimension 2^n")
        return cls.from_entries(
            nlegs, lambda i, j: arr[i, j] if arr[i, j] != 0 else None
        )

    # -- ring operations ----------------------------------------------------

    def __matmul__(self, other: "DynMatrix") -> "DynMatrix":
        """Skew product: A_a(s) B_b(s + a) goes into degree a + b."""
        if self.nlegs != other.nlegs:
            raise ValueError("leg count mismatch")
        a, b = self, other
        masks: dict[int, np.ndarray] = {}
        for da, ma in a.masks.items():
            for db, mb in b.masks.items():
                m = ma @ mb
                masks[da + db] = masks[da + db] | m if da + db in masks else m

        @_planned
        def plan(need):
            need_a: dict[int, np.ndarray] = {}
            need_b: dict[int, dict[int, np.ndarray]] = {}
            pairs = []
            for da, ma in a.masks.items():
                for db, mb in b.masks.items():
                    nc = need.get(da + db)
                    if nc is None:
                        continue
                    na = ma & (nc @ mb.T)
                    if not na.any():
                        continue
                    nb = mb & (ma.T @ nc)
                    need_a[da] = need_a[da] | na if da in need_a else na
                    nbs = need_b.setdefault(da, {})
                    nbs[db] = nbs[db] | nb if db in nbs else nb
                    pairs.append((da, db))
            return need_a, need_b, pairs

        def ev(s, need):
            need_a, need_b, pairs = plan(need)
            va = a.ev(s, need_a)
            vb = {da: b.ev(s + da, nb) for da, nb in need_b.items()}
            out: dict[int, np.ndarray] = {}
            for da, db in pairs:
                term = va[da] @ vb[da][db]
                dc = da + db
                out[dc] = out[dc] + term if dc in out else term
            return out

        return DynMatrix(self.nlegs, masks, ev)

    def __add__(self, other: "DynMatrix") -> "DynMatrix":
        if self.nlegs != other.nlegs:
            raise ValueError("leg count mismatch")
        terms = (self, other)
        masks = dict(self.masks)
        for k, m in other.masks.items():
            masks[k] = masks[k] | m if k in masks else m

        def ev(s, need):
            out: dict[int, np.ndarray] = {}
            for t in terms:
                nt = _nonempty(
                    {k: n & t.masks[k] for k, n in need.items() if k in t.masks}
                )
                if nt:
                    for k, v in t.ev(s, nt).items():
                        out[k] = out[k] + v if k in out else v
            return out

        return DynMatrix(self.nlegs, masks, ev)

    def __sub__(self, other: "DynMatrix") -> "DynMatrix":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "DynMatrix":
        """Left-multiply every entry by a scalar (a number or a function of s)."""
        src = self
        f = factor if callable(factor) else (lambda s, c=complex(factor): c)

        def ev(s, need):
            v = f(s)
            return {k: v * arr for k, arr in src.ev(s, need).items()}

        return DynMatrix(self.nlegs, self.masks, ev)

    # -- leg operations -----------------------------------------------------

    def _gather(self, key, nlegs: int, sources) -> "DynMatrix":
        """The leg operation whose output entries sum the input entries that
        sources(row bits, column bits) lists."""
        src = self
        d, dout = self.dim, 1 << nlegs
        table = _gather_table((self.nlegs,) + key, self.nlegs, nlegs, sources)
        masks = {
            k: np.append(m.reshape(-1), False)[table].any(axis=0).reshape(dout, dout)
            for k, m in self.masks.items()
        }

        @_planned
        def plan(need):
            need_in = {}
            for k, n in need.items():
                flat = np.zeros(d * d + 1, dtype=bool)
                flat[table[:, n.reshape(-1)]] = True
                need_in[k] = flat[:-1].reshape(d, d) & src.masks[k]
            return _nonempty(need_in)

        def ev(s, need):
            vals = src.ev(s, plan(need))
            out = {}
            for k in need:
                flat = np.append(vals[k].reshape(-1), 0.0)
                out[k] = flat[table].sum(axis=0).reshape(dout, dout)
            return out

        return DynMatrix(nlegs, masks, ev)

    def transpose_leg(self, leg: int) -> "DynMatrix":
        """Transpose on a single leg only."""
        _check_leg(self.nlegs, leg)
        pos = leg - 1

        def sources(rb, cb):
            rb[pos], cb[pos] = cb[pos], rb[pos]
            return [(rb, cb)]

        return self._gather(("transpose", leg), self.nlegs, sources)

    def swap_legs(self, a: int, b: int) -> "DynMatrix":
        """Exchange two tensor factors."""
        _check_leg(self.nlegs, a)
        _check_leg(self.nlegs, b)

        def sources(rb, cb):
            rb[a - 1], rb[b - 1] = rb[b - 1], rb[a - 1]
            cb[a - 1], cb[b - 1] = cb[b - 1], cb[a - 1]
            return [(rb, cb)]

        return self._gather(("swap", a, b), self.nlegs, sources)

    def partial_trace(self, leg: int) -> "DynMatrix":
        """Sum the diagonal on one leg; remaining legs renumber from 1."""
        _check_leg(self.nlegs, leg)
        pos = leg - 1

        def sources(rb, cb):
            return [
                (rb[:pos] + [x] + rb[pos:], cb[:pos] + [x] + cb[pos:]) for x in (0, 1)
            ]

        return self._gather(("trace", leg), self.nlegs - 1, sources)

    def embed(self, total: int, placement: tuple[int, ...]) -> "DynMatrix":
        """Place this matrix's legs onto the given global legs (1-based) of a
        larger space, acting as the identity elsewhere."""
        if len(placement) != self.nlegs:
            raise ValueError("placement must list one global leg per local leg")
        if len(set(placement)) != len(placement) or any(
            not 1 <= g <= total for g in placement
        ):
            raise ValueError("placement legs must be distinct and in range")
        placement = tuple(placement)
        spectators = [g for g in range(1, total + 1) if g not in placement]

        def sources(rb, cb):
            if any(rb[g - 1] != cb[g - 1] for g in spectators):
                return []
            return [([rb[g - 1] for g in placement], [cb[g - 1] for g in placement])]

        return self._gather(("embed", total, placement), total, sources)

    def _shift(self, spec: dict[int, int], use_rows: bool) -> "DynMatrix":
        self._require_function_valued("shift dressing")
        groups = _shift_groups(self.nlegs, tuple(sorted(spec.items())), use_rows)
        src, d = self, self.dim

        def ev(s, need):
            n = need[0]
            out = np.zeros((d, d), dtype=complex)
            for k, sel in groups:
                nk = n & sel
                if nk.any():
                    v = src.ev(s + k, {0: nk})[0]
                    out[sel] = v[sel]
            return {0: out}

        return DynMatrix(self.nlegs, self.masks, ev)

    def shift_col(self, spec: dict[int, int]) -> "DynMatrix":
        """Shift-column dressing: entry arguments move by the signed weights
        of the chosen legs' column indices."""
        return self._shift(spec, use_rows=False)

    def shift_row(self, spec: dict[int, int]) -> "DynMatrix":
        """Shift-row dressing: same with the row indices."""
        return self._shift(spec, use_rows=True)

    def conj_by_shift(self, leg: int) -> "DynMatrix":
        """D^{-1} M D with D the unit weight-shift matrix on the chosen leg."""
        dm = weight_shift_matrix(self.nlegs, leg, -1)
        dp = weight_shift_matrix(self.nlegs, leg, +1)
        return dm @ self @ dp

    # -- evaluation ---------------------------------------------------------

    def at(self, s: complex) -> np.ndarray:
        """Evaluate a function-valued matrix to a complex array."""
        if any(k != 0 for k in self.masks):
            raise ValueError("matrix carries nonzero shift degrees; use coeffs_at")
        if not self.masks:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.ev(s, self.masks)[0]

    def coeffs_at(self, s: complex) -> dict[int, np.ndarray]:
        """Evaluate degree by degree: {E-degree: complex array}."""
        return self.ev(s, self.masks) if self.masks else {}

    def inv(self, guard: float = DEFAULT_GUARD) -> "DynMatrix":
        """Lazy matrix inverse of a function-valued matrix.

        The inverse is itself a DynMatrix (evaluable at shifted s); each
        evaluation inverts the full matrix once per sample point and raises
        SingularPointError when |det| falls below the guard.
        """
        self._require_function_valued("inverse")
        cache: dict[complex, np.ndarray] = {}
        base = self

        def ev(s, need):
            if s not in cache:
                arr = inv_guarded(base.at(s), guard, " at s = {}", s)
                arr.flags.writeable = False
                cache[s] = arr
            return {0: cache[s]}

        return DynMatrix(self.nlegs, {0: np.ones((self.dim, self.dim), dtype=bool)}, ev)


def inv_guarded(arr: np.ndarray, guard: float, where: str = "", *args) -> np.ndarray:
    """Inverse of an evaluated square array; raises SingularPointError when
    |det| falls below the guard (where and args locate it, as in guarded)."""
    guarded(np.linalg.det(arr), "det", guard, where, *args)
    return np.linalg.inv(arr)


def skew_mul(a: DynMatrix, b: DynMatrix) -> DynMatrix:
    """Skew ring product obeying E.f = (f o shift_1).E (on 0-leg matrices,
    the skew ring itself)."""
    return a @ b


def weight_shift_matrix(nlegs: int, leg: int, sign: int) -> DynMatrix:
    """Diagonal matrix with entry E^{sign * weight(i_leg)} on the chosen leg."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ks = _leg_shifts(nlegs, {leg: sign})
    return DynMatrix.diagonal(nlegs, lambda i: {ks[i]: 1.0})


def promote_shifted_scalar(f, nlegs: int, spec: dict[int, int]) -> DynMatrix:
    """Diagonal matrix whose entry at multi-index i is f evaluated at
    s + sum_a sign_a * weight(i_a); a shifted scalar becomes a genuine
    matrix."""
    ks = _leg_shifts(nlegs, spec)
    return DynMatrix.diagonal(nlegs, lambda i: shift_scalar(f, ks[i]))


def zero_weight_check(m: DynMatrix, samples, tol: float) -> bool:
    """True iff every entry whose row and column weight sums differ vanishes
    below tol at all sample points (all shift degrees included)."""
    w = np.array([sum(weight(b) for b in bits) for bits in _bit_table(m.nlegs)])
    off = w[:, None] != w[None, :]
    need = _nonempty({k: mk & off for k, mk in m.masks.items()})
    if not need:
        return True
    for s in samples:
        vals = m.ev(s, need)
        if any(abs(vals[k][n]).max() > tol for k, n in need.items()):
            return False
    return True
