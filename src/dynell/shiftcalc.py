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
matrix on 0 legs.  ``ev(s, need, log)`` takes a 1-D complex array of n
samples s, a demand {degree: boolean d x d mask} inside the pattern and a
read's trip log, and returns {degree: complex (n, d, d) array}, slice i at
s[i], exact on the demanded entries, zero off the pattern and finite
elsewhere.  A leaf or an inverse that trips a guard at sample i appends
(i, the SingularPointError, its traceback dropped) to the log and holds
zeros or the identity there; every operation hands the log down as it is,
as a shift keeps sample positions.  So a read's log lists its trips in the
order evaluation met them.  Every operation works out from the patterns
alone which entries of its operands the demanded entries read, and at which
shifts of s, and evaluates only those, for the whole batch at once: a
guarded entry or an inverse is evaluated only where a result reads it.
Scalar entry functions (``from_entries``, ``scale``) see one sample at a
time; a leaf may evaluate its whole batch as one stack.  ``at``/``coeffs_at``
take a scalar s (a batch of one, read out as d x d arrays) or a sequence of
samples, and note the log in a ``Trips`` record or, without one, raise its
first trip.  Slice i depends on s[i] alone, bit for bit.  Arrays an
evaluator keeps (constant leaves, cached inverses) are read-only, and so is
what a scalar read returns.

The batch may run over the points of a grid: a grid read lays its samples
out in P equal, point-major blocks, and as every operation maps sample i to
sample i, block p holds point p's values.  A grid leaf evaluates block p
with point p's data (``point_blocks`` rejects a batch that is not P equal
blocks), and ``points`` records the P of the grid leaves a matrix holds (0
for none); a single point is the batch of one.  ``from_entries`` and
``scale`` take one entry or factor per point, and ``inv`` caches the inverse
and the trip at each (point, s) and inverts a read's new samples as one
stack.  A grid read's point takes the first trip its block's samples logged.

Patterns are interned ``Pattern`` objects: read-only dicts of read-only
masks, one object per distinct pattern, where the order of the degrees is
part of the pattern (it sets the order of an evaluation's degrees).  A skew
product sums the terms of each degree in ascending order of the left
factor's degree, whatever its operands' orders, so a degree that holds
exact zeros at a sample does not move that sample's values.  What an
operation derives from patterns alone -- its output masks, its index tables
and, per demand, its plan -- lives in one process-wide table keyed by the
operation, its operands' patterns and the demand, so a graph rebuilt with
new leaves but the same patterns derives nothing again.
Every demand an operation passes on is interned; a plain-dict demand handed
to ``ev`` is interned on entry.  Values never depend on that table's state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .special import DEFAULT_GUARD, SingularPointError, guarded

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
    "point_blocks",
    "Trips",
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


class Pattern(dict):
    """A read-only {E-degree: boolean d x d mask} mapping, interned: equal
    patterns with their degrees in the same order are one object, so a
    pattern hashes and compares by identity."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Pattern is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


# The interned patterns, by (degree, shape, bytes) of each mask in order, and
# what the operations derive from them, keyed by the operation and Pattern
# objects themselves (never an id()), which _PATTERNS keeps alive.
_PATTERNS: dict = {}
_DERIVED: dict = {}


def _intern(masks) -> Pattern:
    """The one Pattern equal to masks, degrees in masks' order; a Pattern is
    returned as it is."""
    if type(masks) is Pattern:
        return masks
    masks = {k: np.asarray(m, dtype=bool) for k, m in masks.items()}
    key = tuple((k, m.shape, m.tobytes()) for k, m in masks.items())
    pattern = _PATTERNS.get(key)
    if pattern is None:
        for k, m in masks.items():
            masks[k] = m = m.copy()
            m.flags.writeable = False
        pattern = _PATTERNS[key] = Pattern(masks)
    return pattern


def _pattern(masks) -> Pattern:
    """The Pattern of masks' nonempty masks."""
    return _intern({k: m for k, m in masks.items() if m.any()})


def _derived(key, derive, *args):
    """The process-wide entry for key (an operation, its operands' patterns
    and, for a plan, the demand), computed as derive(*args) on first use."""
    value = _DERIVED.get(key)
    if value is None:
        value = _DERIVED[key] = derive(*args)
    return value


def point_blocks(s: np.ndarray, points: int) -> np.ndarray:
    """The samples s of a grid read as a (points, m) array, one row per point;
    raises ValueError unless s is points equal blocks."""
    if len(s) % points:
        raise ValueError(f"{len(s)} samples are not {points} equal point blocks")
    return s.reshape(points, len(s) // points)


def _points(a: int, b: int) -> int:
    if a and b and a != b:
        raise ValueError("operands hold grid leaves over different point counts")
    return a or b


def _stack(arrays: list) -> np.ndarray:
    """Stack per-sample d x d arrays; a batch of one is a view of its array,
    so a read-only array stays read-only."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def _sampled(f, items, neutral, log) -> list:
    """[f(*item) for item in items]; an item that trips a guard logs it and
    holds neutral."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(f(*item))
        except SingularPointError as exc:
            log.append((i, exc.with_traceback(None)))
            out.append(neutral)
    return out


class Trips(list):
    """Per grid point, the first guard trip its reads logged, in read order,
    or None: grid reads note their trips here instead of raising them."""

    def __init__(self, points: int):
        super().__init__([None] * points)

    def note(self, log, n: int):
        """Note the log of a point-major read of n samples: an untripped point
        takes the first entry in its block."""
        m = n // len(self)
        for i, exc in log:
            self[i // m] = self[i // m] or exc

    def each(self, f, *columns):
        """f at each point's arguments; a tripped point's value is 1.0."""
        log = []
        vals = _sampled(f, list(zip(*columns)), 1.0, log)
        self.note(log, len(vals))
        return vals

    def outcomes(self, results) -> list:
        """Each point's result, or its first trip."""
        return [t or r for r, t in zip(results, self)]


def _settle(log, n: int, record):
    """Note a read's log (n samples) in record, or raise its first trip."""
    if log:
        if record is None:
            raise log[0][1]
        record.note(log, n)


def _matmul_masks(pa: Pattern, pb: Pattern) -> Pattern:
    masks: dict[int, np.ndarray] = {}
    for da, ma in pa.items():
        for db, mb in pb.items():
            m = ma @ mb
            masks[da + db] = masks[da + db] | m if da + db in masks else m
    return _pattern(masks)


def _matmul_plan(pa: Pattern, pb: Pattern, need: Pattern) -> tuple:
    """(demand on A, {degree of A: demand on B}, the (da, db) pairs summed,
    sorted: each degree sums its terms in ascending order of da)."""
    need_a: dict[int, np.ndarray] = {}
    need_b: dict[int, dict[int, np.ndarray]] = {}
    pairs = []
    for da, ma in pa.items():
        for db, mb in pb.items():
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
    need_b = {da: _intern(n) for da, n in need_b.items()}
    return _intern(need_a), need_b, tuple(sorted(pairs))


def _add_masks(pa: Pattern, pb: Pattern) -> Pattern:
    masks = dict(pa)
    for k, m in pb.items():
        masks[k] = masks[k] | m if k in masks else m
    return _pattern(masks)


def _add_plan(pa: Pattern, pb: Pattern, need: Pattern) -> tuple:
    """The demand on each term, empty where it reads nothing."""
    return tuple(
        _pattern({k: n & p[k] for k, n in need.items() if k in p}) for p in (pa, pb)
    )


def _gather_table(nlegs_in: int, nlegs_out: int, sources) -> np.ndarray:
    """Flat index table of a leg operation.  Column I * D + J lists the flat
    input entries i * d + j that sum into output entry (I, J), as
    sources(row bits, column bits) gives them; the pad index d * d reads 0."""
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
    return table


def _gather_masks(table: np.ndarray, dout: int, p: Pattern) -> Pattern:
    return _pattern(
        {
            k: np.append(m.reshape(-1), False)[table].any(axis=0).reshape(dout, dout)
            for k, m in p.items()
        }
    )


def _gather_plan(table: np.ndarray, d: int, p: Pattern, need: Pattern) -> Pattern:
    need_in = {}
    for k, n in need.items():
        flat = np.zeros(d * d + 1, dtype=bool)
        flat[table[:, n.reshape(-1)]] = True
        need_in[k] = flat[:-1].reshape(d, d) & p[k]
    return _pattern(need_in)


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


def _shift_plan(groups: tuple, need: Pattern) -> tuple:
    """(shift, entries moved by it, demand at that shift) for each shift a
    demand reads."""
    picked = [(k, sel, need[0] & sel) for k, sel in groups]
    return tuple((k, sel, _intern({0: nk})) for k, sel, nk in picked if nk.any())


class DynMatrix:
    """Square matrix of skew-ring elements on 2-dimensional tensor legs:
    a pattern per E-degree and one demand-driven evaluator (module
    docstring).

    Function-valued (degree-0) matrices evaluate to complex arrays through
    ``at``; genuinely shift-valued matrices are read out degree by degree
    through ``coeffs_at``.
    """

    __slots__ = ("nlegs", "masks", "ev", "points")

    def __init__(self, nlegs: int, masks: dict, ev, points: int = 0):
        self.nlegs = nlegs
        self.masks = masks if type(masks) is Pattern else _pattern(masks)
        self.ev = ev
        self.points = points

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
        or a {E-degree: number or function of s} dict.  A list of numbers or
        functions, one per grid point, makes a grid leaf: block p of a read
        takes item p."""
        d = 1 << nlegs
        consts: dict[int, np.ndarray] = {}
        masks: dict[int, np.ndarray] = {}
        fns: dict[int, list] = {}
        points = 0
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
                    if isinstance(c, list):  # one number or function per point
                        points = _points(points, len(c))
                        c = [f if callable(f) else (lambda s, f=f: f) for f in c]
                    elif not callable(c):
                        consts[k][i, j] = c
                        continue
                    fns[k].append((i * d + j, c))
        for arr in consts.values():
            arr.flags.writeable = False

        def ev(s, need, log):
            out = {}
            rows = point_blocks(s, points or 1).tolist()
            for k, n in need.items():
                if not fns[k]:  # a read-only view, not n copies
                    out[k] = np.broadcast_to(consts[k], (len(s), d, d))
                    continue
                wanted = n.reshape(-1)
                todo = [(ij, f if isinstance(f, list) else [f] * len(rows))
                        for ij, f in fns[k] if wanted[ij]]
                out[k] = arr = consts[k][None].repeat(len(s), 0)
                blocks = arr.reshape(len(rows), -1, d * d)
                # one sample at a time, each entry in row-major order
                for p, (xs, vals) in enumerate(zip(rows, blocks)):
                    for j, (x, row) in enumerate(zip(xs, vals)):
                        try:
                            for ij, f in todo:
                                row[ij] = f[p](x)
                        except SingularPointError as exc:
                            row[:] = consts[k].reshape(-1)
                            log.append((p * len(xs) + j, exc.with_traceback(None)))
            return out

        return cls(nlegs, masks, ev, points)

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
        pa, pb = a.masks, b.masks

        def ev(s, need, log):
            need = _intern(need)
            need_a, need_b, pairs = _derived(
                ("@", pa, pb, need), _matmul_plan, pa, pb, need
            )
            va = a.ev(s, need_a, log)
            vb = {da: b.ev(s + da, nb, log) for da, nb in need_b.items()}
            out: dict[int, np.ndarray] = {}
            for da, db in pairs:  # each term is fresh: sum in place
                term = va[da] @ vb[da].pop(db)
                dc = da + db
                if dc in out:
                    out[dc] += term
                else:
                    out[dc] = term
            return out

        masks = _derived(("@", pa, pb), _matmul_masks, pa, pb)
        return DynMatrix(self.nlegs, masks, ev, _points(a.points, b.points))

    def __add__(self, other: "DynMatrix") -> "DynMatrix":
        if self.nlegs != other.nlegs:
            raise ValueError("leg count mismatch")
        terms = (self, other)
        pa, pb = self.masks, other.masks

        def ev(s, need, log):
            need = _intern(need)
            plan = _derived(("+", pa, pb, need), _add_plan, pa, pb, need)
            out = {}
            for t, nt in zip(terms, plan):
                if nt:
                    for k, v in t.ev(s, nt, log).items():
                        out[k] = out[k] + v if k in out else v
            return out

        masks = _derived(("+", pa, pb), _add_masks, pa, pb)
        return DynMatrix(self.nlegs, masks, ev, _points(self.points, other.points))

    def __sub__(self, other: "DynMatrix") -> "DynMatrix":
        return self + other.scale(-1.0)

    def scale(self, factor) -> "DynMatrix":
        """Left-multiply every entry by a scalar (a number or a function of s),
        or by a list of one per grid point: block p takes factor p."""
        src = self
        grid = isinstance(factor, list)
        fs = [f if callable(f) else (lambda s, c=complex(f): c) for f in
              (factor if grid else [factor])]

        def ev(s, need, log):
            rows = point_blocks(s, len(fs)).tolist()
            v = np.array([f(x) for f, row in zip(fs, rows) for x in row])[:, None, None]
            return {k: v * arr for k, arr in src.ev(s, need, log).items()}

        points = _points(self.points, len(fs) if grid else 0)
        return DynMatrix(self.nlegs, self.masks, ev, points)

    # -- leg operations -----------------------------------------------------

    def _gather(self, key, nlegs: int, sources) -> "DynMatrix":
        """The leg operation whose output entries sum the input entries that
        sources(row bits, column bits) lists."""
        src, p = self, self.masks
        d, dout = self.dim, 1 << nlegs
        layout = (self.nlegs,) + key
        table = _derived(layout, _gather_table, self.nlegs, nlegs, sources)

        def ev(s, need, log):
            need = _intern(need)
            plan = _derived((layout, p, need), _gather_plan, table, d, p, need)
            vals = src.ev(s, plan, log)
            n = len(s)
            out = {}
            for k in need:
                flat = np.zeros((n, d * d + 1), dtype=complex)
                flat[:, :-1] = vals[k].reshape(n, d * d)
                out[k] = flat[:, table].sum(axis=1).reshape(n, dout, dout)
            return out

        masks = _derived((layout, p), _gather_masks, table, dout, p)
        return DynMatrix(nlegs, masks, ev, self.points)

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
        dressing = ("shift", self.nlegs, tuple(sorted(spec.items())), use_rows)
        groups = _derived(dressing, _shift_groups, *dressing[1:])
        src, d = self, self.dim

        def ev(s, need, log):
            need = _intern(need)
            out = np.zeros((len(s), d, d), dtype=complex)
            for k, sel, nk in _derived((dressing, need), _shift_plan, groups, need):
                np.copyto(out, src.ev(s + k, nk, log)[0], where=sel)
            return {0: out}

        return DynMatrix(self.nlegs, self.masks, ev, self.points)

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

    def at(self, s, trips: Trips | None = None) -> np.ndarray:
        """Evaluate a function-valued matrix: a d x d array at a scalar s, an
        (n, d, d) stack at a sequence of n samples; guard trips go to trips."""
        if any(k != 0 for k in self.masks):
            raise ValueError("matrix carries nonzero shift degrees; use coeffs_at")
        vals = self._read(s, trips)
        return vals[0] if vals else np.zeros(np.shape(s) + (self.dim,) * 2, complex)

    def coeffs_at(self, s, trips: Trips | None = None) -> dict[int, np.ndarray]:
        """Evaluate degree by degree: {E-degree: complex array}, each a d x d
        array at a scalar s, an (n, d, d) stack at a sequence of n samples."""
        return self._read(s, trips)

    def _read(self, s, trips) -> dict[int, np.ndarray]:
        xs = np.asarray(s, dtype=complex)
        if xs.ndim > 1:
            raise ValueError("samples must be a scalar or a 1-D sequence")
        if not self.masks:
            return {}
        log = []
        vals = self.ev(xs.reshape(-1), self.masks, log)
        _settle(log, xs.size, trips)
        return vals if xs.ndim else {k: v[0] for k, v in vals.items()}

    def inv(self, guard: float = DEFAULT_GUARD) -> "DynMatrix":
        """Lazy matrix inverse of a function-valued matrix.

        The inverse is itself a DynMatrix (evaluable at shifted s).  It keeps
        the inverse and any trip at each (grid point, s) for later reads.  A
        read evaluates the matrix at the samples it has not seen, into a log
        of its own, and inverts them in one call to inv_guarded, which sees
        the identity in place of each sample where the matrix tripped.  It
        logs those trips at the read's positions, then the kept trips of the
        samples it had already seen.  A grid read needs equal point blocks,
        so where the new samples are not, the matrix is evaluated at the
        whole batch and its log is filtered to the new samples.
        """
        self._require_function_valued("inverse")
        cache: dict[tuple, np.ndarray] = {}
        tripped: dict[tuple, SingularPointError] = {}
        base = self

        def ev(s, need, log):
            rows = point_blocks(s, base.points or 1).tolist()
            keys = [(p, x) for p, row in enumerate(rows) for x in row]
            new = {key: i for i, key in enumerate(keys) if key not in cache}
            at = list(new.values())
            if new:
                counts = np.bincount([p for p, _ in new], minlength=len(rows))
                read = s[at] if (counts == counts[0]).all() else s
                own = []
                vals = base.ev(read, base.masks, own)
                arrs = vals.get(0, np.zeros((len(read), base.dim, base.dim)))
                if read is s:
                    arrs, pos = arrs[at], {i: j for j, i in enumerate(at)}
                    own = [(pos[i], exc) for i, exc in own if i in pos]
                if own:
                    arrs = _identity_at(arrs, [j for j, _ in own])
                arrs = inv_guarded(arrs, guard, own, " at s = {}", [x for _, x in new])
                arrs.flags.writeable = False
                cache.update(zip(new, arrs))
                for j, exc in own:
                    tripped.setdefault(keys[at[j]], exc)
                    log.append((at[j], exc))
            if tripped:
                fresh = set(at)
                log.extend((i, tripped[k]) for i, k in enumerate(keys)
                           if i not in fresh and k in tripped)
            return {0: _stack([cache[k] for k in keys])}

        full = {0: np.ones((self.dim, self.dim), dtype=bool)}
        return DynMatrix(self.nlegs, full, ev, self.points)


def _identity_at(arrs: np.ndarray, tripped: list) -> np.ndarray:
    """A copy of the (n, d, d) stack arrs with the identity at tripped."""
    arrs = arrs.copy()
    arrs[tripped] = np.eye(arrs.shape[-1])
    return arrs


def inv_guarded(arrs: np.ndarray, guard: float, log, where: str = "", *args) -> np.ndarray:
    """Inverses of an (n, d, d) stack of evaluated arrays in one call: a
    sample whose |det| falls below the guard logs its trip in log (module
    docstring; where and per-sample sequences args locate it, as in guarded)
    and holds the identity, which np.linalg.inv inverts in its place.  The
    guard decides, so a det that overflows, or that is not finite where
    evaluation went on past a trip, is not warned of."""
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(arrs)
    items = [(det, "det", guard, where, *(a[i] for a in args)) for i, det in enumerate(dets)]
    start = len(log)
    _sampled(guarded, items, None, log)
    if len(log) > start:
        arrs = _identity_at(arrs, [i for i, _ in log[start:]])
    return np.linalg.inv(arrs)


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


def _off_weight(nlegs: int, p: Pattern) -> Pattern:
    """The entries of p whose row and column weight sums differ."""
    w = np.array([sum(weight(b) for b in bits) for bits in _bit_table(nlegs)])
    off = w[:, None] != w[None, :]
    return _pattern({k: m & off for k, m in p.items()})


def zero_weight_check(m: DynMatrix, samples, tol: float, trips: Trips | None = None) -> bool:
    """True iff every entry whose row and column weight sums differ vanishes
    below tol at all sample points (all shift degrees included) but those
    that trip a guard, which go to trips as in DynMatrix.at."""
    need = _derived(("off-weight", m.nlegs, m.masks), _off_weight, m.nlegs, m.masks)
    if not need:
        return True
    xs, log = np.asarray(samples, dtype=complex).reshape(-1), []
    vals = m.ev(xs, need, log)
    _settle(log, len(xs), trips)
    ok = np.ones(len(xs), dtype=bool)
    ok[[i for i, _ in log]] = False
    return not any(abs(vals[k][ok][:, n]).max(initial=0.0) > tol for k, n in need.items())
