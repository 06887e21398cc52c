"""Face-type dynamical elliptic R-matrix in the 2-dimensional representation,
its twist-gauged variant, and the diagonal dressing factors entering the
crossing and crossing-unitarity identities.

All entries depend on the dynamical coordinate s through w = q^{2s}.  Half
powers are single-valued by construction: w^{1/2} := q^s = exp(s log q) with
the principal logarithm, and the q^{-1/2} prefactor of the normalization uses
the primary input q_half.  Only integer shifts of s ever occur, under which
these choices are exactly consistent.

Matrix layout on two legs (basis order (0,0),(0,1),(1,0),(1,1)):

    rho(z) * [[1, 0,    0,    0],
              [0, b,    c,    0],
              [0, cbar, bbar, 0],
              [0, 0,    0,    1]]

with  b = Th(q^2 w) Th(z) / (Th(w) Th(q^2 z)),
      bbar = Th(q^2/w) Th(z) / (Th(1/w) Th(q^2 z)),
      c = Th(q^2) Th(w z) / (Th(w) Th(q^2 z)),
      cbar = Th(q^2) Th(z/w) / (Th(1/w) Th(q^2 z)),
and, for the twist-gauged variant, the middle diagonal replaced by
      b' = q (p q^2/w; p)(p/(q^2 w); p)/(p/w; p)^2 * Th(z)/Th(q^2 z),
      bbar' = q (q^2 w; p)(w/q^2; p)/(w; p)^2 * Th(z)/Th(q^2 z).

The gauge diagonals (_gauge leaves: gauge_g, gamma_twist, the crossing-scalar
ratios and the chain's mu ratios) and _r_dyn take per-point Params (and z):
a grid matrix (shiftcalc) that reads each sample with its point's data.  A
gauge read forms its demanded entries over all of its samples at once: g22
through the memo _G22 by (s, Params), Theta(w q^{2k}) through the Theta
cache of special (_theta_rows), the misses of each in one broadcast, in
Python's complex arithmetic where they combine, with one comparison for its
guards.  The scalar forms (_g22, ups_ratio, mu_scalar) are one-sample reads
of it.  A one-point R leaf reads _r_array.  A grid read of R goes through a
memo of the samples evaluated in the run (_r_read), and evaluates the
samples it has not seen in one stack (_r_stack).  Both read rho(z),
Theta(z), Theta(q^2 z) and Theta(q^2) from the value caches of special, the
stack once per read for all points (_theta_rows, _rho_rows).  What depends
on w alone -- w, Theta(w), Theta(1/w) and the factors of b and bbar
(_w_factors) -- the stack takes from a second memo of the run, by (s,
Params, twisted) (_w_rows), which forms each key once, in one broadcast per
factor over the points' padded rows; per sample the stack forms only
Theta(w z) and Theta(z/w), in one broadcast each.  The one-point read forms
the same factors lazily, one after another past its guards.  _entries is
the one formula of b, bbar, c and cbar for both.  Every memo is read
through special._held.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .special import (Params, _grid_tables, _held, _poch1, _poch1_rows,
                      _rho_rows, _theta_rows, guarded, rho_norm, singular, theta)
from .shiftcalc import DynMatrix, _leg_shifts, _sampled, _stack

__all__ = [
    "RPoint",
    "UnderflowError",
    "build_r",
    "build_r_twisted",
    "gauge_g",
    "twist_of_r",
    "upsilon",
    "upsilon_ratio",
    "ups_ratio",
    "cross_gauge",
    "trace_weight",
    "trace_weight_direct",
    "gamma_twist",
    "mu_scalar",
    "dyn_w",
]


@lru_cache(maxsize=None)
def _logq(q: complex) -> complex:
    return cmath.log(q)


class UnderflowError(ValueError):
    """w = q^{2s} underflows to 0 at the sample s, which it keeps."""

    def __init__(self, s: complex):
        super().__init__(f"w = q^(2s) underflows to 0 at s = {s}")
        self.s = s


def dyn_w(s: complex, params: Params) -> complex:
    """The dynamical parameter w = q^{2s}; an UnderflowError where it
    underflows to 0."""
    w = cmath.exp(2.0 * s * _logq(params.q))
    if w == 0:
        raise UnderflowError(s)
    return w


@lru_cache(maxsize=64)
def _logq_rows(params: tuple) -> np.ndarray:
    """log q of each point of a grid, formed once per grid."""
    rows = np.array([_logq(x.q) for x in params])
    rows.flags.writeable = False
    return rows


def _dyn_w_rows(s: np.ndarray, params: tuple, pts: np.ndarray) -> np.ndarray:
    """dyn_w(s[i], params[pts[i]]) for every sample i in one array pass, to
    the last bit: 2.0 * s * log q is formed on split real and imaginary
    parts in CPython's order, since numpy's complex * may fuse a product.
    The points' log q come from one table per grid (_logq_rows).  An
    UnderflowError names the first sample where w underflows to 0."""
    logq = _logq_rows(tuple(params))[pts]
    sr, si, br, bi = s.real, s.imag, logq.real, logq.imag
    ar, ai = 2.0 * sr - 0.0 * si, 2.0 * si + 0.0 * sr
    x = np.empty(len(s), complex)
    x.real, x.imag = ar * br - ai * bi, ar * bi + ai * br
    w = np.exp(x)
    if not w.all():
        raise UnderflowError(complex(s[w == 0][0]))
    return w


def _qpow(s: complex, params: Params) -> complex:
    """q^s = exp(s log q), the single-valued half power of w."""
    return cmath.exp(s * _logq(params.q))


@dataclass(frozen=True)
class RPoint:
    """Evaluation point: spectral parameter z and dynamical coordinate s."""

    z: complex
    s: complex
    params: Params

    def validate(self):
        """Raise SingularPointError if the point sits on a component pole or
        on the normalization's singular lattice."""
        _r_array(self.z, self.s, self.params, False)


_R_PATTERN = np.zeros((4, 4), dtype=bool)
_R_PATTERN[[0, 1, 1, 2, 2, 3], [0, 1, 2, 1, 2, 3]] = True
_R_PATTERN.flags.writeable = False
_R_TRIPPED = np.zeros((4, 4), dtype=complex)  # what a tripped sample holds
_R_TRIPPED.flags.writeable = False


def _w_factors(w, p, q2, th, poch, twisted: bool):
    """The factors of R that depend on w = q^{2s} alone, in the order
    _entries reads them: Theta(w), Theta(1/w), then those of b and bbar
    (module docstring).  A generator, so that a one-point read forms each
    only once the guards before it have passed."""
    yield th(w)
    yield th(1.0 / w)
    if twisted:
        yield poch(p / w)
        yield poch(w)
        yield poch(p * q2 / w)
        yield poch(p / (q2 * w))
        yield poch(q2 * w)
        yield poch(w / q2)
    else:
        yield th(q2 * w)
        yield th(q2 / w)


def _entries(w, k, th, wf, guard, twisted: bool) -> tuple:
    """b, bbar, c, cbar (module docstring) at w = q^{2s} from what R reads
    of z and Params alone, k = (z, p, q, q^2, Theta(z), Theta(q^2 z),
    Theta(q^2)), the iterator wf of the factors of w alone (_w_factors) and
    th, the theta of arguments with w and z; guard(value, label, where)
    runs in this order.  Numbers give one sample, arrays a read."""
    z, p, q, q2, thz, thq2z, thq2 = k
    thq2z = guard(thq2z, "Theta(q^2 z)", " at z={0}, s={1}")
    thw = guard(next(wf), "Theta(w)", " at z={0}, s={1}")
    thwi = guard(next(wf), "Theta(1/w)", " at z={0}, s={1}")
    if twisted:
        pw = guard(next(wf), "(p/w; p)", " at s={1}")
        ww = guard(next(wf), "(w; p)", " at s={1}")
        b = q * next(wf) * next(wf) / (pw * pw) * thz / thq2z
        bb = q * next(wf) * next(wf) / (ww * ww) * thz / thq2z
    else:
        b = next(wf) * thz / (thw * thq2z)
        bb = next(wf) * thz / (thwi * thq2z)
    c = thq2 * th(w * z) / (thw * thq2z)
    cb = thq2 * th(z / w) / (thwi * thq2z)
    return b, bb, c, cb


def _assemble(rho, b, bb, c, cb) -> np.ndarray:
    """rho times the R layout (module docstring) of one sample or a stack."""
    r = np.zeros(np.shape(b) + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = 1.0
    r[..., 1, 1], r[..., 1, 2], r[..., 2, 1], r[..., 2, 2] = b, c, cb, bb
    return rho * r


@lru_cache(maxsize=1 << 15)
def _r_array(z: complex, s: complex, params: Params, twisted: bool) -> np.ndarray:
    p, q, n, g = params.p, params.q, params.truncation_order, params.singular_guard
    k = z, p, q, q * q, theta(z, params), theta(q * q * z, params), theta(q * q, params)
    w, th = dyn_w(s, params), lambda x: theta(x, params)
    wf = _w_factors(w, p, k[3], th, lambda x: _poch1(x, p, n), twisted)
    b_c = _entries(w, k, th, wf, lambda v, label, where: guarded(v, label, g, where, z, s),
                   twisted)
    r = _assemble(rho_norm(z, params), *b_c)  # rho's trip raised after the guards of b_c
    # the lru_cache hands this same array to every caller
    r.flags.writeable = False
    return r


def _r_stack(zs: list, params: tuple, twisted: bool, s, pts, log: list) -> dict:
    """The evaluation of R at samples s[i] at point pts[i] of a grid read:
    the factors of z alone (_entries' k) come once per point from the value
    caches of Theta and rho, gathered by pts, the factors of w alone from
    _R_W (_w_rows), and Theta(w z) and Theta(z/w) in one broadcast each over
    the samples, taken past the trips that the guards then pick out and
    log."""
    n, q2 = len(zs), [x.q * x.q for x in params]
    th = _theta_rows(zs + [a * z for a, z in zip(q2, zs)] + q2, np.tile(np.arange(n), 3), params)
    rho = _rho_rows(list(zip(zs, params)))  # a trip's message where rho tripped
    tripped = [isinstance(v, str) for v in rho]
    k = [np.array(col)[pts] for col in (zs, [x.p for x in params], [x.q for x in params], q2,
                                        th[:n], th[n:2 * n], th[2 * n:])]
    table, pp = (col[pts] for col in _grid_tables(params))
    # per sample, the first guard it trips: made[k](i) is guard k's trip at sample i
    g, first, made, point = _guard(params), np.full(len(s), -1), [], pts.tolist()

    def guard(value, label, where):
        first[(abs(value) < g) & (first < 0)] = len(made)
        vals = np.broadcast_to(value, s.shape)
        made.append(lambda i: singular(vals[i], label, where, zs[point[i]], complex(s[i])))
        return value

    poch = partial(_poch1_rows, table=table)
    w, *wf = _w_rows(params, twisted, s, pts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b_c = _entries(w, k, lambda x: poch(x) * poch(k[1] / x) * pp, iter(wf), guard, twisted)
        r = _assemble(np.array([0.0 if t else v for v, t in zip(rho, tripped)])[pts, None, None],
                      *b_c)
    first[np.array(tripped)[pts] & (first < 0)] = len(made)
    made.append(lambda i: rho[point[i]])
    at = np.flatnonzero(first >= 0).tolist()
    for i in at:  # made and logged in sample order
        log.append((i, made[first[i]](i)))
    r[at] = 0.0
    return {0: r}


# The R samples of grid reads: by (z, Params, twisted, s), R with zeros where
# it tripped and the message of its trip or None.  Beside it, _R_W: by (s,
# Params, twisted), w and the factors of R of w alone (_w_factors).  Both are
# read through _held and bounded by _R_SAMPLES_SIZE keys; run_suite empties
# them before and after a run.
_R_SAMPLES: dict = {}
_R_W: dict = {}
_R_SAMPLES_SIZE = 1 << 15


def _w_rows(params: tuple, twisted: bool, s, pts) -> np.ndarray:
    """w and the factors of w alone (_w_factors) at every sample of a grid
    read, one row each, through _R_W.  Its misses form w = exp(2 s log q)
    and each factor in one broadcast over the points' padded rows of powers
    (_grid_tables), by the expressions of the R stack."""
    keys = list(zip(s.tolist(), map(params.__getitem__, pts.tolist()), [twisted] * len(s)))

    def form(at):
        sa, pa = s[at], pts[at]
        table, pp = (col[pa] for col in _grid_tables(params))
        p, q2 = (np.array(col)[pa] for col in ([x.p for x in params], [x.q * x.q for x in params]))
        poch = partial(_poch1_rows, table=table)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = np.exp(2.0 * sa * _logq_rows(params)[pa])
            rows = [w, *_w_factors(w, p, q2, lambda x: poch(x) * poch(p / x) * pp, poch, twisted)]
        return np.array(rows).T.tolist()

    return np.array(_held(_R_W, _R_SAMPLES_SIZE, keys, form)).T


def _r_read(zs: list, params: tuple, twisted: bool, s, pts, log: list) -> dict:
    """A grid read of R through the sample memo: the distinct samples it has
    not seen go through _r_stack once each, and every sample logs its trip,
    a kept one included, in sample order."""
    def form(at):
        logged = []
        r = _r_stack(zs, params, twisted, s[at], pts[at], logged)[0]
        trips = dict(logged)
        return [(r[j], trips.get(j)) for j in range(len(at))]

    keys = [(zs[p], params[p], twisted, x) for p, x in zip(pts.tolist(), s.tolist())]
    held = _held(_R_SAMPLES, _R_SAMPLES_SIZE, keys, form)
    for i, (_, trip) in enumerate(held):
        if trip:
            log.append((i, trip))
    return {0: np.array([r for r, _ in held]).reshape(len(keys), 4, 4)}


def _r_dyn(z, params, twisted: bool) -> DynMatrix:
    """One matrix-valued leaf: a sample that trips a guard holds zeros.  At
    one Params every sample reads the cached _r_array; per-point sequences of
    z and params make a grid leaf that reads a sample at point p at z[p]
    with params[p], each read through the sample memo (_r_read)."""
    if isinstance(params, Params):
        def ev(s, pts, need, log):
            args = [(complex(z), x, params, twisted) for x in s.tolist()]
            return {0: _stack(_sampled(_r_array, args, _R_TRIPPED, log))}

        return DynMatrix(2, {0: _R_PATTERN}, ev)
    zs, ps = [complex(x) for x in z], tuple(params)
    return DynMatrix(2, {0: _R_PATTERN}, lambda s, pts, need, log: _r_read(
        zs, ps, twisted, s, pts, log), len(ps))


def _guard(params) -> float:
    """The singular guard of one Params, or the one per-point Params share."""
    if isinstance(params, Params):
        return params.singular_guard
    (guard,) = {p.singular_guard for p in params}  # ValueError unless shared
    return guard


def build_r(point: RPoint) -> DynMatrix:
    """The dynamical elliptic R-matrix at spectral parameter point.z, as a
    two-leg matrix of functions of s (evaluable at shifted s)."""
    return _r_dyn(point.z, point.params, twisted=False)


def build_r_twisted(point: RPoint) -> DynMatrix:
    """The twist-gauged R-matrix variant (same c, cbar and normalization)."""
    return _r_dyn(point.z, point.params, twisted=True)


# The gauge entries g22 by (s, Params), read through _held.
_G22: dict = {}
_G22_SIZE = 1 << 15
_PT0 = np.zeros(1, np.intp)  # the point of a one-sample read


def _g22_form(s, pts, prms: tuple) -> list:
    """g22 at samples s at points pts of prms, its two products in one
    broadcast over the points' padded rows of powers (_grid_tables)."""
    pl = pts.tolist()
    x = [(w, prms[p].p * (prms[p].q * prms[p].q) / w)
         for p, w in zip(pl, _dyn_w_rows(s, prms, pts).tolist())]
    # one np.prod, so that numpy's overflow warning at large p names numpy's
    # file on stderr, not a dynell line (until ROADMAP item 16)
    pw = np.prod(1.0 - np.array(x)[:, :, None] * _grid_tables(prms)[0][pts, None], axis=-1)
    return [_qpow(-x, prms[p]) * a * b for x, p, (a, b) in zip(s.tolist(), pl, pw.tolist())]


def _g22_rows(s, pts, prms: tuple, n: int = 1) -> list:
    """g22 at every sample s of a read and, for n = 2, at s + 1, through
    _G22 and in the per-sample order g22(s[0]), g22(s[0] + 1), g22(s[1]),
    ...: a list per shift."""
    s, pts = np.stack([s, s + 1][:n], 1).ravel(), pts.repeat(n)
    keys = list(zip(s.tolist(), map(prms.__getitem__, pts.tolist())))
    got = _held(_G22, _G22_SIZE, keys, lambda at: _g22_form(s[at], pts[at], prms))
    return [got[k::n] for k in range(n)]


def _ups_rows(s, pts, prms: tuple) -> list:
    """upsilon at every sample of a read."""
    th = _theta_rows(_dyn_w_rows(s, prms, pts).tolist(), pts, prms)
    return [_qpow(-x, prms[p]) * t for x, p, t in zip(s.tolist(), pts.tolist(), th)]


def _ratio(num: list, den: list) -> list:
    """num[i] / den[i], and 0 where den[i] is 0, which trips its guard."""
    return [a / b if b else 0j for a, b in zip(num, den)]


def _gauge(params, nlegs: int, entries) -> DynMatrix:
    """A diagonal leaf whose read forms its demanded entries over all of its
    samples: entries(s, pts, prms, want) gives the entries at flat indices
    want, and the guard checks (label, values, the s each is at) in the
    order their per-sample forms meet them.  A sample logs its first check
    below the singular guard and holds zeros."""
    one = isinstance(params, Params)
    prms, g, d = (params,) if one else tuple(params), _guard(params), 1 << nlegs

    def ev(s, pts, need, log):
        want = np.flatnonzero(need[0].diagonal()).tolist()
        vals, checks = entries(s, np.zeros_like(pts) if one else pts, prms, want)
        out = np.zeros((len(s), d, d), complex)
        out[:, want, want] = np.transpose(vals)
        low = abs(np.array([v for _, v, _ in checks])) < g
        for i in np.flatnonzero(low.any(0)).tolist():
            label, v, at = checks[low[:, i].argmax()]
            log.append((i, singular(v[i], label, " at s = {}", complex(at[i]))))
            out[i] = 0.0
        return {0: out}

    return DynMatrix(nlegs, {0: np.eye(d, dtype=bool)}, ev, 0 if one else len(prms))


def _one(entries, s, params: Params) -> complex:
    """The one entry of entries (_gauge) at the one sample s, or a new
    SingularPointError of its first trip."""
    (value,), checks = entries(np.array([s], complex), _PT0, (params,), [0])
    for label, v, _ in checks:
        guarded(v[0], label, params.singular_guard, " at s = {}", s)
    return value[0]


def _g22(params: Params, s: complex) -> complex:
    """The gauge's second diagonal entry q^{-s} (w; p)(p q^2/w; p), also det
    g (the first entry is 1) and Gamma's entry at s: a read of _G22."""
    value = _G22.get((s, params))
    return _g22_rows(np.array([s], complex), _PT0, (params,))[0][0] if value is None else value


def gauge_g(params: Params) -> DynMatrix:
    """The spectral-parameter-independent diagonal twist gauge:
    diag(1, q^{-s} (w; p)(p q^2/w; p))."""
    return _gauge(params, 1, lambda s, pts, prms, want: (
        [[1.0] * len(s) if i == 0 else _g22_rows(s, pts, prms)[0] for i in want], []))


def twist_of_r(point: RPoint) -> DynMatrix:
    """Dress the R-matrix by the diagonal gauge:
    g_2 . g_1(shifted by leg-2 weight) . R . g_1^{-1} . g_2^{-1}(shifted by
    leg-1 weight).  Agrees entrywise with build_r_twisted."""
    params = point.params
    g = gauge_g(params)
    gi = g.inv(params.singular_guard)
    left = g.embed(2, (2,)) @ g.embed(2, (1,)).shift_col({2: +1})
    right = gi.embed(2, (1,)) @ gi.embed(2, (2,)).shift_col({1: +1})
    return left @ build_r(point) @ right


def upsilon(params: Params):
    """The crossing scalar q^{-s} Theta(q^{2s}) as a function of s."""
    return lambda s: _qpow(-s, params) * theta(dyn_w(s, params), params)


@lru_cache(maxsize=256)
def _ups_tables(prms: tuple, kn: tuple, kd: tuple) -> tuple:
    """Per point of prms: (q^2)^k for the distinct shifts k of the ratios
    upsilon(s + kn[i]) / upsilon(s + kd[i]), in the order they meet them,
    and each q^{-(kn[i] - kd[i])}; the k of each numerator and denominator."""
    ks = list(dict.fromkeys(k for pair in zip(kd, kn) for k in pair))
    return ([[(x.q * x.q) ** k for k in ks] for x in prms],
            [[_qpow(-(a - b), x) for a, b in zip(kn, kd)] for x in prms],
            [ks.index(k) for k in kn], [ks.index(k) for k in kd], len(ks))


def _ups_entries(kn: list, kd: list):
    """The entries (_gauge) upsilon(s + kn[i]) / upsilon(s + kd[i])
    = q^{-(kn[i] - kd[i])} Theta(w q^{2 kn[i]}) / Theta(w q^{2 kd[i]}),
    each guarded on its denominator."""
    def entries(s, pts, prms, want):
        q2k, pref, num, den, n = _ups_tables(prms, *(tuple(k[i] for i in want) for k in (kn, kd)))
        pl = pts.tolist()
        th = _theta_rows([w * c for w, p in zip(_dyn_w_rows(s, prms, pts).tolist(), pl)
                          for c in q2k[p]], pts.repeat(n), prms)
        return ([_ratio([pref[p][j] * a for p, a in zip(pl, th[num[j]::n])], th[den[j]::n])
                 for j in range(len(want))],
                [(f"Theta(w q^{{{2 * kd[i]}}})", th[j::n], s) for i, j in zip(want, den)])

    return entries


def ups_ratio(k_num: int, k_den: int, params: Params):
    """Branch-free ratio of the crossing scalar at integer-shifted arguments:
    s -> upsilon(s + k_num) / upsilon(s + k_den)
       = q^{-(k_num - k_den)} Theta(w q^{2 k_num}) / Theta(w q^{2 k_den})."""
    entries = _ups_entries([k_num], [k_den])
    return lambda s: _one(entries, s, params)


def upsilon_ratio(s: complex, k: int, params: Params) -> complex:
    """upsilon(s + k) / upsilon(s), evaluated."""
    return ups_ratio(k, 0, params)(s)


def _ups_diag(params, nlegs, num: dict, den: dict) -> DynMatrix:
    """Diagonal matrix of crossing-scalar ratios; the shifts in numerator and
    denominator are signed leg weights of the diagonal index."""
    return _gauge(params, nlegs, _ups_entries(_leg_shifts(nlegs, num), _leg_shifts(nlegs, den)))


def cross_gauge(params: Params) -> DynMatrix:
    """One-leg diagonal matrix G with entries upsilon(s)/upsilon(s + weight)."""
    return _ups_diag(params, 1, {}, {1: +1})


def trace_weight(params: Params) -> DynMatrix:
    """N = G^{-sc}: the diagonal weight used inside the trace functionals."""
    return cross_gauge(params).shift_col({1: -1})


def trace_weight_direct(params: Params) -> DynMatrix:
    """Equivalent direct form of N: entries upsilon(s - weight)/upsilon(s)."""
    return _ups_diag(params, 1, {1: -1}, {})


def gamma_twist(params: Params) -> DynMatrix:
    """Gamma = (det g) g^{-1} g^{-sc}, the diagonal factor relating the
    crossing identity of the twist-gauged R-matrix to the plain one, in its
    closed form diag(g22(s), g22(s + 1)): a gauge leaf (_gauge) reading g22
    through _G22, a grid matrix for per-point Params.  Either entry trips
    where g^{-1}'s det guard would: |g22(s)| below the singular guard, with
    the message of that det."""
    def entries(s, pts, prms, want):
        g22 = _g22_rows(s, pts, prms, 1 + want[-1])  # g22(s + 1) only where entry 1 is read
        return [g22[i] for i in want], [("det", g22[0], s)]

    return _gauge(params, 1, entries)


def _mu_entries(s, pts, prms: tuple, want=(0,), drop: bool = False) -> tuple:
    """mu (mu_scalar) as the one entry of _gauge's entries, guarded on its
    denominator (det g)(det g^{-sc}), or on det g alone with drop."""
    g22 = _g22_rows(s, pts, prms, 1 if drop else 2)
    det = g22[0] if drop else [a * b for a, b in zip(*g22)]
    return [_ratio(_ups_rows(s, pts, prms), det)], [("denominator", det, s)]


def mu_scalar(params: Params):
    """mu = upsilon / ((det g)(det g^{-sc})), the scalar appearing in the
    crossing-unitarity reduction; det g^{-sc}(s) = det g(s + 1)."""
    return lambda s: _one(_mu_entries, s, params)
