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

The diagonal leaves, gamma_twist and _r_dyn also take per-point Params (and
z): a grid matrix (shiftcalc) that reads each sample with its point's data.
A one-point leaf reads _r_array.  A grid read of R goes through a memo of
the samples evaluated in the run (_r_read), and evaluates the samples it
has not seen in one stack (_r_stack).  Both read rho(z), Theta(z),
Theta(q^2 z) and Theta(q^2) through theta and rho_norm; the stack fills the
value cache of special with them first (_grid_z_factors), and forms its
Theta of arguments with w in its own broadcast.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .special import (Params, SingularPointError, _grid_fill, _poch1, _poch1_rows, _powers,
                      guarded, rho_norm, singular, theta)
from .shiftcalc import DynMatrix, _leg_shifts, _sampled, _stack, guarded_div

__all__ = [
    "RPoint",
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


def dyn_w(s: complex, params: Params) -> complex:
    """The dynamical parameter w = q^{2s}."""
    return cmath.exp(2.0 * s * _logq(params.q))


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


@lru_cache(maxsize=1 << 12)
def _z_factors(z: complex, params: Params) -> tuple:
    """What R reads of z and Params alone: (z, p, q, q^2, Theta(z),
    Theta(q^2 z), Theta(q^2)), rho(z) and the trip of rho's guards (rho 0)."""
    q2 = params.q * params.q
    k = z, params.p, params.q, q2, theta(z, params), theta(q2 * z, params), theta(q2, params)
    try:
        return k, rho_norm(z, params), None
    except SingularPointError as exc:
        return k, 0.0, exc.with_traceback(None)


@lru_cache(maxsize=1 << 12)
def _grid_z_factors(z: complex, params: Params) -> tuple:
    """_z_factors(z, params), its Theta and rho formed in one fill of the
    value cache of special."""
    q2 = params.q * params.q
    _grid_fill(params, thetas=(z, q2 * z, q2), rhos=(z,))
    return _z_factors(z, params)


def _entries(w, k, th, poch, guard, twisted: bool) -> tuple:
    """b, bbar, c, cbar (module docstring) at w = q^{2s} from the factors k
    of _z_factors, with th, poch the theta and (.; p) of arguments with w;
    guard(value, label, where) runs in this order.  Numbers give one sample,
    arrays a read."""
    z, p, q, q2, thz, thq2z, thq2 = k
    thq2z = guard(thq2z, "Theta(q^2 z)", " at z={0}, s={1}")
    thw = guard(th(w), "Theta(w)", " at z={0}, s={1}")
    thwi = guard(th(1.0 / w), "Theta(1/w)", " at z={0}, s={1}")
    if twisted:
        pw = guard(poch(p / w), "(p/w; p)", " at s={1}")
        ww = guard(poch(w), "(w; p)", " at s={1}")
        b = q * poch(p * q2 / w) * poch(p / (q2 * w)) / (pw * pw) * thz / thq2z
        bb = q * poch(q2 * w) * poch(w / q2) / (ww * ww) * thz / thq2z
    else:
        b = th(q2 * w) * thz / (thw * thq2z)
        bb = th(q2 / w) * thz / (thwi * thq2z)
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
    p, n, g = params.p, params.truncation_order, params.singular_guard
    k, rho, trip = _z_factors(z, params)
    b_c = _entries(dyn_w(s, params), k, lambda x: theta(x, params), lambda x: _poch1(x, p, n),
                   lambda v, label, where: guarded(v, label, g, where, z, s), twisted)
    if trip is not None:
        raise SingularPointError(*trip.args)
    r = _assemble(rho, *b_c)
    # the lru_cache hands this same array to every caller
    r.flags.writeable = False
    return r


@lru_cache(maxsize=64)
def _grid_tables(params: tuple) -> tuple:
    """Per point: the powers of p padded with zeros to the widest order
    (_poch1_rows), (p; p) and log q."""
    table = np.zeros((len(params), max(x.truncation_order for x in params)), complex)
    for row, x in zip(table, params):
        row[:x.truncation_order] = _powers(x.p, x.truncation_order)
    cols = [(_poch1(x.p, x.p, x.truncation_order), _logq(x.q)) for x in params]
    return (table, *np.array(cols).T)


def _r_stack(zs: list, params: tuple, twisted: bool, s, pts, log: list) -> dict:
    """The evaluation of R at samples s[i] at point pts[i] of a grid read:
    the factors of z alone come once per point from the value cache of rho
    and Theta (_grid_z_factors), gathered by pts once per read, every factor
    with w in one broadcast over the samples, taken past the trips that the
    guards then pick out and log."""
    ks, rho, rho_trips = zip(*[_grid_z_factors(z, x) for z, x in zip(zs, params)])
    k = [np.array(col)[pts] for col in zip(*ks)]
    table, pp, logq = (col[pts] for col in _grid_tables(params))
    # per sample, the first guard it trips: made[k](i) is guard k's trip at sample i
    g, first, made, point = _guard(params), np.full(len(s), -1), [], pts.tolist()

    def guard(value, label, where):
        first[(abs(value) < g) & (first < 0)] = len(made)
        vals = np.broadcast_to(value, s.shape)
        made.append(lambda i: singular(vals[i], label, where, zs[point[i]], complex(s[i])))
        return value

    poch = partial(_poch1_rows, table=table)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        b_c = _entries(np.exp(2.0 * s * logq), k, lambda x: poch(x) * poch(k[1] / x) * pp,
                       poch, guard, twisted)
        r = _assemble(np.array(rho)[pts, None, None], *b_c)
    first[np.array([t is not None for t in rho_trips])[pts] & (first < 0)] = len(made)
    made.append(lambda i: SingularPointError(*rho_trips[point[i]].args))
    at = np.flatnonzero(first >= 0).tolist()
    for i in at:  # made and logged in sample order
        log.append((i, made[first[i]](i)))
    r[at] = 0.0
    return {0: r}


# The R samples of grid reads: by (z, Params, twisted, s), R with zeros where
# it tripped and the message of its trip or None.  run_suite empties it
# before and after a run, and a read that would take it past _R_SAMPLES_SIZE
# keys empties it first.
_R_SAMPLES: dict = {}
_R_SAMPLES_SIZE = 1 << 15


def _r_read(zs: list, params: tuple, twisted: bool, s, pts, log: list) -> dict:
    """A grid read of R through the sample memo: the distinct samples it has
    not seen go through _r_stack once each, and every sample logs its trip,
    a kept one included, in sample order."""
    keys = [(zs[p], params[p], twisted, x) for p, x in zip(pts.tolist(), s.tolist())]
    held = [_R_SAMPLES.get(k) for k in keys]
    new = {}
    for i, (k, h) in enumerate(zip(keys, held)):
        if h is None and k not in new:
            new[k] = i
    if new:
        at, logged = list(new.values()), []
        r = _r_stack(zs, params, twisted, s[at], pts[at], logged)[0]
        trips = dict(logged)
        fresh = {k: (r[j], trips[j].args if j in trips else None) for j, k in enumerate(new)}
        if len(_R_SAMPLES) + len(fresh) > _R_SAMPLES_SIZE:
            _R_SAMPLES.clear()
        _R_SAMPLES.update(fresh)
        held = [h or fresh[k] for k, h in zip(keys, held)]
    for i, (_, trip) in enumerate(held):
        if trip:
            log.append((i, SingularPointError(*trip)))
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


def _each(f, params):
    """f(params) at one Params; the list of f(p) over per-point Params."""
    return f(params) if isinstance(params, Params) else [f(p) for p in params]


def _diag(params, nlegs: int, entry) -> DynMatrix:
    """The diagonal leaf with entry(params, i) at flat index i; per-point
    Params make it a grid leaf whose samples at point p read params[p]."""
    return DynMatrix.diagonal(nlegs, lambda i: _each(lambda p: entry(p, i), params))


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


@lru_cache(maxsize=1 << 15)
def _g22(params: Params, s: complex) -> complex:
    """The gauge's second diagonal entry q^{-s} (w; p)(p q^2/w; p), which is
    also det g (the first entry is 1); evaluated once per (params, s)."""
    p, n = params.p, params.truncation_order
    q2 = params.q * params.q
    w = dyn_w(s, params)
    return _qpow(-s, params) * _poch1(w, p, n) * _poch1(p * q2 / w, p, n)


def gauge_g(params: Params) -> DynMatrix:
    """The spectral-parameter-independent diagonal twist gauge:
    diag(1, q^{-s} (w; p)(p q^2/w; p))."""
    return _diag(params, 1, lambda prm, i: 1.0 if i == 0 else partial(_g22, prm))


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


def ups_ratio(k_num: int, k_den: int, params: Params):
    """Branch-free ratio of the crossing scalar at integer-shifted arguments:
    s -> upsilon(s + k_num) / upsilon(s + k_den)
       = q^{-(k_num - k_den)} Theta(w q^{2 k_num}) / Theta(w q^{2 k_den})."""
    g = params.singular_guard
    pref = _qpow(-(k_num - k_den), params)
    label = f"Theta(w q^{{{2 * k_den}}})"

    def ev(s):
        w = dyn_w(s, params)
        q2 = params.q * params.q
        den = guarded(theta(w * q2**k_den, params), label, g, " at s = {}", s)
        return pref * theta(w * q2**k_num, params) / den

    return ev


def upsilon_ratio(s: complex, k: int, params: Params) -> complex:
    """upsilon(s + k) / upsilon(s), evaluated."""
    return ups_ratio(k, 0, params)(s)


def _ups_diag(params, nlegs, num: dict, den: dict) -> DynMatrix:
    """Diagonal matrix of crossing-scalar ratios; the shifts in numerator and
    denominator are signed leg weights of the diagonal index."""
    kn, kd = _leg_shifts(nlegs, num), _leg_shifts(nlegs, den)
    return _diag(params, nlegs, lambda prm, i: ups_ratio(kn[i], kd[i], prm))


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
    crossing identity of the twist-gauged R-matrix to the plain one; a grid
    matrix for per-point Params."""
    g = gauge_g(params)
    det_g = _each(lambda prm: partial(_g22, prm), params)
    return (g.inv(_guard(params)) @ g.shift_col({1: -1})).scale(det_g)


def mu_scalar(params: Params):
    """mu = upsilon / ((det g)(det g^{-sc})), the scalar appearing in the
    crossing-unitarity reduction; det g^{-sc}(s) = det g(s + 1)."""
    return guarded_div(
        upsilon(params), lambda s: _g22(params, s) * _g22(params, s + 1), params.singular_guard
    )
