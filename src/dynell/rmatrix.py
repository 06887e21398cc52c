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
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import Params, guarded, qpochhammer, rho_norm, theta
from .shiftcalc import DynMatrix, guarded_div, weight

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


@lru_cache(maxsize=1 << 15)
def _r_array(z: complex, s: complex, params: Params, twisted: bool) -> np.ndarray:
    p, q, n, g = params.p, params.q, params.truncation_order, params.singular_guard
    q2 = q * q
    w = dyn_w(s, params)

    def th(x):
        return theta(x, params)

    thq2z = guarded(th(q2 * z), "Theta(q^2 z)", g, " at z={}, s={}", z, s)
    thw = guarded(th(w), "Theta(w)", g, " at z={}, s={}", z, s)
    thwi = guarded(th(1.0 / w), "Theta(1/w)", g, " at z={}, s={}", z, s)
    thz = th(z)
    if twisted:
        pw = guarded(qpochhammer(p / w, [p], n), "(p/w; p)", g, " at s={}", s)
        ww = guarded(qpochhammer(w, [p], n), "(w; p)", g, " at s={}", s)
        b = (
            q
            * qpochhammer(p * q2 / w, [p], n)
            * qpochhammer(p / (q2 * w), [p], n)
            / (pw * pw)
            * thz
            / thq2z
        )
        bb = (
            q
            * qpochhammer(q2 * w, [p], n)
            * qpochhammer(w / q2, [p], n)
            / (ww * ww)
            * thz
            / thq2z
        )
    else:
        b = th(q2 * w) * thz / (thw * thq2z)
        bb = th(q2 / w) * thz / (thwi * thq2z)
    c = th(q2) * th(w * z) / (thw * thq2z)
    cb = th(q2) * th(z / w) / (thwi * thq2z)

    rho = rho_norm(z, params)
    r = rho * np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, b, c, 0.0],
            [0.0, cb, bb, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    # the lru_cache hands this same array to every caller
    r.flags.writeable = False
    return r


def _r_dyn(z: complex, params: Params, twisted: bool) -> DynMatrix:
    """One matrix-valued leaf: every demand reads the whole cached array."""
    z = complex(z)
    return DynMatrix(
        2, {0: _R_PATTERN}, lambda s, need: {0: _r_array(z, s, params, twisted)}
    )


def build_r(point: RPoint) -> DynMatrix:
    """The dynamical elliptic R-matrix at spectral parameter point.z, as a
    two-leg matrix of functions of s (evaluable at shifted s)."""
    return _r_dyn(point.z, point.params, twisted=False)


def build_r_twisted(point: RPoint) -> DynMatrix:
    """The twist-gauged R-matrix variant (same c, cbar and normalization)."""
    return _r_dyn(point.z, point.params, twisted=True)


def _g22(params: Params):
    """The gauge's second diagonal entry q^{-s} (w; p)(p q^2/w; p), which is
    also det g (the first entry is 1)."""
    p, n = params.p, params.truncation_order
    q2 = params.q * params.q

    def g22(s):
        w = dyn_w(s, params)
        return (
            _qpow(-s, params)
            * qpochhammer(w, [p], n)
            * qpochhammer(p * q2 / w, [p], n)
        )

    return g22


def gauge_g(params: Params) -> DynMatrix:
    """The spectral-parameter-independent diagonal twist gauge:
    diag(1, q^{-s} (w; p)(p q^2/w; p))."""
    g22 = _g22(params)
    return DynMatrix.diagonal(1, lambda i: 1.0 if i == 0 else g22)


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
        den = guarded(theta(w * q2**k_den, params), label, g)
        return pref * theta(w * q2**k_num, params) / den

    return ev


def upsilon_ratio(s: complex, k: int, params: Params) -> complex:
    """upsilon(s + k) / upsilon(s), evaluated."""
    return ups_ratio(k, 0, params)(s)


def cross_gauge(params: Params) -> DynMatrix:
    """One-leg diagonal matrix G with entries upsilon(s)/upsilon(s + weight)."""
    return DynMatrix.diagonal(1, lambda i: ups_ratio(0, weight(i), params))


def trace_weight(params: Params) -> DynMatrix:
    """N = G^{-sc}: the diagonal weight used inside the trace functionals."""
    return cross_gauge(params).shift_col({1: -1})


def trace_weight_direct(params: Params) -> DynMatrix:
    """Equivalent direct form of N: entries upsilon(s - weight)/upsilon(s)."""
    return DynMatrix.diagonal(1, lambda i: ups_ratio(-weight(i), 0, params))


def gamma_twist(params: Params) -> DynMatrix:
    """Gamma = (det g) g^{-1} g^{-sc}, the diagonal factor relating the
    crossing identity of the twist-gauged R-matrix to the plain one."""
    g = gauge_g(params)
    return (g.inv(params.singular_guard) @ g.shift_col({1: -1})).scale(_g22(params))


def mu_scalar(params: Params):
    """mu = upsilon / ((det g)(det g^{-sc})), the scalar appearing in the
    crossing-unitarity reduction; det g^{-sc}(s) = det g(s + 1)."""
    g22 = _g22(params)
    return guarded_div(
        upsilon(params), lambda s: g22(s) * g22(s + 1), params.singular_guard
    )
