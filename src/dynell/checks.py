"""One check per certified matrix identity.

Each check builds both sides of an identity from the R-matrix and
shift-calculus layers and returns the normalized residual as a float.  The
residual convention throughout is

    residual = max-entry |LHS - RHS| / max(1, max-entry |LHS|),

with shift-valued sides compared coefficient-wise per E-degree at sampled
values of the dynamical coordinate.  The checks marked _over_points (every
row that builds a DynMatrix; all but the scalar theta, nscalar and aequalsn
rows) run once over all grid points; each builds both sides of its identity
as DynMatrix expressions and reads them through _skew_resids.  A singular
guard does not stop such a batch: its reads note each point's first trip in
a Trips record, in the order a single point's run would meet them, and the
point's result is a SingularPointError of that trip.  Called at one point, a
check raises it.  A scalar factor such as 1/n(z) is a lazy scale factor,
read per sample with the side it scales and logging its trips as a leaf
does; traceint alone calls n(z) as it builds, noting a trip before any read.
A check reads every theta, rho and n(z), in these factors and in the scalar
rows, through theta, rho_norm and unitarity_scalar after a fill of the
value cache of special (_grid_fill), so each comes from the row kernels.

The suite runner alone turns residuals into CheckReports: it names each
report after its row of the _SUITE table, takes the point from the row's
inputs, and records a SingularPointError as status "skipped-singular" rather
than a failure.  Negative controls are first-class: every corruptible check
accepts a named corruption of one side, and a row named "*.negctrl" counts as
pass exactly when the corrupted residual exceeds 1e-3, so a suite that is
green is also demonstrably sensitive.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .special import (
    Params,
    SingularPointError,
    _grid_fill,
    rho_norm,
    theta,
    unitarity_scalar,
)
from .shiftcalc import (
    PAULI_Y,
    DynMatrix,
    Trips,
    _leg_shifts,
    index_bits,
    weight,
    weight_shift_matrix,
    zero_weight_check,
)
from .rmatrix import (
    _R_SAMPLES,
    _dyn_w_rows,
    _gauge,
    _guard,
    _mu_entries,
    _r_dyn,
    _ratio,
    _ups_diag,
    _ups_rows,
    cross_gauge,
    gamma_twist,
    trace_weight,
    trace_weight_direct,
)

__all__ = [
    "CheckReport",
    "GridSpec",
    "GridPoint",
    "CONTROL_THRESHOLD",
    "check_dybe",
    "check_unitarity",
    "check_crossing",
    "check_crossing_unitarity",
    "check_proof_chain_cor22",
    "check_lemma_p1",
    "check_magic",
    "check_a_equals_n",
    "check_n_forms",
    "integration_trace_check",
    "run_suite",
    "suite_passes",
    "summarize",
    "all_check_names",
    "resolve_check_names",
    "format_complex",
]

CONTROL_THRESHOLD = 1e-3

SCHEMA_VERSION = "1"


def format_complex(x: complex) -> str:
    """Full round-trip a+bi literal (shortest repr that parses back exactly)."""
    x = complex(x)
    return _format_complex(x, math.copysign(1.0, x.real))  # 0.0 and -0.0 are equal keys


@functools.lru_cache(maxsize=1 << 12)
def _format_complex(x: complex, real_sign: float) -> str:
    sign = "+" if x.imag >= 0 else "-"
    return f"{x.real!r}{sign}{abs(x.imag)!r}i"


@dataclass
class CheckReport:
    """Outcome of one identity check at one parameter point."""

    name: str
    point: dict
    residual: float | None
    status: str  # "pass" | "fail" | "skipped-singular"
    detail: str = ""

    def to_dict(self) -> dict:
        pt = {}
        for k, v in self.point.items():
            if isinstance(v, complex):
                pt[k] = format_complex(v)
            elif isinstance(v, (tuple, list)):
                pt[k] = [format_complex(z) for z in v]
            else:
                pt[k] = v
        return {
            "name": self.name,
            "point": pt,
            # strict JSON: a residual that is not finite is null
            "residual": self.residual if math.isfinite(self.residual or 0.0) else None,
            "status": self.status,
            "detail": self.detail,
        }


def _worst(per_sample: np.ndarray, points: int) -> list:
    """The worst per-sample residual over each grid point's block of samples;
    a NaN anywhere in a block is that point's residual, so it fails."""
    return per_sample.reshape(points, -1).max(axis=1).tolist()


def _skew_resids(lhs: DynMatrix, rhs: DynMatrix, samples, trips: Trips | None = None) -> list:
    """Coefficient-wise residual per E-degree, normalised per sample point,
    worst over each block of samples (all evaluated in one batch): one
    residual per grid point of the sides' grid leaves; trips as in DynMatrix.at."""
    samples = list(samples)
    lc = lhs.coeffs_at(samples, trips)
    rc = rhs.coeffs_at(samples, trips)
    n = len(samples)
    zero = np.zeros((n, lhs.dim, lhs.dim))
    peaks = [abs(m).max(axis=(1, 2)) for m in lc.values()]
    diffs = [abs(lc.get(k, zero) - rc.get(k, zero)).max(axis=(1, 2)) for k in set(lc) | set(rc)]
    norm = np.max([np.ones(n)] + peaks, axis=0)
    return _worst(np.max([np.zeros(n)] + diffs, axis=0) / norm, lhs.points or rhs.points or 1)


# ---------------------------------------------------------------------------
# shared builders

@functools.cache
def _sigma_y1() -> DynMatrix:
    return DynMatrix.constant(PAULI_Y).embed(2, (1,))


@functools.cache
def _dmix() -> DynMatrix:
    return weight_shift_matrix(2, 1, -1) @ weight_shift_matrix(2, 2, +1)


def _scalar(f, zs, params) -> list:
    """f(z, params) of each point as a lazy per-point scale factor."""
    return [lambda s, z=z, p=p: f(z, p) for z, p in zip(zs, params)]


def _n(z, params) -> complex:
    """n(z), its rho at z and 1/z formed in one fill."""
    _grid_fill(params, ns=(z,))
    return unitarity_scalar(z, params)


def _inv_n(z, params) -> complex:
    return 1.0 / _n(z, params)


def _laurent(cs, w):
    return cs[0] / (w * w) + cs[1] / w + cs[2] + cs[3] * w + cs[4] * w * w


def _rand_matrix(nlegs, rng, params, pattern=None, degrees=lambda r: (0,)) -> DynMatrix:
    """A grid leaf of random Laurent polynomials of degree <= 2 in w = q^{2s}
    on the pattern (default: all); rng and params are per point.  Each point
    draws its E-degrees as degrees(rng), then in one call the real and the
    imaginary parts of five coefficients per entry, degree by degree in the
    drawn order, entries in row-major order.  The leaf holds the sorted union
    of the points' degrees, exact zeros where a point drew none; all points'
    coefficients are formed in one array pass and placed in one assignment.
    A read forms w of all its samples in one array pass (_dyn_w_rows), and
    every value is the elementwise _laurent of its sample's w, on every
    entry whatever the demand's masks.  The leaf holds each degree it read,
    read-only, by the bytes of the read's samples and points, and a read
    evaluates only the demanded degrees it does not hold: a value depends on
    its sample, point and degree alone and the leaf logs no trip, so a held
    degree is the one a new read would form, bit for bit.  What it holds
    lives with the leaf."""
    d = 1 << nlegs
    if pattern is None:
        pattern = np.ones((d, d), dtype=bool)
    drawn, raw = [], []
    for r in rng:
        drawn.append([int(k) for k in degrees(r)])
        raw.append(r.standard_normal((len(drawn[-1]), int(pattern.sum()), 2, 5)))
    degs = sorted(set().union(*drawn))
    raw = np.concatenate(raw)  # a row per drawn (point, degree), in draw order
    at = np.array([(p, degs.index(k)) for p, ks in enumerate(drawn) for k in ks])
    coeffs = np.zeros((len(rng), len(degs), 5, d * d), complex)  # point-major
    # one assignment puts each row at its (point, degree), on the pattern's entries
    entries = (at[:, :1], at[:, 1:], np.flatnonzero(pattern))
    coeffs.transpose(0, 1, 3, 2)[entries] = raw[..., 0, :] + 1j * raw[..., 1, :]
    held = {}  # (samples, points) -> {degree: read-only array}

    def ev(s, pts, need, log):
        vals = held.setdefault((s.tobytes(), pts.tobytes()), {})
        todo = [k for k in need if k not in vals]
        if todo:
            w = _dyn_w_rows(s, params, pts)
            cs = coeffs[pts].transpose(1, 2, 0, 3)  # one take: [degree][c] is (n, d * d)
            for k in todo:
                vals[k] = v = _laurent(cs[degs.index(k)], w[:, None]).reshape(len(s), d, d)
                v.flags.writeable = False
        return {k: vals[k] for k in need}  # a new dict: a product pops from it

    return DynMatrix(nlegs, {k: pattern for k in degs}, ev, len(params))


def _rand_samples(rngs, n):
    """n samples of s per grid point, each from its point's rng, point-major.
    A point's samples are one draw of n (re, im) pairs in [0, 1), formed as
    Generator.uniform(-1, 1) and uniform(-0.5, 0.5) form them, low + range *
    u; every step is exact, so each sample equals its scalar uniform pair."""
    u = np.array([rng.random((n, 2)) for rng in rngs])
    u *= (2.0, 1.0)
    u += (-1.0, -0.5)
    return u.view(complex).ravel().tolist()


def _over_points(check):
    """Batch check over grid points: check takes a Trips record and each
    per-point input as a sequence over the points (params first), notes the
    points' guard trips in the record, and returns one result per point.
    The batched check gives a tripped point a SingularPointError of its first
    trip as its result; it also takes one point's inputs and returns that
    point's result, as a batch of one, raising its trip."""

    @functools.wraps(check)
    def run(params, *args, **options):
        if not isinstance(params, Params):
            tr = Trips(len(params))
            return tr.outcomes(check(tr, params, *args, **options))
        out = run([params], *([a] for a in args), **options)[0]
        if isinstance(out, SingularPointError):
            raise out
        return out

    run.over_points = True
    return run


# ---------------------------------------------------------------------------
# special-function layer checks

# Each of these checks forms its point's special-function values in one fill
# of the value cache per Params, then reads them in the order of its formula,
# so a trip is the first its formula meets.

def check_theta_quasiperiodicity(params: Params, zs) -> float:
    _grid_fill(params, thetas=[*zs, *(params.p * z for z in zs)])
    worst = 0.0
    for z in zs:
        t = theta(z, params)
        worst = np.maximum(worst, abs(theta(params.p * z, params) + t / z) / abs(t))
    return float(worst)


def check_theta_inversion(params: Params, zs) -> float:
    _grid_fill(params, thetas=[*zs, *(1.0 / z for z in zs if z)])  # z = 0 raises below
    worst = 0.0
    for z in zs:
        t = theta(z, params)
        worst = np.maximum(worst, abs(theta(1.0 / z, params) + t / z) / abs(t))
    return float(worst)


def check_theta_truncation(params: Params, zs) -> float:
    """Doubling the truncation order moves theta and rho by < tolerance."""
    fine = replace(params, truncation_order=2 * params.truncation_order)
    for prm in (params, fine):
        _grid_fill(prm, thetas=zs, rhos=zs)
    worst = 0.0
    for z in zs:
        t0, t1 = theta(z, params), theta(z, fine)
        worst = np.maximum(worst, abs(t0 - t1) / max(1.0, abs(t0)))
        r0, r1 = rho_norm(z, params), rho_norm(z, fine)
        worst = np.maximum(worst, abs(r0 - r1) / max(1.0, abs(r0)))
    return float(worst)


def check_n_periodicity(params: Params, zs) -> float:
    q4 = params.q**4
    _grid_fill(params, ns=[*zs, *(q4 * z for z in zs)])
    worst = 0.0
    for z in zs:
        n0 = unitarity_scalar(z, params)
        n1 = unitarity_scalar(q4 * z, params)
        worst = np.maximum(worst, abs(n1 - n0) / abs(n0))
    return float(worst)


# ---------------------------------------------------------------------------
# R-matrix identity checks

@_over_points
def check_dybe(tr, params, s, z1, z2, z3, twisted=False, corruption=None) -> list:
    """Dynamical Yang-Baxter equation on three legs, spectator-leg shifts."""
    r12 = _r_dyn([a / b for a, b in zip(z1, z2)], params, twisted).embed(3, (1, 2))
    r13 = _r_dyn([a / b for a, b in zip(z1, z3)], params, twisted).embed(3, (1, 3))
    r23 = _r_dyn([a / b for a, b in zip(z2, z3)], params, twisted).embed(3, (2, 3))
    r23_s1 = r23 if corruption == "drop_spectator_shift" else r23.shift_col({1: +1})
    lhs = r12.shift_col({3: +1}) @ r13 @ r23_s1
    rhs = r23 @ r13.shift_col({2: +1}) @ r12
    return _skew_resids(lhs, rhs, s, tr)


@_over_points
def check_unitarity(tr, params, s, z, twisted=False, corruption=None) -> list:
    """R_12(z) R_21(1/z) equals the unitarity scalar times the identity."""
    a = _r_dyn(z, params, twisted)
    if corruption == "rescale":
        a = a.scale(2.0)
    b = _r_dyn([1.0 / x for x in z], params, twisted).swap_legs(1, 2)
    rhs = DynMatrix.identity(2).scale(_scalar(_n, z, params))
    return _skew_resids(a @ b, rhs, s, tr)


@_over_points
def check_crossing(tr, params, s, z, twisted=False, corruption=None) -> list:
    """Crossing relation: the leg-1 transposed, shift-row-dressed matrix at
    1/(z q^2), conjugated by sigma_y on leg 1 and weighted by the
    crossing-scalar ratio, inverts R at 1/z.  The twist-gauged matrix is also
    dressed by the diagonal Gamma on leg 1; its negative control
    ("drop_gamma") drops Gamma."""
    g = _guard(params)
    sy = _sigma_y1()
    args = [1.0 / (x * (p.q * p.q)) for x, p in zip(z, params)]
    x = _r_dyn(args, params, twisted).transpose_leg(1).shift_row({1: -1})
    u = _ups_diag(params, 2, {2: +1}, {})
    if twisted:
        if corruption == "drop_gamma":
            g1 = g1s2 = DynMatrix.identity(2)
        else:
            g1 = gamma_twist(params).embed(2, (1,))
            g1s2 = g1.shift_col({2: +1})
        lhs = sy @ g1 @ x @ g1s2.inv(g) @ sy @ u
    else:
        lhs = sy @ x @ sy @ u
    rhs = _r_dyn([1.0 / x for x in z], params, twisted).inv(g)
    return _skew_resids(lhs, rhs, s, tr)


@_over_points
def check_crossing_unitarity(tr, params, s, z, twisted=True, corruption=None) -> list:
    """Crossing-unitarity: the inverse of the sl_2-dressed, leg-1 transposed
    matrix at 1/(z q^4) against the sc_2-dressed transposed swap at z, dressed
    by the gauge G and divided by the unitarity scalar."""
    g = _guard(params)
    wrong = corruption == "wrong_shift_arg"
    args = [1.0 / (x * p.q * p.q) if wrong else 1.0 / (x * p.q**4)
            for x, p in zip(z, params)]
    g1 = cross_gauge(params).embed(2, (1,))
    x = _r_dyn(args, params, twisted).shift_row({2: -1}).transpose_leg(1)
    r21t1 = _r_dyn(z, params, twisted).swap_legs(1, 2).transpose_leg(1)
    g1i_n = g1.inv(g).scale(_scalar(_inv_n, z, params))
    rhs = g1i_n @ r21t1.shift_col({2: -1}) @ g1.shift_col({2: -1})
    return _skew_resids(x.inv(g), rhs, s, tr)


@_over_points
def check_n_forms(tr, params, s, corruption=None) -> list:
    """The two constructions of the trace weight N agree: the -sc dressing of
    G versus the direct shifted-ratio form."""
    sign = +1 if corruption == "flip_sc_sign" else -1
    form_sc = cross_gauge(params).shift_col({1: sign})
    return _skew_resids(form_sc, trace_weight_direct(params), s, tr)


@_over_points
def check_magic(tr, params, s, z1, z2, alpha, beta) -> list:
    """The sufficient trace-reduction identity with supplied alpha, beta and
    N = G^{-sc}; holds iff alpha*beta = q^{-4} (the critical-charge locus)."""
    g = _guard(params)
    n = trace_weight(params)
    n1_sc = n.embed(2, (1,)).shift_col({1: +1})
    n1_m2_sc = n.embed(2, (1,)).shift_col({1: +1, 2: -1})
    args = [b * x / y for b, x, y in zip(beta, z1, z2)]
    x = _r_dyn(args, params, False).shift_row({2: -1}).transpose_leg(1)
    args = [a * y / x for a, x, y in zip(alpha, z1, z2)]
    r21t1 = _r_dyn(args, params, False).swap_legs(1, 2).transpose_leg(1)
    n1i_a = n1_sc.inv(g).scale(_scalar(_inv_n, args, params))
    rhs = n1i_a @ r21t1.shift_col({2: -1}) @ n1_m2_sc
    return _skew_resids(x.inv(g), rhs, s, tr)


_A_EQ_N_ROWS = (
    # (label, critical charge, alpha exponent, normalization exponent)
    ("t,L+", -2, lambda c: c, lambda c: -c),
    ("t,L-", -2, lambda c: 2 * c, lambda c: 2 * c),
    ("t*,L+", 2, lambda c: -2 * c, lambda c: 0),
    ("t*,L-", 2, lambda c: -c, lambda c: -c),
)


def check_a_equals_n(params: Params, z1, z2) -> float:
    """For each generating-functional/Lax pairing at its critical central
    charge, the trace-reduction scalar a = n(alpha z2/z1) equals the exchange
    normalization from the pairing table (via q^4-periodicity of n)."""
    q = params.q
    _grid_fill(params, ns=[q ** e(c) * z2 / z1 for _label, c, *exps in _A_EQ_N_ROWS
                           for e in exps])
    worst = 0.0
    for _label, c, alpha_exp, norm_exp in _A_EQ_N_ROWS:
        alpha = q ** alpha_exp(c)
        a = unitarity_scalar(alpha * z2 / z1, params)
        norm = unitarity_scalar(q ** norm_exp(c) * z2 / z1, params)
        worst = np.maximum(worst, abs(a - norm) / max(1.0, abs(a)))
    return float(worst)


@_over_points
def check_lemma_p1(tr, params, seed, corruption=None) -> list[float]:
    """Trace-exchange lemma: tr_1(A e^{-sz d} M_1 e^{sz d} C) equals the
    t_2-transpose of tr_1((C^{sl1.t2} A^{sc1.t2})^{-sc1} e^{-sz d} M_1
    e^{sz d}).  A, C are random function-valued two-leg matrices, M a random
    function-valued one-leg matrix; both sides live in the skew ring and are
    compared per E-degree.  Batched over grid points (_over_points); each
    point draws from np.random.default_rng of its seed."""
    rng = [np.random.default_rng(x) for x in seed]
    a = _rand_matrix(2, rng, params)
    c = _rand_matrix(2, rng, params)
    m1 = _rand_matrix(1, rng, params).embed(2, (1,))
    d1m = weight_shift_matrix(2, 1, -1)
    d1p = weight_shift_matrix(2, 1, +1)
    lhs = (a @ d1m @ m1 @ d1p @ c).partial_trace(1)
    if corruption == "swap_sl_sc":
        prod = c.shift_col({1: +1}).transpose_leg(2) @ a.shift_row(
            {1: +1}
        ).transpose_leg(2)
        dressed = prod.shift_row({1: -1})
    else:
        prod = c.shift_row({1: +1}).transpose_leg(2) @ a.shift_col(
            {1: +1}
        ).transpose_leg(2)
        dressed = prod.shift_col({1: -1})
    rhs = (dressed @ d1m @ m1 @ d1p).partial_trace(1).transpose_leg(1)
    return _skew_resids(lhs, rhs, _rand_samples(rng, 8), tr)


def _mu_weight_diag(params, drop: bool) -> DynMatrix:
    """The chain's diagonal mu(s) / upsilon(s + weight) (step 7), a gauge
    leaf (rmatrix._gauge); with drop, mu without its det g^{-sc}."""
    def entries(s, pts, prms, want):
        (mu,), det = _mu_entries(s, pts, prms, drop=drop)
        ups = [_ups_rows(s + weight(i), pts, prms) for i in want]
        return [_ratio(mu, u) for u in ups], [c for u in ups for c in (("denominator", u, s), *det)]

    return _gauge(params, 1, entries)


def _mu_shift_diag(params) -> DynMatrix:
    """The chain's diagonal mu(s + k) / mu(s), k the leg-2 shift -weight
    (step 5), a gauge leaf (rmatrix._gauge)."""
    k2 = _leg_shifts(2, {2: -1})

    def entries(s, pts, prms, want):
        (mu,), det = _mu_entries(s, pts, prms)
        at = {k: _mu_entries(s + k, pts, prms) for k in dict.fromkeys(k2[i] for i in want)}
        return ([_ratio(at[k2[i]][0][0], mu) for i in want],
                [*det, ("denominator", mu, s), *(at[k2[i]][1][0] for i in want)])

    return _gauge(params, 2, entries)


def _chain_steps(params, s, z, samples, corruption=None) -> list:
    """The steps of the proof chain over a batch of points, each a function
    of a Trips record that returns one residual per point and notes the
    points' trips there; with a corruption, step 7 alone.  The steps share
    the chain's objects, and so each inverse's cache."""
    n = len(params)
    g = _guard(params)
    flat = [x for row in samples for x in row]
    gm = gamma_twist(params)

    def rt(arg):
        """The twisted R leaf at arg(z, q) of each point."""
        return _r_dyn([arg(x, p.q) for x, p in zip(z, params)], params, True)

    # step 7: the Gamma-mu reduction back to the gauge ratio; evaluated at
    # every sample so the control corruption cannot hide at an accidental
    # crossing of the dropped factor through 1
    def step7(tr):
        mid = _mu_weight_diag(params, corruption == "drop_detg_sc")
        lhs = gm @ mid @ gm.shift_col({1: +1})
        return _skew_resids(lhs, cross_gauge(params), flat, tr)

    if corruption:
        return [step7]

    g1 = gm.embed(2, (1,))
    g1s2 = g1.shift_col({2: +1})
    g1m2 = g1.shift_col({2: -1})
    sy = _sigma_y1()
    g1i = g1.inv(g)
    g1s2i = g1s2.inv(g)
    m12 = g1 @ rt(lambda x, q: 1.0 / x).inv(g) @ g1s2i

    # step 1: inverse of the gauged crossing relation
    def step1(tr):
        uinv = _ups_diag(params, 2, {}, {2: +1})
        x = rt(lambda x, q: 1.0 / (x * (q * q))).transpose_leg(1).shift_row({1: -1})
        lhs = uinv @ sy @ g1s2 @ x.inv(g) @ g1i @ sy
        return _skew_resids(lhs, rt(lambda x, q: 1.0 / x), s, tr)

    # step 2: zero-weight shift commutation for the inverted dressed matrix
    def step2(tr):
        x4 = rt(lambda x, q: 1.0 / (x * q**4)).transpose_leg(1).shift_row({1: -1})
        m = (g1 @ x4 @ g1s2i).inv(g)
        if not zero_weight_check(m.transpose_leg(1), s, 1e-8, tr):
            raise AssertionError("commutation precondition violated")
        dmix = _dmix()
        return _skew_resids(m @ dmix, dmix @ m.shift_row({1: +1, 2: -1}), flat, tr)

    # step 3: sl_1 - sl_2 dressing of the gauged matrix in components
    def step3(tr):
        x4 = rt(lambda x, q: 1.0 / (x * q**4)).transpose_leg(1)
        lhs = (g1 @ x4.shift_row({1: -1}) @ g1s2i).shift_row({1: +1, 2: -1})
        rhs = g1m2.shift_col({1: +1}) @ x4.shift_row({2: -1}) @ g1i.shift_col({1: +1})
        return _skew_resids(lhs, rhs, s, tr)

    # step 4: sigma_y / shift-column exchange on a zero-weight matrix
    def step4(tr):
        dp = weight_shift_matrix(2, 1, +1) @ weight_shift_matrix(2, 2, +1)
        lhs = (m12.transpose_leg(1) @ sy).shift_col({1: +1}) @ dp
        rhs = _dmix() @ m12.transpose_leg(1).shift_col({2: -1}) @ sy
        return _skew_resids(lhs, rhs, flat, tr)

    # step 5: the comparison identity after eliminating sigma_y
    def step5(tr):
        ups1 = _ups_diag(params, 2, {1: +1}, {1: +1, 2: -1})
        x4 = rt(lambda x, q: 1.0 / (x * q**4)).shift_row({2: -1}).transpose_leg(1)
        lhs = g1.shift_col({1: +1}) @ x4.inv(g) @ g1m2.inv(g).shift_col({1: +1})
        rhs = ups1 @ m12.transpose_leg(1).shift_col({2: -1}) @ _mu_shift_diag(params)
        return _skew_resids(lhs, rhs, s, tr)

    # step 6: unitarity in components
    def step6(tr):
        lhs = m12.transpose_leg(1).shift_col({2: -1})
        r21t1 = rt(lambda x, q: x).swap_legs(1, 2).transpose_leg(1)
        rhs = g1i.scale(_scalar(_inv_n, z, params)) @ r21t1.shift_col({2: -1}) @ g1m2
        return _skew_resids(lhs, rhs, s, tr)

    return [step1, step2, step3, step4, step5, step6, step7]


@_over_points
def check_proof_chain_cor22(tr, params, s, z, samples=None, corruption=None) -> list:
    """Every intermediate identity in the derivation of crossing-unitarity
    from the crossing relation, checked verbatim: {"step1": ..., "step7": ...},
    each step's residual or the SingularPointError that stopped it.  The
    negative control drops the (det g^{-sc})^{-1} factor from the scalar mu in
    the final reduction, and returns the residual of that step alone.
    Batched over grid points (_over_points): each step runs once over all
    the points, and a point where it trips a guard takes its first trip in
    that step as the step's result; samples defaults to s.
    """
    if samples is None:
        samples = [[x] for x in s]
    steps = _chain_steps(params, s, z, samples, corruption)
    if corruption:
        return steps[0](tr)
    results = []
    for step in steps:  # each step notes its trips in a record of its own
        step_trips = Trips(len(params))
        results.append(step_trips.outcomes(step(step_trips)))
    return [{f"step{k + 1}": r for k, r in enumerate(res)} for res in zip(*results)]


@_over_points
def integration_trace_check(tr, params, s, z1, z2, u, corruption=None) -> list[float]:
    """End-to-end exercise of the quadratic trace functional in the
    evaluation model at central charge zero, where the Lax matrices are
    R-matrices against an auxiliary quantum leg and the conjugated kernel
    reduces to the identity.  Validates trace, shift-conjugation and
    sl-dressing bookkeeping; mathematically it reduces to shifted unitarity.
    Batched over grid points (_over_points).
    """
    g = _guard(params)

    def r(num, den):
        return _r_dyn([a / b for a, b in zip(num, den)], params, False)

    r13 = r(z1, u).embed(3, (1, 3))
    conj_q = (r13.inv(g) @ r13).conj_by_shift(1)
    n1 = trace_weight_direct(params).embed(3, (1,))
    t23 = (n1 @ conj_q).partial_trace(1)
    r_loc = r(z2, u)
    d_loc = weight_shift_matrix(2, 1, +1)
    lhs = t23 @ r_loc @ d_loc
    if corruption == "identity_n":
        n1_shifted = DynMatrix.identity(3)
    else:
        n1_shifted = n1.shift_col({2: -1})
    r21d = r(z2, z1).swap_legs(1, 2).embed(3, (1, 2)).shift_row({1: -1, 2: -1})
    r12d = r(z1, z2).embed(3, (1, 2)).shift_row({1: -1, 2: -1})
    trace = (n1_shifted @ r21d @ conj_q @ r12d).partial_trace(1)
    args = [b / a for a, b in zip(z1, z2)]
    rhs = (r_loc @ d_loc @ trace).scale([1.0 / u for u in tr.each(_n, args, params)])
    return _skew_resids(lhs, rhs, s, tr)


# ---------------------------------------------------------------------------
# shift-calculus property checks (rerun inside the suite as named checks)

@_over_points
def check_sc_operator_form(tr, params, rng) -> list[float]:
    """Component shift-column equals (D M^t)^t D^{-1} through the skew ring."""
    resids = []
    for nlegs in (1, 2):
        m = _rand_matrix(nlegs, rng, params)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = (d @ m.transpose_leg(1)).transpose_leg(1) @ di
        resids.append(_skew_resids(m.shift_col({1: +1}), op, _rand_samples(rng, 4), tr))
    return np.max(resids, axis=0).tolist()


@_over_points
def check_sl_operator_form(tr, params, rng) -> list[float]:
    """Component shift-row equals ((D M)^t D^{-1})^t through the skew ring."""
    resids = []
    for nlegs in (1, 2):
        m = _rand_matrix(nlegs, rng, params)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = ((d @ m).transpose_leg(1) @ di).transpose_leg(1)
        resids.append(_skew_resids(m.shift_row({1: +1}), op, _rand_samples(rng, 4), tr))
    return np.max(resids, axis=0).tolist()


@_over_points
def check_transpose_shift_exchange(tr, params, rng) -> list[float]:
    """(M^{t1})^{sc1} = (M^{sl1})^{t1} on random function-valued matrices."""
    m = _rand_matrix(2, rng, params)
    lhs = m.transpose_leg(1).shift_col({1: +1})
    rhs = m.shift_row({1: +1}).transpose_leg(1)
    return _skew_resids(lhs, rhs, _rand_samples(rng, 4), tr)


@_over_points
def check_zero_weight_commutation(tr, params, rng) -> list[float]:
    """M . e^{(-sz1+sz2) d} = e^{(-sz1+sz2) d} . M^{sl1-sl2} whenever M^{t1}
    is zero-weight."""
    bt = [index_bits(i, 2) for i in range(4)]
    # nonzero only where the leg-1-transposed matrix is zero-weight
    pattern = np.array([
        [weight(bt[j][0]) + weight(bt[i][1]) == weight(bt[i][0]) + weight(bt[j][1])
         for j in range(4)]
        for i in range(4)
    ])
    m = _rand_matrix(2, rng, params, pattern)
    rhs = _dmix() @ m.shift_row({1: +1, 2: -1})
    return _skew_resids(m @ _dmix(), rhs, _rand_samples(rng, 4), tr)


@_over_points
def check_sigma_y_transpose(tr, params, rng) -> list[float]:
    """Conjugation by sigma_y on leg 1 commutes with the leg-1 transpose."""
    a = _rand_matrix(2, rng, params)
    sy = _sigma_y1()
    lhs = (sy @ a @ sy).transpose_leg(1)
    rhs = sy @ a.transpose_leg(1) @ sy
    return _skew_resids(lhs, rhs, _rand_samples(rng, 4), tr)


def _skew_element(terms: dict) -> DynMatrix:
    """The skew-ring element sum_k terms[k] E^k, a matrix on 0 legs."""
    return DynMatrix.from_entries(0, lambda i, j: terms)


@_over_points
def check_skew_associativity(tr, params, rng) -> list[float]:
    """(a b) c = a (b c) for random skew-ring elements, each on three
    E-degrees of -2..2 drawn per point."""
    def degrees(r):
        return r.choice(np.arange(-2, 3), size=3, replace=False)

    a, b, c = (_rand_matrix(0, rng, params, degrees=degrees) for _ in range(3))
    return _skew_resids((a @ b) @ c, a @ (b @ c), _rand_samples(rng, 4), tr)


@_over_points
def check_skew_defining(tr, params, rng) -> list[float]:
    """E . f = (f o shift_1) . E"""
    f = _rand_matrix(0, rng, params)

    def shifted(s, pts, need, log):  # f read at s + 1, as the coefficient of E
        return {1: f.ev(s + 1, pts, f.masks, log)[0]}

    lhs = _skew_element({1: 1.0}) @ f
    rhs = DynMatrix(0, {1: f.masks[0]}, shifted, f.points)
    return _skew_resids(lhs, rhs, _rand_samples(rng, 4), tr)


# ---------------------------------------------------------------------------
# grid and suite

@dataclass(frozen=True)
class GridPoint:
    index: int
    params: Params
    s: complex
    zs: tuple[complex, ...]


# Sampling ranges: p and q_half unless fixed, s, and |z| inside (0.5, 2).
P_RANGE = (0.05, 0.5)
Q_HALF_RANGE = (0.4, 0.8)
S_RE_RANGE = (-1.0, 1.0)
S_IM_MAX = 0.5
Z_ABS_RANGE = (0.55, 1.9)


@dataclass(frozen=True)
class GridSpec:
    """Seeded sampling plan for the suite; a fixed seed reproduces the run
    byte for byte."""

    seed: int = 0
    n_points: int = 25
    n_z: int = 3
    tolerance: float = 1e-9
    singular_guard: float = 1e-6
    truncation_order: int | None = None
    checks: tuple[str, ...] = ("all",)
    alpha_beta_offset: float = 0.0
    q_half_fixed: complex | None = None
    p_fixed: complex | None = None

    def __post_init__(self):
        for key in ("tolerance", "singular_guard", "alpha_beta_offset"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_z < 3:
            raise ValueError("n_z must be >= 3 (three-spectral checks)")

    def sample_points(self) -> list[GridPoint]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        points = []
        for i in range(self.n_points):
            p = self.p_fixed if self.p_fixed is not None else rng.uniform(*P_RANGE)
            q_half = (
                self.q_half_fixed
                if self.q_half_fixed is not None
                else rng.uniform(*Q_HALF_RANGE)
            )
            s = complex(rng.uniform(*S_RE_RANGE), rng.uniform(-S_IM_MAX, S_IM_MAX))
            zs = []
            lo, hi = Z_ABS_RANGE
            for _ in range(self.n_z):
                r = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
                phi = rng.uniform(0.0, 2.0 * np.pi)
                zs.append(complex(r * np.cos(phi), r * np.sin(phi)))
            params = Params.make(
                q_half,
                p,
                truncation_order=self.truncation_order,
                tolerance=self.tolerance,
                singular_guard=self.singular_guard,
            )
            points.append(GridPoint(i, params, s, tuple(zs)))
        return points


def _words(n: int) -> list:
    """The 32-bit words of a non-negative int, least significant first, 0
    as one word: how SeedSequence splits a Python int."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _rng_for(grid: GridSpec, pt: GridPoint, tag: str):
    """The generator of SeedSequence([seed, index, crc32(tag)]), built from
    those ints' entropy words in one np.uint32 array, which SeedSequence
    takes as it is: the same state for every non-negative seed, and cheaper
    than its coercion of a list of Python ints."""
    words = _words(grid.seed) + _words(pt.index) + _words(zlib.crc32(tag.encode()))
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))


# Inputs of a check at a grid point: each returns the report's point keys
# (besides q, p and index) and the check's positional arguments, and may add
# a detail for an evaluated report and a note for every report.

def _zs(grid, pt):
    return {"s": pt.s, "z": pt.zs}, (pt.params, pt.zs)


def _s(grid, pt):
    return {"s": pt.s}, (pt.params, pt.s)


def _s_z(grid, pt):
    return {"s": pt.s, "z": pt.zs[:1]}, (pt.params, pt.s, pt.zs[0])


def _s_z3(grid, pt):
    return {"s": pt.s, "z": pt.zs[:3]}, (pt.params, pt.s, *pt.zs[:3])


def _z_pair(grid, pt):
    return {"z": pt.zs[:2]}, (pt.params, *pt.zs[:2])


def _rng(tag):
    return lambda grid, pt: (
        {"s": pt.s, "z": pt.zs}, (pt.params, _rng_for(grid, pt, tag))
    )


def _chain_samples(grid, pt):
    """The chain and its control share s plus three random samples."""
    samples = [pt.s] + _rand_samples([_rng_for(grid, pt, "cor22chain")], 3)
    return {"s": pt.s, "z": pt.zs[:1]}, (pt.params, pt.s, pt.zs[0], samples)


def _lemma_seed(grid, pt):
    seed = int(_rng_for(grid, pt, "lemmap1").integers(1 << 31))
    return {"seed": seed}, (pt.params, seed)


def _magic_pair(offset=None):
    """Random alpha, beta with alpha*beta = q^-4 times exp(offset), where the
    offset is the grid's alpha_beta_offset unless given (0.1 for the negative
    control).  A grid offset is noted on every report."""

    def inputs(grid, pt):
        rng = _rng_for(grid, pt, "magic")
        q = pt.params.q
        t = np.exp(rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
        off = grid.alpha_beta_offset if offset is None else offset
        alpha = q**-2 * t * np.exp(off / 2.0)
        beta = q**-2 / t * np.exp(off / 2.0)
        gap = f"|alpha*beta - q^-4| = {abs(alpha * beta - q**-4):.6e}"
        note = f"alpha*beta offset exp({off:g})" if offset is None and off else ""
        args = (pt.params, pt.s, *pt.zs[:2], alpha, beta)
        return {"s": pt.s, "z": pt.zs[:2]}, args, gap, note

    return inputs


# The suite: (name, check, inputs, keyword options), one row per check.  The
# runner names a check's report after its row, and each step of a check that
# returns {step: residual} after the row followed by "." and the step.
_SUITE = (
    ("theta.quasiperiodicity", check_theta_quasiperiodicity, _zs, {}),
    ("theta.inversion", check_theta_inversion, _zs, {}),
    ("theta.truncation", check_theta_truncation, _zs, {}),
    ("nscalar.q4period", check_n_periodicity, _zs, {}),
    ("dybe.r", check_dybe, _s_z3, {"twisted": False}),
    ("dybe.rtilde", check_dybe, _s_z3, {"twisted": True}),
    ("dybe.negctrl", check_dybe, _s_z3, {"corruption": "drop_spectator_shift"}),
    ("unitarity.r", check_unitarity, _s_z, {"twisted": False}),
    ("unitarity.rtilde", check_unitarity, _s_z, {"twisted": True}),
    ("unitarity.negctrl", check_unitarity, _s_z, {"corruption": "rescale"}),
    ("crossing.r", check_crossing, _s_z, {"twisted": False}),
    ("crossing.rtilde", check_crossing, _s_z, {"twisted": True}),
    ("crossing.negctrl", check_crossing, _s_z,
     {"twisted": True, "corruption": "drop_gamma"}),
    ("crossunit.rtilde", check_crossing_unitarity, _s_z, {"twisted": True}),
    ("crossunit.r", check_crossing_unitarity, _s_z, {"twisted": False}),
    ("crossunit.negctrl", check_crossing_unitarity, _s_z,
     {"twisted": True, "corruption": "wrong_shift_arg"}),
    ("cor22chain", check_proof_chain_cor22, _chain_samples, {}),
    ("cor22chain.negctrl", check_proof_chain_cor22, _chain_samples,
     {"corruption": "drop_detg_sc"}),
    ("lemmap1", check_lemma_p1, _lemma_seed, {}),
    ("lemmap1.negctrl", check_lemma_p1, _lemma_seed, {"corruption": "swap_sl_sc"}),
    ("magic.critical", check_magic, _magic_pair(), {}),
    ("magic.negctrl", check_magic, _magic_pair(0.1), {}),
    ("aequalsn", check_a_equals_n, _z_pair, {}),
    ("nforms", check_n_forms, _s, {}),
    ("nforms.negctrl", check_n_forms, _s, {"corruption": "flip_sc_sign"}),
    ("traceint", integration_trace_check, _s_z3, {}),
    ("traceint.negctrl", integration_trace_check, _s_z3, {"corruption": "identity_n"}),
    ("shiftcalc.sc_operator_form", check_sc_operator_form, _rng("sc_op"), {}),
    ("shiftcalc.sl_operator_form", check_sl_operator_form, _rng("sl_op"), {}),
    ("shiftcalc.transpose_exchange", check_transpose_shift_exchange, _rng("texch"), {}),
    ("shiftcalc.zero_weight_commutation", check_zero_weight_commutation, _rng("zwc"), {}),
    ("shiftcalc.sigma_y_transpose", check_sigma_y_transpose, _rng("syt"), {}),
    ("shiftcalc.skew_associativity", check_skew_associativity, _rng("skassoc"), {}),
    ("shiftcalc.skew_defining", check_skew_defining, _rng("skdef"), {}),
)


def _join(*parts) -> str:
    return "; ".join(p for p in parts if p)


def _report(name, point, out, tol, detail="", note="") -> CheckReport:
    """The one maker of a CheckReport: from a residual, or from the
    SingularPointError that stopped it.  A "*.negctrl" name is a negative
    control, which passes when its residual exceeds CONTROL_THRESHOLD.  The
    detail goes on an evaluated report, after a word on a residual that is not
    finite; the note follows every report's."""
    if isinstance(out, SingularPointError):
        return CheckReport(name, point, None, "skipped-singular", _join(str(out), note))
    if not math.isfinite(out):
        detail = _join("residual is not finite", detail)
    if name.endswith(".negctrl"):
        ok = out > CONTROL_THRESHOLD
        control = f"negative control: expected residual > {CONTROL_THRESHOLD:g}"
        detail = _join(control, detail)
    else:
        ok = out <= tol
    return CheckReport(name, point, out, "pass" if ok else "fail", _join(detail, note))


def _runner(name, check, inputs, options):
    """The suite runner of one row: (grid, points) -> the points' CheckReports
    in point order.  A check batched by _over_points (one that builds a
    DynMatrix) runs once over all the points and gives each point's first
    guard trip as that point's result; a scalar special-function check runs
    at each point, where a trip is its result."""

    def run(grid: GridSpec, points: list[GridPoint]) -> list[CheckReport]:
        ins = [inputs(grid, pt) for pt in points]
        columns = [list(c) for c in zip(*(i[1] for i in ins))]
        if getattr(check, "over_points", False):
            outs = check(*columns, **options)
        else:
            tr = Trips(len(points))
            outs = tr.outcomes(tr.each(functools.partial(check, **options), *columns))
        reports = []
        for pt, (keys, _, *detail), out in zip(points, ins, outs):
            steps = out.items() if isinstance(out, dict) else [("", out)]
            for step, res in steps:
                point = {"q": pt.params.q, "p": pt.params.p, **keys, "index": pt.index}
                label = f"{name}.{step}" if step else name
                reports.append(_report(label, point, res, pt.params.tolerance, *detail))
        return reports

    return run


_REGISTRY = {row[0]: _runner(*row) for row in _SUITE}


def all_check_names() -> list[str]:
    return sorted(_REGISTRY)


def resolve_check_names(tokens) -> list[str]:
    """Expand user selection tokens (exact names or dotted prefixes)."""
    names = all_check_names()
    if any(t == "all" for t in tokens):
        return names
    out = []
    for tok in tokens:
        matched = [n for n in names if n == tok or n.startswith(tok + ".")]
        if not matched:
            raise ValueError(f"unknown check name: {tok!r}")
        out.extend(matched)
    return sorted(set(out))


def run_suite(grid: GridSpec) -> list[CheckReport]:
    """Deterministic execution of the selected checks over the sampled grid;
    reports are ordered by check name, then point index."""
    names = resolve_check_names(grid.checks)
    points = grid.sample_points()
    _R_SAMPLES.clear()  # the R-sample memo lives for one run
    reports = [rep for name in names for rep in _REGISTRY[name](grid, points)]
    _R_SAMPLES.clear()
    return reports


def summarize(reports) -> dict:
    n_pass = sum(1 for r in reports if r.status == "pass")
    n_fail = sum(1 for r in reports if r.status == "fail")
    n_skip = sum(1 for r in reports if r.status == "skipped-singular")
    return {"pass": n_pass, "fail": n_fail, "skipped": n_skip}


def suite_passes(reports) -> bool:
    """No failures and at least 90% of scheduled checks actually ran."""
    if not reports:
        return True
    counts = summarize(reports)
    if counts["fail"]:
        return False
    total = len(reports)
    return (total - counts["skipped"]) / total >= 0.9
