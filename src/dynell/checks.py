"""One check per certified matrix identity.

Each check builds both sides of an identity from the R-matrix and
shift-calculus layers, computes a normalized residual and returns a
CheckReport.  The residual convention throughout is

    residual = max-entry |LHS - RHS| / max(1, max-entry |LHS|),

with shift-valued sides compared coefficient-wise per E-degree at sampled
values of the dynamical coordinate.  Evaluations that hit a singular guard
produce status "skipped-singular" rather than a failure.

Negative controls are first-class: every corruptible check accepts a named
corruption of one side, and the corresponding "*.negctrl" suite entry counts
as pass exactly when the corrupted residual exceeds 1e-3, so a suite that is
green is also demonstrably sensitive.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .special import (
    Params,
    SingularPointError,
    rho_norm,
    theta,
    unitarity_scalar,
)
from .shiftcalc import (
    PAULI_Y,
    DynMatrix,
    guarded_div,
    index_bits,
    inv_guarded,
    shift_scalar,
    weight,
    weight_shift_matrix,
    zero_weight_check,
)
from .rmatrix import (
    _g22,
    _r_dyn,
    cross_gauge,
    dyn_w,
    gamma_twist,
    mu_scalar,
    trace_weight,
    trace_weight_direct,
    ups_ratio,
    upsilon,
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
            "residual": self.residual,
            "status": self.status,
            "detail": self.detail,
        }


def _report(name, point, residual, tol, detail="", control=False) -> CheckReport:
    if control:
        ok = residual > CONTROL_THRESHOLD
        note = f"negative control: expected residual > {CONTROL_THRESHOLD:g}"
        detail = f"{note}; {detail}" if detail else note
        status = "pass" if ok else "fail"
    else:
        status = "pass" if residual <= tol else "fail"
    return CheckReport(name, point, residual, status, detail)


def _guarded(name, point, tol, fn, detail="", control=False) -> CheckReport:
    try:
        residual = fn()
    except SingularPointError as exc:
        return CheckReport(name, point, None, "skipped-singular", str(exc))
    return _report(name, point, residual, tol, detail=detail, control=control)


def _resid(lhs: np.ndarray, rhs: np.ndarray) -> float:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    return float(abs(lhs - rhs).max() / max(1.0, abs(lhs).max()))


def _name(base: str, corruption) -> str:
    return f"{base}.negctrl" if corruption else base


def _skew_resid(lhs: DynMatrix, rhs: DynMatrix, samples) -> float:
    """Coefficient-wise residual per E-degree over the sample points."""
    worst = 0.0
    shape = (lhs.dim, lhs.dim)
    for s in samples:
        lc = lhs.coeffs_at(s)
        rc = rhs.coeffs_at(s)
        norm = max([1.0] + [abs(m).max() for m in lc.values()])
        for k in set(lc) | set(rc):
            l = lc.get(k)
            r = rc.get(k)
            if l is None:
                l = np.zeros(shape)
            if r is None:
                r = np.zeros(shape)
            worst = max(worst, float(abs(l - r).max() / norm))
    return worst


# ---------------------------------------------------------------------------
# shared builders

_SY_CACHE: dict[int, DynMatrix] = {}


def _sigma_y1(nlegs: int = 2) -> DynMatrix:
    if nlegs not in _SY_CACHE:
        _SY_CACHE[nlegs] = DynMatrix.constant(PAULI_Y).embed(nlegs, (1,))
    return _SY_CACHE[nlegs]


def _ups_diag(nlegs, num: dict, den: dict, params) -> DynMatrix:
    """Diagonal matrix of crossing-scalar ratios; the shifts in numerator and
    denominator are signed leg weights of the diagonal index."""

    def entry(i):
        bits = index_bits(i, nlegs)
        kn = sum(sg * weight(bits[l - 1]) for l, sg in num.items())
        kd = sum(sg * weight(bits[l - 1]) for l, sg in den.items())
        return ups_ratio(kn, kd, params)

    return DynMatrix.diagonal(nlegs, entry)


def _scalar_ratio_diag(f, nlegs, num: dict, den: dict, params) -> DynMatrix:
    """Diagonal matrix with entries f(s + num-shift) / f(s + den-shift)."""

    def entry(i):
        bits = index_bits(i, nlegs)
        kn = sum(sg * weight(bits[l - 1]) for l, sg in num.items())
        kd = sum(sg * weight(bits[l - 1]) for l, sg in den.items())
        return guarded_div(
            shift_scalar(f, kn), shift_scalar(f, kd), params.singular_guard
        )

    return DynMatrix.diagonal(nlegs, entry)


def _rand_laurent(rng, params):
    """Random Laurent polynomial of degree <= 2 in w = q^{2s}."""
    cs = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def ev(s, cs=cs):
        w = dyn_w(s, params)
        return cs[0] / (w * w) + cs[1] / w + cs[2] + cs[3] * w + cs[4] * w * w

    return ev


def _rand_matrix(nlegs, rng, params) -> DynMatrix:
    return DynMatrix.from_entries(nlegs, lambda i, j: _rand_laurent(rng, params))


def _rand_samples(rng, n=8):
    return [
        complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)) for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# special-function layer checks

def check_theta_quasiperiodicity(params: Params, zs) -> float:
    worst = 0.0
    for z in zs:
        t = theta(z, params)
        worst = max(worst, abs(theta(params.p * z, params) + t / z) / abs(t))
    return worst


def check_theta_inversion(params: Params, zs) -> float:
    worst = 0.0
    for z in zs:
        t = theta(z, params)
        worst = max(worst, abs(theta(1.0 / z, params) + t / z) / abs(t))
    return worst


def check_theta_truncation(params: Params, zs) -> float:
    """Doubling the truncation order moves theta and rho by < tolerance."""
    fine = replace(params, truncation_order=2 * params.truncation_order)
    worst = 0.0
    for z in zs:
        t0, t1 = theta(z, params), theta(z, fine)
        worst = max(worst, abs(t0 - t1) / max(1.0, abs(t0)))
        r0, r1 = rho_norm(z, params), rho_norm(z, fine)
        worst = max(worst, abs(r0 - r1) / max(1.0, abs(r0)))
    return worst


def check_n_periodicity(params: Params, zs) -> float:
    q4 = params.q**4
    worst = 0.0
    for z in zs:
        n0 = unitarity_scalar(z, params)
        n1 = unitarity_scalar(q4 * z, params)
        worst = max(worst, abs(n1 - n0) / abs(n0))
    return worst


# ---------------------------------------------------------------------------
# R-matrix identity checks

def check_dybe(
    params: Params, s, z1, z2, z3, twisted=False, corruption=None
) -> CheckReport:
    """Dynamical Yang-Baxter equation on three legs, spectator-leg shifts."""
    name = _name("dybe", corruption) if corruption else (
        f"dybe.{'rtilde' if twisted else 'r'}"
    )
    point = {"q": params.q, "p": params.p, "s": s, "z": (z1, z2, z3)}

    def run():
        r12 = _r_dyn(z1 / z2, params, twisted).embed(3, (1, 2))
        r13 = _r_dyn(z1 / z3, params, twisted).embed(3, (1, 3))
        r23 = _r_dyn(z2 / z3, params, twisted).embed(3, (2, 3))
        r23_s1 = r23 if corruption == "drop_spectator_shift" else r23.shift_col({1: +1})
        lhs = r12.shift_col({3: +1}).at(s) @ r13.at(s) @ r23_s1.at(s)
        rhs = r23.at(s) @ r13.shift_col({2: +1}).at(s) @ r12.at(s)
        return _resid(lhs, rhs)

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


def check_unitarity(params: Params, s, z, twisted=False, corruption=None) -> CheckReport:
    """R_12(z) R_21(1/z) equals the unitarity scalar times the identity."""
    name = _name("unitarity", corruption) if corruption else (
        f"unitarity.{'rtilde' if twisted else 'r'}"
    )
    point = {"q": params.q, "p": params.p, "s": s, "z": (z,)}

    def run():
        a = _r_dyn(z, params, twisted).at(s)
        if corruption == "rescale":
            a = 2.0 * a
        b = _r_dyn(1.0 / z, params, twisted).swap_legs(1, 2).at(s)
        rhs = unitarity_scalar(z, params) * np.eye(4)
        return _resid(a @ b, rhs)

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


def check_crossing(params: Params, s, z, twisted=False, corruption=None) -> CheckReport:
    """Crossing relation: the leg-1 transposed, shift-row-dressed matrix at
    1/(z q^2), conjugated by sigma_y on leg 1 and weighted by the
    crossing-scalar ratio, inverts R at 1/z.  The twist-gauged matrix is also
    dressed by the diagonal Gamma on leg 1; its negative control
    ("drop_gamma") drops Gamma."""
    name = _name("crossing", corruption) if corruption else (
        f"crossing.{'rtilde' if twisted else 'r'}"
    )
    point = {"q": params.q, "p": params.p, "s": s, "z": (z,)}
    q2 = params.q * params.q
    g = params.singular_guard

    def run():
        sy = _sigma_y1().at(s)
        x = _r_dyn(1.0 / (z * q2), params, twisted).transpose_leg(1).shift_row({1: -1})
        u = _ups_diag(2, {2: +1}, {}, params)
        if twisted:
            if corruption == "drop_gamma":
                g1 = g1s2 = DynMatrix.identity(2)
            else:
                g1 = gamma_twist(params).embed(2, (1,))
                g1s2 = g1.shift_col({2: +1})
            lhs = sy @ g1.at(s) @ x.at(s) @ g1s2.inv(g).at(s) @ sy @ u.at(s)
        else:
            lhs = sy @ x.at(s) @ sy @ u.at(s)
        rhs = _r_dyn(1.0 / z, params, twisted).inv(g).at(s)
        return _resid(lhs, rhs)

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


def check_crossing_unitarity(
    params: Params, s, z, twisted=True, corruption=None
) -> CheckReport:
    """Crossing-unitarity: the inverse of the sl_2-dressed, leg-1 transposed
    matrix at 1/(z q^4) against the sc_2-dressed transposed swap at z, dressed
    by the gauge G and divided by the unitarity scalar."""
    name = _name("crossunit", corruption) if corruption else (
        f"crossunit.{'rtilde' if twisted else 'r'}"
    )
    point = {"q": params.q, "p": params.p, "s": s, "z": (z,)}
    q = params.q
    g = params.singular_guard
    arg = 1.0 / (z * q * q) if corruption == "wrong_shift_arg" else 1.0 / (z * q**4)

    def run():
        g1 = cross_gauge(params).embed(2, (1,))
        lhs = inv_guarded(
            _r_dyn(arg, params, twisted).shift_row({2: -1}).transpose_leg(1).at(s), g
        )
        r21t1 = _r_dyn(z, params, twisted).swap_legs(1, 2).transpose_leg(1)
        rhs = (
            (1.0 / unitarity_scalar(z, params))
            * g1.inv(g).at(s)
            @ r21t1.shift_col({2: -1}).at(s)
            @ g1.shift_col({2: -1}).at(s)
        )
        return _resid(lhs, rhs)

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


def check_n_forms(params: Params, s, corruption=None) -> CheckReport:
    """The two constructions of the trace weight N agree: the -sc dressing of
    G versus the direct shifted-ratio form."""
    point = {"q": params.q, "p": params.p, "s": s}
    sign = +1 if corruption == "flip_sc_sign" else -1

    def run():
        form_sc = cross_gauge(params).shift_col({1: sign})
        return _resid(form_sc.at(s), trace_weight_direct(params).at(s))

    return _guarded(
        _name("nforms", corruption), point, params.tolerance, run,
        control=bool(corruption),
    )


def check_magic(params: Params, s, z1, z2, alpha, beta) -> CheckReport:
    """The sufficient trace-reduction identity with supplied alpha, beta and
    N = G^{-sc}; holds iff alpha*beta = q^{-4} (the critical-charge locus)."""
    point = {"q": params.q, "p": params.p, "s": s, "z": (z1, z2)}
    q = params.q
    g = params.singular_guard
    gap = abs(alpha * beta - q**-4)
    detail = f"|alpha*beta - q^-4| = {gap:.6e}"

    def run():
        n = trace_weight(params)
        n1_sc = n.embed(2, (1,)).shift_col({1: +1})
        n1_m2_sc = n.embed(2, (1,)).shift_col({1: +1, 2: -1})
        x = _r_dyn(beta * z1 / z2, params, False).shift_row({2: -1}).transpose_leg(1)
        lhs = inv_guarded(x.at(s), g)
        a = unitarity_scalar(alpha * z2 / z1, params)
        r21t1 = _r_dyn(alpha * z2 / z1, params, False).swap_legs(1, 2).transpose_leg(1)
        rhs = (
            (1.0 / a)
            * n1_sc.inv(g).at(s)
            @ r21t1.shift_col({2: -1}).at(s)
            @ n1_m2_sc.at(s)
        )
        return _resid(lhs, rhs)

    return _guarded("magic", point, params.tolerance, run, detail=detail)


_A_EQ_N_ROWS = (
    # (label, critical charge, alpha exponent, normalization exponent)
    ("t,L+", -2, lambda c: c, lambda c: -c),
    ("t,L-", -2, lambda c: 2 * c, lambda c: 2 * c),
    ("t*,L+", 2, lambda c: -2 * c, lambda c: 0),
    ("t*,L-", 2, lambda c: -c, lambda c: -c),
)


def check_a_equals_n(params: Params, z1, z2) -> CheckReport:
    """For each generating-functional/Lax pairing at its critical central
    charge, the trace-reduction scalar a = n(alpha z2/z1) equals the exchange
    normalization from the pairing table (via q^4-periodicity of n)."""
    point = {"q": params.q, "p": params.p, "z": (z1, z2)}
    q = params.q

    def run():
        worst = 0.0
        for _label, c, alpha_exp, norm_exp in _A_EQ_N_ROWS:
            alpha = q ** alpha_exp(c)
            a = unitarity_scalar(alpha * z2 / z1, params)
            norm = unitarity_scalar(q ** norm_exp(c) * z2 / z1, params)
            worst = max(worst, abs(a - norm) / max(1.0, abs(a)))
        return worst

    return _guarded("aequalsn", point, params.tolerance, run)


def check_lemma_p1(params: Params, seed, corruption=None) -> CheckReport:
    """Trace-exchange lemma: tr_1(A e^{-sz d} M_1 e^{sz d} C) equals the
    t_2-transpose of tr_1((C^{sl1.t2} A^{sc1.t2})^{-sc1} e^{-sz d} M_1
    e^{sz d}).  A, C are random function-valued two-leg matrices, M a random
    function-valued one-leg matrix; both sides live in the skew ring and are
    compared per E-degree."""
    point = {"q": params.q, "p": params.p, "seed": int(seed)}

    name = _name("lemmap1", corruption)

    def run():
        rng = np.random.default_rng(seed)
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
        return _skew_resid(lhs, rhs, _rand_samples(rng))

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


def check_proof_chain_cor22(
    params: Params, s, z, samples=None, corruption=None
) -> list[CheckReport]:
    """Every intermediate identity in the derivation of crossing-unitarity
    from the crossing relation, checked verbatim.  The negative control drops
    the (det g^{-sc})^{-1} factor from the scalar mu in the final reduction.
    """
    point = {"q": params.q, "p": params.p, "s": s, "z": (z,)}
    tol = params.tolerance
    q = params.q
    q2 = q * q
    g = params.singular_guard
    if samples is None:
        samples = [s]
    reports: list[CheckReport] = []
    control = bool(corruption)

    gm = gamma_twist(params)
    g1 = gm.embed(2, (1,))
    g1s2 = g1.shift_col({2: +1})
    g1m2 = g1.shift_col({2: -1})
    sy = _sigma_y1()

    def step(tag, fn, detail=""):
        name = "cor22chain.negctrl" if control else f"cor22chain.{tag}"
        reports.append(
            _guarded(name, point, tol, fn, detail=detail, control=control)
        )

    if corruption != "drop_detg_sc":
        # step 1: inverse of the gauged crossing relation
        def step1():
            uinv = _ups_diag(2, {}, {2: +1}, params)
            x = _r_dyn(1.0 / (z * q2), params, True).transpose_leg(1).shift_row({1: -1})
            lhs = (
                uinv.at(s)
                @ sy.at(s)
                @ g1s2.at(s)
                @ x.inv(g).at(s)
                @ g1.inv(g).at(s)
                @ sy.at(s)
            )
            return _resid(lhs, _r_dyn(1.0 / z, params, True).at(s))

        step("step1", step1)

        # step 2: zero-weight shift commutation for the inverted dressed matrix
        def step2():
            x4 = _r_dyn(1.0 / (z * q**4), params, True).transpose_leg(1).shift_row({1: -1})
            m = (g1 @ x4 @ g1s2.inv(g)).inv(g)
            if not zero_weight_check(m.transpose_leg(1), [s], 1e-8):
                raise AssertionError("commutation precondition violated")
            dmix = weight_shift_matrix(2, 1, -1) @ weight_shift_matrix(2, 2, +1)
            return _skew_resid(m @ dmix, dmix @ m.shift_row({1: +1, 2: -1}), samples)

        step("step2", step2)

        # step 3: sl_1 - sl_2 dressing of the gauged matrix in components
        def step3():
            x4 = _r_dyn(1.0 / (z * q**4), params, True).transpose_leg(1)
            lhs = (g1 @ x4.shift_row({1: -1}) @ g1s2.inv(g)).shift_row({1: +1, 2: -1})
            rhs = (
                g1m2.shift_col({1: +1})
                @ x4.shift_row({2: -1})
                @ g1.inv(g).shift_col({1: +1})
            )
            return _resid(lhs.at(s), rhs.at(s))

        step("step3", step3)

        # step 4: sigma_y / shift-column exchange on a zero-weight matrix
        def step4():
            m12 = g1 @ _r_dyn(1.0 / z, params, True).inv(g) @ g1s2.inv(g)
            dp = weight_shift_matrix(2, 1, +1) @ weight_shift_matrix(2, 2, +1)
            dmix = weight_shift_matrix(2, 1, -1) @ weight_shift_matrix(2, 2, +1)
            lhs = (m12.transpose_leg(1) @ sy).shift_col({1: +1}) @ dp
            rhs = dmix @ m12.transpose_leg(1).shift_col({2: -1}) @ sy
            return _skew_resid(lhs, rhs, samples)

        step("step4", step4)

        # step 5: the comparison identity after eliminating sigma_y
        def step5():
            mu = mu_scalar(params)
            ups1 = _ups_diag(2, {1: +1}, {1: +1, 2: -1}, params)
            mur = _scalar_ratio_diag(mu, 2, {2: -1}, {}, params)
            lhs = (
                g1.shift_col({1: +1}).at(s)
                @ inv_guarded(
                    _r_dyn(1.0 / (z * q**4), params, True)
                    .shift_row({2: -1})
                    .transpose_leg(1)
                    .at(s),
                    g,
                )
                @ g1m2.inv(g).shift_col({1: +1}).at(s)
            )
            rhs = (
                ups1.at(s)
                @ (g1 @ _r_dyn(1.0 / z, params, True).inv(g) @ g1s2.inv(g))
                .transpose_leg(1)
                .shift_col({2: -1})
                .at(s)
                @ mur.at(s)
            )
            return _resid(lhs, rhs)

        step("step5", step5)

        # step 6: unitarity in components
        def step6():
            lhs = (
                (g1 @ _r_dyn(1.0 / z, params, True).inv(g) @ g1s2.inv(g))
                .transpose_leg(1)
                .shift_col({2: -1})
                .at(s)
            )
            rhs = (
                (1.0 / unitarity_scalar(z, params))
                * g1.inv(g).at(s)
                @ _r_dyn(z, params, True)
                .swap_legs(1, 2)
                .transpose_leg(1)
                .shift_col({2: -1})
                .at(s)
                @ g1m2.at(s)
            )
            return _resid(lhs, rhs)

        step("step6", step6)

    # step 7: the Gamma-mu reduction back to the gauge ratio; evaluated at
    # every sample so the control corruption cannot hide at an accidental
    # crossing of the dropped factor through 1
    def step7():
        if corruption == "drop_detg_sc":
            mu = guarded_div(upsilon(params), _g22(params), g)
        else:
            mu = mu_scalar(params)
        ups = upsilon(params)
        mid = DynMatrix.diagonal(
            1, lambda i: guarded_div(mu, shift_scalar(ups, weight(i)), g)
        )
        gsc = gm.shift_col({1: +1})
        target = cross_gauge(params)
        return max(
            _resid(gm.at(x) @ mid.at(x) @ gsc.at(x), target.at(x))
            for x in samples
        )

    step("step7", step7)
    return reports


def integration_trace_check(params: Params, s, z1, z2, u, corruption=None) -> CheckReport:
    """End-to-end exercise of the quadratic trace functional in the
    evaluation model at central charge zero, where the Lax matrices are
    R-matrices against an auxiliary quantum leg and the conjugated kernel
    reduces to the identity.  Validates trace, shift-conjugation and
    sl-dressing bookkeeping; mathematically it reduces to shifted unitarity.
    """
    name = _name("traceint", corruption)
    point = {"q": params.q, "p": params.p, "s": s, "z": (z1, z2, u)}
    g = params.singular_guard

    def run():
        r13 = _r_dyn(z1 / u, params, False).embed(3, (1, 3))
        conj_q = (r13.inv(g) @ r13).conj_by_shift(1)
        n_direct = trace_weight_direct(params)
        n1 = n_direct.embed(3, (1,))
        t23 = (n1 @ conj_q).partial_trace(1)
        r_loc = _r_dyn(z2 / u, params, False)
        d_loc = weight_shift_matrix(2, 1, +1)
        lhs = t23 @ r_loc @ d_loc
        if corruption == "identity_n":
            n1_shifted = DynMatrix.identity(3)
        else:
            n1_shifted = n1.shift_col({2: -1})
        r21d = (
            _r_dyn(z2 / z1, params, False)
            .swap_legs(1, 2)
            .embed(3, (1, 2))
            .shift_row({1: -1, 2: -1})
        )
        r12d = _r_dyn(z1 / z2, params, False).embed(3, (1, 2)).shift_row({1: -1, 2: -1})
        trace = (n1_shifted @ r21d @ conj_q @ r12d).partial_trace(1)
        rhs = (r_loc @ d_loc @ trace).scale(
            1.0 / unitarity_scalar(z2 / z1, params)
        )
        return _skew_resid(lhs, rhs, [s])

    return _guarded(name, point, params.tolerance, run, control=bool(corruption))


# ---------------------------------------------------------------------------
# shift-calculus property checks (rerun inside the suite as named checks)

def check_sc_operator_form(params: Params, rng) -> float:
    """Component shift-column equals (D M^t)^t D^{-1} through the skew ring."""
    worst = 0.0
    for nlegs in (1, 2):
        m = _rand_matrix(nlegs, rng, params)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = (d @ m.transpose_leg(1)).transpose_leg(1) @ di
        worst = max(
            worst, _skew_resid(m.shift_col({1: +1}), op, _rand_samples(rng, 4))
        )
    return worst


def check_sl_operator_form(params: Params, rng) -> float:
    """Component shift-row equals ((D M)^t D^{-1})^t through the skew ring."""
    worst = 0.0
    for nlegs in (1, 2):
        m = _rand_matrix(nlegs, rng, params)
        d = weight_shift_matrix(nlegs, 1, +1)
        di = weight_shift_matrix(nlegs, 1, -1)
        op = ((d @ m).transpose_leg(1) @ di).transpose_leg(1)
        worst = max(
            worst, _skew_resid(m.shift_row({1: +1}), op, _rand_samples(rng, 4))
        )
    return worst


def check_transpose_shift_exchange(params: Params, rng) -> float:
    """(M^{t1})^{sc1} = (M^{sl1})^{t1} on random function-valued matrices."""
    m = _rand_matrix(2, rng, params)
    lhs = m.transpose_leg(1).shift_col({1: +1})
    rhs = m.shift_row({1: +1}).transpose_leg(1)
    return _skew_resid(lhs, rhs, _rand_samples(rng, 4))


def check_zero_weight_commutation(params: Params, rng) -> float:
    """M . e^{(-sz1+sz2) d} = e^{(-sz1+sz2) d} . M^{sl1-sl2} whenever M^{t1}
    is zero-weight."""
    bt = [index_bits(i, 2) for i in range(4)]

    def entry(i, j):
        # nonzero only where the leg-1-transposed matrix is zero-weight
        if weight(bt[j][0]) + weight(bt[i][1]) == weight(bt[i][0]) + weight(bt[j][1]):
            return _rand_laurent(rng, params)
        return None

    m = DynMatrix.from_entries(2, entry)
    dmix = weight_shift_matrix(2, 1, -1) @ weight_shift_matrix(2, 2, +1)
    return _skew_resid(m @ dmix, dmix @ m.shift_row({1: +1, 2: -1}), _rand_samples(rng, 4))


def check_sigma_y_transpose(params: Params, rng) -> float:
    """Conjugation by sigma_y on leg 1 commutes with the leg-1 transpose."""
    a = _rand_matrix(2, rng, params)
    sy = _sigma_y1()
    lhs = (sy @ a @ sy).transpose_leg(1)
    rhs = sy @ a.transpose_leg(1) @ sy
    worst = 0.0
    for s in _rand_samples(rng, 4):
        worst = max(worst, _resid(lhs.at(s), rhs.at(s)))
    return worst


def _skew_element(terms: dict) -> DynMatrix:
    """The skew-ring element sum_k terms[k] E^k, a matrix on 0 legs."""
    return DynMatrix.from_entries(0, lambda i, j: terms)


def check_skew_associativity(params: Params, rng) -> float:
    def rand_elem():
        degs = rng.choice(np.arange(-2, 3), size=3, replace=False)
        return _skew_element({int(d): _rand_laurent(rng, params) for d in degs})

    a, b, c = rand_elem(), rand_elem(), rand_elem()
    return _skew_resid((a @ b) @ c, a @ (b @ c), _rand_samples(rng, 4))


def check_skew_defining(params: Params, rng) -> float:
    """E . f = (f o shift_1) . E"""
    f = _rand_laurent(rng, params)
    lhs = _skew_element({1: 1.0}) @ _skew_element({0: f})
    rhs = _skew_element({1: shift_scalar(f, 1)})
    return _skew_resid(lhs, rhs, _rand_samples(rng, 4))


# ---------------------------------------------------------------------------
# grid and suite

@dataclass(frozen=True)
class GridPoint:
    index: int
    params: Params
    s: complex
    zs: tuple[complex, ...]


@dataclass(frozen=True)
class GridSpec:
    """Seeded sampling plan for the suite; a fixed seed reproduces the run
    byte for byte."""

    seed: int = 0
    n_points: int = 25
    n_z: int = 3
    p_range: tuple[float, float] = (0.05, 0.5)
    q_half_range: tuple[float, float] = (0.4, 0.8)
    s_re_range: tuple[float, float] = (-1.0, 1.0)
    s_im_max: float = 0.5
    z_abs_range: tuple[float, float] = (0.55, 1.9)
    tolerance: float = 1e-9
    singular_guard: float = 1e-6
    truncation_order: int | None = None
    checks: tuple[str, ...] = ("all",)
    alpha_beta_offset: float = 0.0
    q_half_fixed: complex | None = None
    p_fixed: complex | None = None

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_z < 3:
            raise ValueError("n_z must be >= 3 (three-spectral checks)")
        lo, hi = self.z_abs_range
        if not (0.5 < lo <= hi < 2.0):
            raise ValueError("z_abs_range must lie inside the annulus (0.5, 2)")

    def sample_points(self) -> list[GridPoint]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed]))
        points = []
        for i in range(self.n_points):
            p = self.p_fixed if self.p_fixed is not None else rng.uniform(*self.p_range)
            q_half = (
                self.q_half_fixed
                if self.q_half_fixed is not None
                else rng.uniform(*self.q_half_range)
            )
            s = complex(
                rng.uniform(*self.s_re_range),
                rng.uniform(-self.s_im_max, self.s_im_max),
            )
            zs = []
            lo, hi = self.z_abs_range
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


def _rng_for(grid: GridSpec, pt: GridPoint, tag: str):
    return np.random.default_rng(
        np.random.SeedSequence([grid.seed, pt.index, zlib.crc32(tag.encode())])
    )


def _run_magic(grid, pt, control=False):
    """Random alpha, beta with alpha*beta = q^-4 (times exp(offset), which is
    0.1 for the negative control)."""
    rng = _rng_for(grid, pt, "magic")
    q = pt.params.q
    t = np.exp(rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.4, 0.4))
    offset = 0.1 if control else grid.alpha_beta_offset
    alpha = q**-2 * t * np.exp(offset / 2.0)
    beta = q**-2 / t * np.exp(offset / 2.0)
    rep = check_magic(pt.params, pt.s, pt.zs[0], pt.zs[1], alpha, beta)
    if control:
        return [_as_control(rep, "magic.negctrl", pt.params.tolerance)]
    rep.name = "magic.critical"
    if grid.alpha_beta_offset:
        rep.detail += f"; alpha*beta offset exp({grid.alpha_beta_offset:g})"
    return [rep]


def _as_control(rep: CheckReport, name: str, tol: float) -> CheckReport:
    if rep.status == "skipped-singular":
        return CheckReport(name, rep.point, None, "skipped-singular", rep.detail)
    return _report(name, rep.point, rep.residual, tol, detail=rep.detail, control=True)


# Inputs of a check at a grid point: each returns the check's positional
# arguments.

def _zs(grid, pt):
    return pt.params, pt.zs


def _s(grid, pt):
    return pt.params, pt.s


def _s_z(grid, pt):
    return pt.params, pt.s, pt.zs[0]


def _s_z3(grid, pt):
    return pt.params, pt.s, pt.zs[0], pt.zs[1], pt.zs[2]


def _z_pair(grid, pt):
    return pt.params, pt.zs[0], pt.zs[1]


def _grid_pt(grid, pt):
    return grid, pt


def _rng(tag):
    return lambda grid, pt: (pt.params, _rng_for(grid, pt, tag))


def _chain_samples(grid, pt):
    """The chain and its control share s plus three random samples."""
    samples = [pt.s] + _rand_samples(_rng_for(grid, pt, "cor22chain"), 3)
    return pt.params, pt.s, pt.zs[0], samples


def _lemma_seed(grid, pt):
    return pt.params, int(_rng_for(grid, pt, "lemmap1").integers(1 << 31))


# The suite: (name, check, inputs, keyword options), one row per check.  A
# check returning CheckReports names them itself (the name is the row's, or
# the row's followed by "." and a step); a check returning a bare residual is
# a property check, reported under the row's name.
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
    ("magic.critical", _run_magic, _grid_pt, {"control": False}),
    ("magic.negctrl", _run_magic, _grid_pt, {"control": True}),
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


def _runner(name, check, inputs, options):
    """The suite runner of one row: grid point -> list of CheckReports."""

    def run(grid: GridSpec, pt: GridPoint) -> list[CheckReport]:
        point = {"q": pt.params.q, "p": pt.params.p, "s": pt.s, "z": pt.zs}
        try:
            out = check(*inputs(grid, pt), **options)
        except SingularPointError as exc:  # only property checks let it out
            return [CheckReport(name, point, None, "skipped-singular", str(exc))]
        if isinstance(out, CheckReport):
            return [out]
        if isinstance(out, list):
            return out
        return [_report(name, point, out, pt.params.tolerance)]

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
    reports: list[CheckReport] = []
    for name in names:
        runner = _REGISTRY[name]
        for pt in points:
            for rep in runner(grid, pt):
                rep.point = dict(rep.point)
                rep.point["index"] = pt.index
                reports.append(rep)
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
