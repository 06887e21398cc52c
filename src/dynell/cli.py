"""Command-line front end: suite execution with machine-readable reports, and
point evaluation of the library objects.

Complex numbers on the command line use the a+bi literal form (e.g.
``0.6+0.2i``).  A flat ``key = value`` config file can supply defaults for
any flag of the ``check`` command; its path comes from --config or the
DYNELL_CONFIG environment variable, and explicit flags win.

A JSON report holds the bytes of ``json.dumps(doc, sort_keys=True,
indent=2, allow_nan=False)``, written by ``_dumps``, which encodes each
distinct point of the reports once.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from .special import Params, SingularPointError, rho_norm, theta
from .rmatrix import (
    RPoint,
    build_r,
    build_r_twisted,
    cross_gauge,
    gamma_twist,
    trace_weight,
)
from .checks import (
    SCHEMA_VERSION,
    GridSpec,
    format_complex,
    resolve_check_names,
    run_suite,
    suite_passes,
    summarize,
)

CONFIG_ENV_VAR = "DYNELL_CONFIG"

_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<re>[+-]?{_NUM})(?:(?P<im>[+-](?:{_NUM})?)i)?$")
_IMAG_RE = re.compile(rf"^(?P<im>[+-]?(?:{_NUM})?)i$")


def parse_complex(text: str) -> complex:
    """Parse the a+bi literal form (plain reals and bare imaginaries too)."""
    t = text.strip().replace(" ", "")
    m = _COMPLEX_RE.match(t)
    if m:
        re_part = float(m.group("re"))
        im_text = m.group("im")
        if im_text is None:
            return complex(re_part, 0.0)
        if im_text in ("+", "-"):
            im_text += "1"
        return complex(re_part, float(im_text))
    m = _IMAG_RE.match(t)
    if m:
        im_text = m.group("im")
        if im_text in ("", "+", "-"):
            im_text += "1"
        return complex(0.0, float(im_text))
    raise ValueError(f"invalid complex literal: {text!r}")


def _read_config(path: str) -> dict:
    """Flat 'key = value' file; '#' starts a comment; keys use underscores."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_FORMATS = ("text", "json")


def _format(value: str) -> str:
    if value not in _FORMATS:
        raise ValueError(f"expected one of {', '.join(_FORMATS)}")
    return value


def _switch(value: str) -> bool:
    text = value.lower()
    if text not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no")
    return text in ("1", "true", "yes")


# Each config key's parser; a value it rejects is an error, as for the flag.
_CHECK_KEYS = {
    "q_half": str,
    "p": str,
    "truncation_order": int,
    "tolerance": float,
    "singular_guard": float,
    "seed": int,
    "points": int,
    "z_samples": int,
    "checks": str,
    "format": _format,
    "output": str,
    "no_timestamp": _switch,
    "alpha_beta_offset": float,
}


def _apply_config(args: argparse.Namespace, cfg: dict):
    for key, value in cfg.items():
        if key not in _CHECK_KEYS:
            raise ValueError(f"unknown config key: {key!r}")
        if getattr(args, f"_set_{key}", False):
            continue  # explicit flag wins
        try:
            parsed = _CHECK_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"config key {key} = {value!r}: {exc}") from None
        setattr(args, key, parsed)
        setattr(args, f"_set_{key}", True)


class _Tracking(argparse.Action):
    """Store the value (const for a flag without arguments) and remember that
    the flag was given explicitly."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        setattr(namespace, f"_set_{self.dest}", True)


def _add_params_args(sub):
    sub.add_argument("--q-half", dest="q_half", action=_Tracking,
                     default="0.6855654600401044",
                     help="q^{1/2} as a+bi literal (q is its square)")
    sub.add_argument("--p", dest="p", action=_Tracking, default="0.31",
                     help="elliptic nome as a+bi literal, |p| < 1")
    sub.add_argument("--truncation-order", dest="truncation_order", type=int,
                     action=_Tracking, default=None,
                     help="series truncation order (default: auto)")
    sub.add_argument("--tolerance", dest="tolerance", type=float,
                     action=_Tracking, default=1e-9)
    sub.add_argument("--singular-guard", dest="singular_guard", type=float,
                     action=_Tracking, default=1e-6)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynell",
        description="Certify the dynamical elliptic R-matrix identities numerically.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    chk = subs.add_parser("check", help="run the verification suite")
    _add_params_args(chk)
    chk.add_argument("--seed", type=int, action=_Tracking, default=0)
    chk.add_argument("--points", type=int, action=_Tracking, default=25,
                     help="number of sampled parameter points")
    chk.add_argument("--z-samples", dest="z_samples", type=int,
                     action=_Tracking, default=3,
                     help="spectral samples per point (>= 3)")
    chk.add_argument("--checks", action=_Tracking, default="all",
                     help="comma-separated check names or prefixes, or 'all'")
    chk.add_argument("--format", choices=_FORMATS, action=_Tracking,
                     default="text")
    chk.add_argument("--output", action=_Tracking, default=None,
                     help="write the report to this path instead of stdout")
    chk.add_argument("--no-timestamp", dest="no_timestamp", action=_Tracking,
                     nargs=0, const=True, default=False,
                     help="omit the timestamp field (byte-stable reruns)")
    chk.add_argument("--alpha-beta-offset", dest="alpha_beta_offset", type=float,
                     action=_Tracking, default=0.0,
                     help="force alpha*beta = q^-4 * exp(offset) in magic.critical")
    chk.add_argument("--config", action=_Tracking, default=None,
                     help=f"config file path (default: ${CONFIG_ENV_VAR})")

    ev = subs.add_parser("eval", help="print one object at a point")
    ev.add_argument("object",
                    choices=("R", "Rtilde", "theta", "rho", "N", "G", "Gamma"))
    _add_params_args(ev)
    ev.add_argument("--z", default="1.5+0.0i", help="spectral parameter (a+bi)")
    ev.add_argument("--s", default="0.37+0.11i", help="dynamical coordinate (a+bi)")
    return parser


def _grid_from_args(args) -> GridSpec:
    q_half = parse_complex(args.q_half)
    p = parse_complex(args.p)
    checks = tuple(t.strip() for t in args.checks.split(",") if t.strip())
    if not checks:
        raise ValueError("empty check selection")
    resolve_check_names(checks)  # validate early
    # validate the parameter context once up front for a clean diagnostic
    Params.make(
        q_half, p,
        truncation_order=args.truncation_order,
        tolerance=args.tolerance,
        singular_guard=args.singular_guard,
    )
    # an explicitly given q_half or p pins the grid to that value; otherwise
    # the suite samples the default acceptance ranges
    return GridSpec(
        seed=args.seed,
        n_points=args.points,
        n_z=args.z_samples,
        tolerance=args.tolerance,
        singular_guard=args.singular_guard,
        truncation_order=args.truncation_order,
        checks=checks,
        alpha_beta_offset=args.alpha_beta_offset,
        q_half_fixed=q_half if getattr(args, "_set_q_half", False) else None,
        p_fixed=p if getattr(args, "_set_p", False) else None,
    )


def _render_text(reports, counts, passed) -> str:
    lines = []
    for r in reports:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped-singular": "SKIP"}[r.status]
        res = "-" if r.residual is None else f"{r.residual:.3e}"
        idx = r.point.get("index", "-")
        line = f"{tag}  {r.name:34s} point={idx:<3} residual={res}"
        if r.status != "pass" and r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    cov = 100.0 * (len(reports) - counts["skipped"]) / max(1, len(reports))
    lines.append(
        f"summary: pass={counts['pass']} fail={counts['fail']} "
        f"skipped={counts['skipped']} coverage={cov:.1f}%"
    )
    lines.append(f"suite: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _encode(obj, pad: str, memo: dict) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    writes it at the indentation pad (a newline and spaces); a dict that
    holds no dict is encoded once per distinct repr and pad, since equal
    reprs of these types are equal documents (1, 1.0 and True differ)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        key = None if dict in map(type, obj.values()) else (pad, repr(obj))
        if key in memo:
            return memo[key]
        inner = pad + "  "
        text = "{" + ",".join([f"{inner}{encode_basestring_ascii(k)}: {_encode(v, inner, memo)}"
                               for k, v in sorted(obj.items())]) + pad + "}"
        if key is not None:
            memo[key] = text
        return text
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + ",".join([inner + _encode(v, inner, memo) for v in obj]) + pad + "]"
    return json.dumps(obj, allow_nan=False)  # a NaN or inf raises ValueError


def _dumps(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) of a
    document of dicts with str keys, lists, str, int, float, bool and None."""
    return _encode(doc, "\n", {})


def _config_echo(args, grid: GridSpec) -> dict:
    return {
        "q_half": args.q_half,
        "p": args.p,
        "truncation_order": args.truncation_order,
        "tolerance": args.tolerance,
        "singular_guard": args.singular_guard,
        "seed": grid.seed,
        "points": grid.n_points,
        "z_samples": grid.n_z,
        "checks": list(grid.checks),
        "alpha_beta_offset": grid.alpha_beta_offset,
        "q_half_fixed": grid.q_half_fixed is not None,
        "p_fixed": grid.p_fixed is not None,
    }


def _cmd_check(args) -> int:
    grid = _grid_from_args(args)
    reports = run_suite(grid)
    counts = summarize(reports)
    passed = suite_passes(reports)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config_echo": _config_echo(args, grid),
            "reports": [r.to_dict() for r in reports],
            "summary": counts,
        }
        if not args.no_timestamp:
            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        text = _dumps(doc) + "\n"
    else:
        text = _render_text(reports, counts, passed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _print_matrix(label, arr):
    n = arr.shape[0]
    for i in range(n):
        for j in range(n):
            print(f"{label}[{i},{j}] = {format_complex(arr[i, j])}")


def _cmd_eval(args) -> int:
    params = Params.make(
        parse_complex(args.q_half),
        parse_complex(args.p),
        truncation_order=args.truncation_order,
        tolerance=args.tolerance,
        singular_guard=args.singular_guard,
    )
    z = parse_complex(args.z)
    s = parse_complex(args.s)
    obj = args.object
    try:  # an overflow is reported by the finiteness check below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            if obj == "theta":
                value, at = theta(z, params), f"z = {args.z}"
            elif obj == "rho":
                value, at = rho_norm(z, params), f"z = {args.z}"
            elif obj in ("R", "Rtilde"):
                build = build_r if obj == "R" else build_r_twisted
                value, at = build(RPoint(z, s, params)).at(s), f"z = {args.z}, s = {args.s}"
            else:
                make = {"N": trace_weight, "G": cross_gauge, "Gamma": gamma_twist}[obj]
                value, at = make(params).at(s), f"s = {args.s}"
    except SingularPointError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not np.isfinite(value).all():
        print(f"{obj} is not finite at {at} (floating-point overflow)", file=sys.stderr)
        return 1
    if np.ndim(value):
        _print_matrix(obj, value)
    else:
        print(f"{obj}({args.z}) = {format_complex(value)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            cfg_path = args.config or os.environ.get(CONFIG_ENV_VAR)
            if cfg_path:
                _apply_config(args, _read_config(cfg_path))
            return _cmd_check(args)
        return _cmd_eval(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
