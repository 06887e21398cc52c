"""Compare report statuses and residuals over 118 fixed grids between a git
revision and the working tree, or between this host and an emulated older
one.

Usage: python3 tools/same_sweep.py REF
       python3 tools/same_sweep.py --host-variant

Exports REF with `git archive` into a temporary directory, then runs
`run_suite` over the same 118 grids on the sources of REF and of the working
tree, each side in a subprocess of its own, and compares the reports (in
`to_dict()` form) grid by grid.  With --host-variant both sides run the
working tree, and the second sets NPY_DISABLE_CPU_FEATURES and
OPENBLAS_CORETYPE (HOST_VARIANT) in its own environment: numpy's SIMD
dispatch falls back to its X86_V2 baseline and OpenBLAS uses its Nehalem
kernels, as on an older x86-64 host; its output calls the first side REF.
Report bytes depend on the host CPU, so this mode shows how far they move
and that no status does.  The grids are

- the default grid at seeds 0-29;
- p 0.8, 5 points, seeds 0-29;
- p 0.85, 4 points, truncation order 200, seeds 0-14;
- q_half 0.8 with p 0.6, 5 points, seeds 0-14;
- alpha*beta offset 0.05, 5 z samples, 5 points, seeds 0-9;
- complex parameters, 8 points, seeds 0-5 each: q_half 0.6+0.1i with
  p 0.2+0.05i, q_half 0.7-0.15i with p 0.35-0.1i, and q_half 0.55+0.2i
  with p 0.6.

Per grid it prints every status change with the point and both residuals,
every detail-only change with the grid, report, point and both details,
the largest |log10| ratio of a residual between the two sides among reports
that pass on both (a residual below double epsilon counts as epsilon), the
smallest negative-control margin (residual over CONTROL_THRESHOLD) on each
side, and the counts of reports whose residual or whose detail alone
changed.  Its last line totals the status, residual and detail-only
changes over all the grids, so a sweep that moved nothing reads 0 three
times there.  It exits 1 on any status change, a report present on one
side only included.  It is the gate for a change that may
move last bits of residuals but must keep every status; it needs no network
access and is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from same_reports import HOST_VARIANT, ROOT, export

CONTROL_THRESHOLD = 1e-3

# (label, GridSpec keyword arguments) of each grid, in the order they run
GRIDS = (
    [(f"default seed {k}", {"seed": k}) for k in range(30)]
    + [(f"p 0.8 seed {k}", {"seed": k, "p_fixed": 0.8, "n_points": 5}) for k in range(30)]
    + [(f"p 0.85 order 200 seed {k}",
        {"seed": k, "p_fixed": 0.85, "n_points": 4, "truncation_order": 200})
       for k in range(15)]
    + [(f"q_half 0.8 p 0.6 seed {k}",
        {"seed": k, "q_half_fixed": 0.8, "p_fixed": 0.6, "n_points": 5})
       for k in range(15)]
    + [(f"offset 0.05 n_z 5 seed {k}",
        {"seed": k, "alpha_beta_offset": 0.05, "n_z": 5, "n_points": 5})
       for k in range(10)]
    # JSON has no complex type: these go as strings, which WORKER makes complex
    + [(f"q_half {q} p {p} seed {k}",
        {"seed": k, "q_half_fixed": q, "p_fixed": p, "n_points": 8})
       for q, p in (("0.6+0.1j", "0.2+0.05j"), ("0.7-0.15j", "0.35-0.1j"), ("0.55+0.2j", "0.6"))
       for k in range(6)]
)

# Runs in the subprocess: reads the grids' keyword arguments as JSON on stdin,
# a string made complex, and writes, per grid, the list of its reports'
# to_dict() as JSON on stdout.
WORKER = """
import json, sys
from dynell.checks import GridSpec, run_suite
grids = json.load(sys.stdin)
for kw in grids:
    kw.update({k: complex(v) for k, v in kw.items() if isinstance(v, str)})
json.dump([[r.to_dict() for r in run_suite(GridSpec(**kw))] for kw in grids], sys.stdout)
"""


def start(tree: Path, variant: dict | None = None) -> subprocess.Popen:
    """The sweep over GRIDS on the sources of tree, started in a subprocess
    whose environment also holds variant."""
    env = {k: v for k, v in os.environ.items() if k != "DYNELL_CONFIG"}
    env.update(variant or {})
    env["PYTHONPATH"] = str(tree / "src")
    # numpy's overflow warnings (the stderr same_reports.py compares) stay quiet
    cmd = [sys.executable, "-W", "ignore::RuntimeWarning", "-c", WORKER]
    proc = subprocess.Popen(cmd, cwd=tree, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    proc.stdin.write(json.dumps([kw for _, kw in GRIDS]).encode())
    proc.stdin.close()
    return proc


def finish(proc: subprocess.Popen) -> list:
    out = proc.stdout.read()
    if proc.wait():
        raise SystemExit(f"sweep worker exited with code {proc.returncode}")
    return json.loads(out)


def _fmt(residual) -> str:
    return "null" if residual is None else f"{residual:.3e}"


def _margin(reports) -> str:
    """The smallest residual / CONTROL_THRESHOLD among the negative controls."""
    margins = [r["residual"] / CONTROL_THRESHOLD for r in reports
               if r["name"].endswith(".negctrl") and r["residual"] is not None]
    return f"{min(margins):.3g}" if margins else "-"


def _log_ratio(a: float, b: float) -> float:
    """|log10(b / a)|, a residual below double epsilon counting as epsilon."""
    eps = sys.float_info.epsilon
    return abs(math.log10(max(b, eps) / max(a, eps)))


def compare(label: str, old: list, new: list) -> tuple:
    """Print one grid's comparison; return its numbers of status, residual
    and detail-only changes."""
    before = {(r["name"], r["point"]["index"]): r for r in old}
    after = {(r["name"], r["point"]["index"]): r for r in new}
    lines, flips, resid, detail, worst = [], 0, 0, 0, 0.0
    for key in sorted(before.keys() | after.keys()):
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            side = "REF" if b is None else "tree"
            lines.append(f"  ONLY IN {side}  {key[0]} point {key[1]}")
            flips += 1
            continue
        if a["status"] != b["status"]:
            lines.append(f"  FLIP {key[0]} point {key[1]}: {a['status']} "
                         f"{_fmt(a['residual'])} -> {b['status']} {_fmt(b['residual'])}")
            flips += 1
            continue
        resid += a["residual"] != b["residual"]
        if a["residual"] == b["residual"] and a["detail"] != b["detail"]:
            lines.append(f"  DETAIL {label} {key[0]} point {key[1]}: "
                         f"{a['detail']!r} -> {b['detail']!r}")
            detail += 1
        if a["status"] == "pass" and None not in (a["residual"], b["residual"]):
            worst = max(worst, _log_ratio(a["residual"], b["residual"]))
    print(f"{label:28s} flips {flips}  max|log10| {worst:.3g}  "
          f"min control margin {_margin(old)} -> {_margin(new)}  "
          f"residual changes {resid}  detail-only changes {detail}", flush=True)
    for line in lines:
        print(line, flush=True)
    return flips, resid, detail


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("\n".join(__doc__.strip().splitlines()[4:6]), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_sweep_") as tmp:
        if argv[0] == "--host-variant":
            procs = start(ROOT), start(ROOT, HOST_VARIANT)
        else:
            export(argv[0], Path(tmp))
            procs = start(Path(tmp)), start(ROOT)
        old, new = (finish(p) for p in procs)
    counts = [compare(label, a, b) for (label, _), a, b in zip(GRIDS, old, new)]
    flips, resid, detail = map(sum, zip(*counts))
    print(f"{len(GRIDS)} grids, {sum(map(len, new))} reports: {flips} status changes, "
          f"{resid} residual changes, {detail} detail-only changes")
    return 1 if flips else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
