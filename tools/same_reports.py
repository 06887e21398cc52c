"""Compare `dynell check` reports and `dynell eval` outputs between a git
revision and the working tree, or between this host and an emulated older
one.

Usage: python3 tools/same_reports.py REF
       python3 tools/same_reports.py --host-variant

Exports REF with `git archive` into a temporary directory, then runs
`python3 -m dynell check --format json --no-timestamp` there and in the
working tree at a fixed list of settings, `python3 -m dynell eval` of each
object at the default point and at s = -30, where the gauges and R
overflow, and six one-point evaluations that end in a guard trip or in the
error of z = 0.  With --host-variant both sides run the working tree, and
the second sets NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE
(HOST_VARIANT) in its own environment: numpy's SIMD dispatch falls back to
its X86_V2 baseline and OpenBLAS uses its Nehalem kernels, as on an older
x86-64 host.

Prints SAME or DIFF per command, comparing stdout, stderr and the exit
code, with each side's own directory in stderr (the file of a warning
raised from a dynell line) replaced by a fixed token; and FLIP where the
exit codes differ, or the (name, point index, status) list of a check
command's reports.  It exits 1 on any DIFF or FLIP against REF, and on a
FLIP alone with --host-variant, where last bits move with the host.  It is
the gate for a refactor that must leave every report and every printed
value as it was; it needs no network access and is not part of the test
suite.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK_SETTINGS = (
    "--seed 0",
    "--seed 1",
    "--seed 2",
    "--p 0.8 --points 3",
    "--alpha-beta-offset 0.05 --points 4",
    "--z-samples 5 --points 4 --seed 7",
    "--points 1",
    "--points 2 --seed 5",
    "--seed 4294967301 --points 3",  # 2^32 + 5: a seed of two entropy words
    "--checks cor22chain --seed 9",
    "--p 0.8 --points 5 --seed 17",
    "--p 0.85 --points 4 --seed 12 --truncation-order 200",
    "--p 0.85 --points 4 --seed 13 --truncation-order 200",
    # complex parameters, in the documented a+bi form
    "--q-half 0.55+0.2i --p 0.6 --points 8 --seed 1",
    "--q-half 0.6+0.1i --p 0.2+0.05i --points 6",
)

# one-point reads that end in a trip of rho's guards (at z = 1 its value is
# 0; at p = 0.85 a non-zero value below the guard, whose digits are printed),
# in Gamma's det guard (s = 0, where det g = 0), or in the error of z = 0
EVAL_EDGES = (
    "rho --z 1",
    "rho --z 1.5 --p 0.85",
    "R --z 1",
    "Gamma --s 0",
    "rho --z 0",
    "theta --z 0",
)

# numpy's SIMD dispatch limited to X86_V2, and OpenBLAS's Nehalem kernels
HOST_VARIANT = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Nehalem",
}

COMMANDS = (
    [f"check --format json --no-timestamp {setting}" for setting in CHECK_SETTINGS]
    + [f"eval {obj}{at}" for obj in ("R", "Rtilde", "theta", "rho", "N", "G", "Gamma")
       for at in ("", " --s -30")]
    + [f"eval {edge}" for edge in EVAL_EDGES]
)


def export(ref: str, into: Path) -> None:
    """Unpack the tree of ref into the directory into."""
    tar = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.11.4 and later)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)


def run(tree: Path, command: str, variant: dict | None = None) -> tuple:
    """(stdout, stderr, exit code) of one dynell command on the sources of
    tree, in an environment that also holds variant; tree's own path in
    stderr reads <tree>."""
    env = {k: v for k, v in os.environ.items() if k != "DYNELL_CONFIG"}
    env.update(variant or {})
    env["PYTHONPATH"] = str(tree / "src")
    cmd = [sys.executable, "-m", "dynell", *command.split()]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
    return done.stdout, done.stderr.replace(bytes(tree), b"<tree>"), done.returncode


def statuses(command: str, out: tuple) -> list | None:
    """The (name, point index, status) of each report a check command
    printed, None for any other command or output."""
    if not command.startswith("check"):
        return None
    try:
        reports = json.loads(out[0])["reports"]
    except (ValueError, KeyError, TypeError):
        return None
    return [(r["name"], r["point"]["index"], r["status"]) for r in reports]


def compare(command: str, a: tuple, b: tuple) -> str:
    """SAME, DIFF or FLIP for the outputs a and b of command."""
    if a == b:
        return "SAME"
    if a[2] != b[2] or statuses(command, a) != statuses(command, b):
        return "FLIP"
    return "DIFF"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("\n".join(__doc__.strip().splitlines()[4:6]), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        if argv[0] == "--host-variant":
            sides, fail = ((ROOT, None), (ROOT, HOST_VARIANT)), ("FLIP",)
        else:
            export(argv[0], Path(tmp))
            sides, fail = ((Path(tmp), None), (ROOT, None)), ("DIFF", "FLIP")
        labels = []
        for command in COMMANDS:
            labels.append(compare(command, *(run(tree, command, v) for tree, v in sides)))
            print(f"{labels[-1]}  {command}", flush=True)
    print(", ".join(f"{labels.count(k)} {k}" for k in ("SAME", "DIFF", "FLIP"))
          + f" of {len(COMMANDS)} commands")
    return 1 if any(k in fail for k in labels) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
