"""Compare `dynell check` reports and `dynell eval` outputs between a git
revision and the working tree.

Usage: python3 tools/same_reports.py REF

Exports REF with `git archive` into a temporary directory, then runs
`python3 -m dynell check --format json --no-timestamp` there and in the
working tree at a fixed list of settings, and `python3 -m dynell eval` of
each object at the default point and at s = -30, where the gauges and R
overflow.  Prints SAME or DIFF per command, comparing stdout, stderr and the
exit code, and exits 1 on any DIFF.  It is the gate for a refactor that must
leave every report and every printed value as it was; it needs no network
access and is not part of the test suite.
"""

from __future__ import annotations

import io
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
    "--checks cor22chain --seed 9",
    "--p 0.8 --points 5 --seed 17",
    "--p 0.85 --points 4 --seed 12 --truncation-order 200",
    "--p 0.85 --points 4 --seed 13 --truncation-order 200",
)

COMMANDS = (
    [f"check --format json --no-timestamp {setting}" for setting in CHECK_SETTINGS]
    + [f"eval {obj}{at}" for obj in ("R", "Rtilde", "theta", "rho", "N", "G", "Gamma")
       for at in ("", " --s -30")]
)


def export(ref: str, into: Path) -> None:
    """Unpack the tree of ref into the directory into."""
    tar = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the "data" filter where this Python has it (3.11.4 and later)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)


def run(tree: Path, command: str) -> tuple:
    """(stdout, stderr, exit code) of one dynell command on the sources of
    tree."""
    env = {k: v for k, v in os.environ.items() if k != "DYNELL_CONFIG"}
    env["PYTHONPATH"] = str(tree / "src")
    cmd = [sys.executable, "-m", "dynell", *command.split()]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True)
    return done.stdout, done.stderr, done.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        ref = Path(tmp)
        export(argv[0], ref)
        diff = False
        for command in COMMANDS:
            same = run(ref, command) == run(ROOT, command)
            diff |= not same
            print(f"{'SAME' if same else 'DIFF'}  {command}", flush=True)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
