"""``python -m dynell``: the command-line front end (see dynell.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
