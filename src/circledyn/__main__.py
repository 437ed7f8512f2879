"""python -m circledyn: the command-line interface of `circledyn.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
