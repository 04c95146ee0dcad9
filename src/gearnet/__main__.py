"""Run the command-line interface via ``python -m gearnet`` or the
``gearnet`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """:func:`gearnet.cli.main` for a process that exits when it returns.

    Everything imported so far lives until the interpreter exits, so it is
    frozen out of the collector: the collections at exit then skip it, and
    forked batch workers do not copy its pages to mark it.  :func:`main`
    itself leaves collection alone, for callers that keep running.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
