"""Run the command-line interface via ``python -m gearnet`` or the
``gearnet`` script."""

import ctypes
import gc
import sys

from .cli import main

# glibc's mallopt parameter for the free space it leaves at the heap top
_M_TRIM_THRESHOLD = -1


def run() -> int:
    """:func:`gearnet.cli.main` for a process that exits when it returns.

    Everything imported so far lives until the interpreter exits, so it is
    frozen out of the collector: the collections at exit then skip it, and
    forked batch workers do not copy its pages to mark it.  For the same
    reason memory that is freed stays mapped (:func:`_keep_freed_memory`).
    :func:`main` itself leaves collection and the allocator alone, for
    callers that keep running.
    """
    gc.freeze()
    _keep_freed_memory()
    return main()


def _keep_freed_memory() -> None:
    """Raise glibc's heap trim threshold to 1 GiB, so that the heap top
    freed by one CSV chunk's temporaries is not given back to the system
    and faulted in again by the next chunk.  A no-op without glibc's
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


if __name__ == "__main__":
    sys.exit(run())
