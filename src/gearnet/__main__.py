"""Run the command-line interface via ``python -m gearnet`` or the
``gearnet`` script."""

import ctypes
import gc
import os
import sys

from .cli import main

# glibc's mallopt parameters: the free space it leaves at the heap top,
# and the size from which a request is mapped on its own
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def run() -> int:
    """:func:`gearnet.cli.main` for a process that exits when it returns.

    Everything imported so far lives until the interpreter exits, so it is
    frozen out of the collector, and forked batch workers do not copy its
    pages to mark it.  For the same reason memory that is freed stays
    mapped (:func:`_keep_freed_memory`), and once ``main`` returns the
    process flushes stdout and stderr and ends by ``os._exit``, without
    tearing the interpreter down.  ``os._exit`` skips ``atexit``
    handlers; gearnet registers none.  When a flush fails (the reader
    closed the pipe), the exit code is returned instead, and Python's
    own exit reports the failure.  :func:`main` itself leaves
    collection, the allocator and the interpreter alone, for callers
    that keep running.
    """
    gc.freeze()
    _keep_freed_memory()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


def _keep_freed_memory() -> None:
    """Raise glibc's heap trim threshold to 1 GiB, so that the heap top
    freed by one CSV chunk's temporaries is not given back to the system
    and faulted in again by the next chunk.  Setting it turns glibc's
    dynamic mmap threshold off (mallopt(3)), which would leave every
    request over 128 KiB mapped on its own and unmapped when freed, so
    the mmap threshold is raised too, to glibc's maximum of 32 MiB: a
    chunk's temporaries of about 200 KB then come from the heap and stay
    mapped.  A no-op without glibc's ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


if __name__ == "__main__":
    sys.exit(run())
