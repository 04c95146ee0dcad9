"""Host-speed reference: a fixed job that shares no code with gearnet.

Usage: ``python3 bench/reference.py OUT.csv``

It does the kind of work a ``gearnet`` invocation does, with inputs
that never change: interpreter start, the numpy and ``scipy.linalg``
imports, one LU factorisation of a 41x41 system (the size of the
canonical 3ood saddle system), then a Python loop of small
matrix-vector products and LU solves whose states are written as CSV
rows of ``.17g`` floats.  ``run.py`` times it between invocations; how
long it takes says how fast the shared host is at that moment.
"""

import sys

import numpy as np
from scipy.linalg import lu_factor, lu_solve

N = 41
STEPS = 1500
DT = 1e-4


def main(out: str) -> None:
    rng = np.random.default_rng(0)
    k = rng.standard_normal((N, N)) + N * np.eye(N)
    damping = -np.abs(rng.standard_normal((N, N))) / N
    lu = lu_factor(k, check_finite=False)
    v = np.zeros(N)
    force = rng.standard_normal(N)
    with open(out, "w") as f:
        for step in range(STEPS):
            rhs = damping @ v + force * np.cos(step * DT)
            v = v + DT * lu_solve(lu, rhs, check_finite=False)
            f.write(",".join(f"{x:.17g}" for x in v) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
