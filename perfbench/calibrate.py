"""A fixed reference job that tracks how fast the host runs at the moment.

usage: calibrate.py OUT_JSON

Imports the numerical libraries afferentsim imports, then times a sparse
LU factorization with repeated solves and a scalar Python loop, the two
kinds of work the benchmark's operations spend their time in.  Nothing here
depends on afferentsim, so a change to the program cannot move it.
"""

import json
import sys
import time

import numpy as np
import scipy.signal  # noqa: F401  (imported for its cost, like the program does)
import scipy.sparse as sp
import scipy.stats  # noqa: F401
from scipy.sparse.linalg import splu

imported = time.monotonic()

start = time.perf_counter()
n = 60
line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
lu = splu((sp.kron(line, sp.eye(n)) + sp.kron(sp.eye(n), line)).tocsc())
rhs = np.ones(n * n)
for _ in range(200):
    rhs = lu.solve(rhs) / n
solve_s = time.perf_counter() - start

start = time.perf_counter()
u = 0.0
for k in range(1_000_000):
    u = 0.99 * u + 0.01 * (k & 7)
loop_s = time.perf_counter() - start

with open(sys.argv[1], "w") as fh:
    json.dump({"imported": imported, "solve_s": solve_s, "loop_s": loop_s}, fh)
