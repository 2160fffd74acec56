"""Float-array oracle for the benchmark's output checks and input couples.

Tables are numpy float64 arrays with IEEE infinities.  Both Moreau additions
are the IEEE sum with one fix: (+inf) + (-inf) gives NaN, which becomes -inf
for the lower addition and +inf for the upper one.  This module shares no
code with the package under test; it is the approach of tests/bruteforce.py
on arrays, evaluated one decision row at a time so that an n=256 instance
never needs an n^3 temporary.
"""

import numpy as np


def lagrangian(r, c):
    """L[u, y] = min_x (R[u, x] upper-add -C[x, y])."""
    neg_c = -c
    out = np.empty((r.shape[0], c.shape[1]))
    with np.errstate(invalid="ignore"):
        for u, row in enumerate(r):
            s = row[:, None] + neg_c
            s[np.isnan(s)] = np.inf
            out[u] = s.min(axis=0)
    return out


def rockafellian(lag, c):
    """R[u, x] = max_y (L[u, y] lower-add C[x, y])."""
    out = np.empty((lag.shape[0], c.shape[0]))
    with np.errstate(invalid="ignore"):
        for u, row in enumerate(lag):
            s = row[None, :] + c
            s[np.isnan(s)] = -np.inf
            out[u] = s.max(axis=1)
    return out


def canonical_couple(r, c):
    """(L, R') with L the Lagrangian of R and R' the Rockafellian of L."""
    lag = lagrangian(r, c)
    return lag, rockafellian(lag, c)
