"""Hot inner-loop kernels, vectorized in numpy.

``osc_scan`` computes the mean oscillation of every cube of one size in a
window; ``gagliardo_pairs`` sums the banded Gagliardo pair differences of
a sampled function.  ``tests/test_kernels.py`` checks both
against plain-loop reference implementations.
"""

from __future__ import annotations

import numpy as np


def osc_scan(window, means, sx, sy):
    """Mean of |window - means| over every sx-by-sy cube of the window."""
    na = window.shape[0] - sx + 1
    nb = window.shape[1] - sy + 1
    out = np.zeros((na, nb))
    for a in range(sx):
        for b in range(sy):
            out += np.abs(window[a : a + na, b : b + nb] - means)
    out /= sx * sy
    return out


def gagliardo_pairs(vals, h, band, expo):
    """2 h^2 sum over d >= band of sum_i |vals[i+d] - vals[i]|^2 / (d h)^expo."""
    n = vals.shape[0]
    acc = 0.0
    for d in range(band, n):
        dv = np.abs(vals[d:] - vals[:-d])
        acc += float(np.sum(dv * dv)) / (d * h) ** expo
    return 2.0 * acc * h * h
