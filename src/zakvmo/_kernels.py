"""Hot inner-loop kernels, vectorized in numpy.

``osc_scan`` computes the mean oscillation of the cubes of one size at a
vector of anchors; ``gagliardo_pairs`` sums the banded Gagliardo pair
differences of a sampled function in O(n log n), by one FFT autocorrelation.
``tests/test_kernels.py`` checks both against plain-loop references.
"""

from __future__ import annotations

import numpy as np


def osc_scan(window, prefix, a, b, sx, sy):
    """Mean of |window - mean| over the sx-by-sy cube of the window at each
    anchor (a[k], b[k]), one value per anchor.  The mean is the box sum of
    the prefix-sum table, read at the anchor, over sx * sy; the cells add up
    one by one in C order (the rows of a (sx * sy, k) gather), as a table
    scan adds them, so every value has the table scan's bits."""
    da, db = np.divmod(np.arange(sx * sy), sy)
    mean = (prefix[a + sx, b + sy] - prefix[a, b + sy] - prefix[a + sx, b] + prefix[a, b]) / (sx * sy)
    nw = window.shape[1]
    cells = window.ravel()[(a * nw + b)[None, :] + (da * nw + db)[:, None]]
    cells -= mean
    cells = np.abs(cells)
    np.cumsum(cells, axis=0, out=cells)  # a strict running sum, never pairwise
    return cells[-1] / (sx * sy)


def gagliardo_pairs(vals, h, band, expo):
    """2 h^2 sum over d >= band of sum_i |vals[i+d] - vals[i]|^2 / (d h)^expo.
    Each inner sum is E_tail(d) + E_head(d) - 2 Re r(d): the energies of
    vals[d:] and vals[:-d] off one cumulative sum of |vals|^2, and r(d) =
    sum_i vals[i+d] conj(vals[i]) off one zero-padded length-2n FFT."""
    n = vals.shape[0]
    if band >= n:
        return 0.0
    e, spec, d = np.cumsum(vals.real**2 + vals.imag**2), np.fft.fft(vals, 2 * n), np.arange(band, n)
    diff = e[-1] - e[d - 1] + e[n - d - 1] - 2 * np.fft.ifft(spec.real**2 + spec.imag**2)[band:n].real
    return 2.0 * float(np.sum(diff / (d * h) ** expo)) * h * h
