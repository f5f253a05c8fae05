"""The vectorized kernels in ``zakvmo._kernels`` against plain-loop
reference implementations that evaluate each definition term by term, and
the anchor-vector oscillation kernel against the exhaustive table scan,
bit for bit.  ``loop_gagliardo``, one vectorised difference per pair
distance, is the oracle of the FFT Gagliardo sum in the property tests.
"""

import numpy as np

from conftest import osc_table
from zakvmo import _kernels, vmo


def _reference_osc(window, sx, sy):
    na = window.shape[0] - sx + 1
    nb = window.shape[1] - sy + 1
    out = np.empty((na, nb))
    for i in range(na):
        for j in range(nb):
            block = window[i : i + sx, j : j + sy]
            out[i, j] = np.mean(np.abs(block - block.mean()))
    return out


def _reference_gagliardo(vals, h, band, expo):
    n = len(vals)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            d = abs(i - j)
            if d >= band:
                acc += abs(vals[i] - vals[j]) ** 2 / (d * h) ** expo
    return acc * h * h


def loop_gagliardo(vals, h, band, expo):
    """2 h^2 sum over d >= band of sum_i |vals[i+d] - vals[i]|^2 / (d h)^expo,
    one vectorised difference per pair distance d: the O(n^2) sum that
    _kernels.gagliardo_pairs replaces with one FFT autocorrelation."""
    n = vals.shape[0]
    acc = 0.0
    for d in range(band, n):
        dv = np.abs(vals[d:] - vals[:-d])
        acc += float(np.sum(dv * dv)) / (d * h) ** expo
    return 2.0 * acc * h * h


def test_osc_scan_matches_reference():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((17, 13)) + 1j * rng.standard_normal((17, 13))
    pre = vmo._prefix(w)
    for sx, sy in ((2, 3), (4, 4), (5, 1), (1, 1), (17, 13)):
        ref = _reference_osc(w, sx, sy)
        a, b = (v.ravel() for v in np.indices(ref.shape))
        got = _kernels.osc_scan(w, pre, a, b, sx, sy)
        assert np.allclose(got, ref.ravel(), atol=1e-13)
        # the same bits as the table scan, at any anchors in any order
        table = osc_table(w, vmo._box_sums(pre, sx, sy) / (sx * sy), sx, sy)
        pick = rng.permutation(a.size)[: max(1, a.size // 3)]
        got = _kernels.osc_scan(w, pre, a[pick], b[pick], sx, sy)
        assert np.array_equal(got, table.ravel()[pick])


def test_gagliardo_matches_reference():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    for band in (1, 3, 39, 40):
        got = _kernels.gagliardo_pairs(np.ascontiguousarray(v), 0.25, band, 2.0)
        ref = _reference_gagliardo(v, 0.25, band, 2.0)
        assert abs(got - ref) < 1e-10 * max(abs(ref), 1.0)
        assert abs(loop_gagliardo(v, 0.25, band, 2.0) - ref) < 1e-10 * max(abs(ref), 1.0)
