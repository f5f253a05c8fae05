import math
from fractions import Fraction

import numpy as np
import pytest

from zakvmo import vmo
from zakvmo.core import embed, sample_function, tf_shift


@pytest.fixture(scope="session")
def gauss64():
    return sample_function("gaussian", (-8, 8), 64)


@pytest.fixture(scope="session")
def box64():
    return sample_function("box", (0, 1), 64)


@pytest.fixture(scope="session")
def box_sine64():
    return sample_function("box_sine", (0, 1), 64)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def embed_pair(f, g):
    """Zero-extend two sampled functions onto a common grid."""
    assert f.samples_per_unit == g.samples_per_unit
    lo, hi = min(f.k_min, g.k_min), max(f.k_max, g.k_max)
    return embed(f, lo, hi).values, embed(g, lo, hi).values


def l2_distance(f, g):
    a, b = embed_pair(f, g)
    return float(np.linalg.norm(a - b) / np.sqrt(f.samples_per_unit))


def lattice_gram(g, matrix, r=2):
    """Finite-section Gram matrix of the shifts pi(lambda) g at
    lambda = A (m, n), |m|, |n| <= r, with A = [a, b, c, d] the lattice
    generator.  Built from grid-exact shifts with no metaplectic transport;
    its eigenvalues lie inside the true Riesz bounds of the lattice system."""
    a, b, c, d = (Fraction(t) for t in matrix)
    shifts = [
        tf_shift(g, (a * m + b * n, c * m + d * n))
        for m in range(-r, r + 1)
        for n in range(-r, r + 1)
    ]
    lo, hi = min(f.k_min for f in shifts), max(f.k_max for f in shifts)
    V = np.array([embed(f, lo, hi).values for f in shifts])
    return V.conj() @ V.T / g.samples_per_unit


def dense_fourier(f, out_S, out_support):
    """(1/S) sum_j f(x_j) exp(-2 pi i x_j w_m) at w_m = m / out_S for
    m / out_S in [k0, k1), as one dense exp(outer) product: the quadrature
    sum written out, an oracle for core.fourier_transform."""
    k0, k1 = out_support
    w = np.arange(k0 * out_S, k1 * out_S) / out_S
    return np.exp(-2j * np.pi * np.outer(w, f.grid())) @ f.values / f.samples_per_unit


def dense_feichtinger(g, t, v):
    """|(1/S) sum_j e^{-(x_j - t)^2} g(x_j) e^{2 pi i x_j v}| at every (t, v),
    as one dense exp(outer) kernel product: the quadrature sum written out,
    an oracle for uncertainty.feichtinger_norm_estimate."""
    x = g.grid()
    window = np.exp(-((x[None, :] - t[:, None]) ** 2)) * g.values[None, :]
    return np.abs(window @ np.exp(2j * np.pi * np.outer(x, v))) / g.samples_per_unit


def osc_table(window, means, sx, sy):
    """Mean of |window - means| over every sx-by-sy cube of the window, the
    cells added in C order from 0: the exhaustive table scan."""
    na = window.shape[0] - sx + 1
    nb = window.shape[1] - sy + 1
    out = np.zeros((na, nb))
    for a in range(sx):
        for b in range(sy):
            out += np.abs(window[a : a + na, b : b + nb] - means)
    out /= sx * sy
    return out


def oracle_osc_arrays(W, sides):
    """(sx, sy) -> osc_table of W, for every (side, sx, sy) of sides; the
    exhaustive stand-in for vmo._osc_bounds."""
    pre = vmo._prefix(W)
    return {
        (sx, sy): osc_table(W, vmo._box_sums(pre, sx, sy) / (sx * sy), sx, sy)
        for _, sx, sy in sides
    }


def oracle_window_sup(osc, sides, i, j, wi, wj, cap=math.inf):
    """vmo._window_sup over the oracle_osc_arrays tables osc: each side's
    first argmax in C order, sides in order, a strictly larger value wins."""
    best, where = 0.0, None
    for side, sx, sy in sides:
        if side * side >= cap or sx > wi or sy > wj:
            continue
        sub = osc[(sx, sy)][i : i + wi - sx + 1, j : j + wj - sy + 1]
        if sub.size:
            k = int(sub.argmax())
            val = float(sub.flat[k])
            if val > best or where is None:
                a, b = divmod(k, sub.shape[1])
                best, where = val, (side, sx, sy, i + a, j + b)
    return best, where
