"""Property tests (hypothesis) for the Zak field: the inverse transform
recovers random sample tables, and the extension read ``ScalarField2D.at``
agrees with the defining sum at nodes up to three periods outside [0, 1)^2.
On the same tables, a grid-exact time shift and a rational dilation each
undo themselves, the placement of samples on cells included, and the
folded-FFT Fourier transform agrees with the dense quadrature sum.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_fourier
from zakvmo.core import embed, fourier_transform, sample_function, tf_shift
from zakvmo.metaplectic import apply_dilation
from zakvmo.zak import inverse_zak, zak_transform

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def sampled_tables(draw):
    """(f, nx, nw): random complex samples of f on a random integer support,
    with nx a divisor of the sample rate and nw >= the support cells."""
    s = draw(st.sampled_from([2, 4, 8, 16]))
    k0 = draw(st.integers(-3, 3))
    cells = draw(st.integers(1, 4))
    n = cells * s
    re = draw(st.lists(finite, min_size=n, max_size=n))
    im = draw(st.lists(finite, min_size=n, max_size=n))
    f = sample_function(("table", np.array(re) + 1j * np.array(im)), (k0, k0 + cells), s)
    nx = draw(st.sampled_from([d for d in (1, 2, 4, 8, 16) if s % d == 0]))
    nw = draw(st.integers(cells, 8))
    return f, nx, nw


def _scale(f):
    return max(1.0, float(np.max(np.abs(f.values))))


@PROPERTY
@given(sampled_tables())
def test_inverse_zak_recovers_the_table(case):
    f, _, nw = case
    back = inverse_zak(zak_transform(f, f.samples_per_unit, nw), (f.k_min, f.k_max))
    assert back.samples_per_unit == f.samples_per_unit
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * _scale(f)


def _defining_sum(f, nx, nw, ix, iw):
    """sum_k f(x + k) e^{-2 pi i k w} at x = ix / nx, w = iw / nw, read
    straight off the samples (zero outside the support)."""
    s = f.samples_per_unit
    j0 = ix * (s // nx)  # sample index of x
    total = 0.0 + 0.0j
    for k in range(f.k_min - j0 // s - 1, f.k_max - j0 // s + 1):
        j = j0 + k * s
        if f.j_min <= j < f.j_min + len(f.values):
            total += f.values[j - f.j_min] * np.exp(-2j * np.pi * k * iw / nw)
    return total


@PROPERTY
@given(sampled_tables(), st.data())
def test_extension_read_matches_the_defining_sum(case, data):
    f, nx, nw = case
    nodes = data.draw(
        st.lists(
            st.tuples(st.integers(-3 * nx, 4 * nx - 1), st.integers(-3 * nw, 4 * nw - 1)),
            min_size=1,
            max_size=16,
        )
    )
    ix, iw = (np.array(v) for v in zip(*nodes))
    got = zak_transform(f, nx, nw).at(ix, iw)
    want = np.array([_defining_sum(f, nx, nw, a, b) for a, b in nodes])
    assert np.max(np.abs(got - want)) <= 1e-9 * _scale(f)


@PROPERTY
@given(sampled_tables(), st.integers(-48, 48))
def test_time_shift_round_trip_is_exact(case, k):
    f = case[0]
    u = Fraction(k, f.samples_per_unit)  # a grid-exact shift of up to three cells
    back = tf_shift(tf_shift(f, (u, 0)), (-u, 0))  # f on a hull of zero-padded cells
    assert np.array_equal(back.values, embed(f, back.k_min, back.k_max).values)


@PROPERTY
@given(sampled_tables(), st.sampled_from(["1/2", "-1/2", "2", "-2", "3/2", "-3/2"]))
def test_dilation_round_trip(case, mu):
    f = case[0]
    mu = Fraction(mu)
    back = apply_dilation(apply_dilation(f, mu), 1 / mu)
    assert back.samples_per_unit == f.samples_per_unit
    want = embed(f, back.k_min, back.k_max).values
    assert np.max(np.abs(back.values - want)) <= 1e-15 * _scale(f)


def _assert_matches_dense_sum(f, out_S, out_support):
    got = fourier_transform(f, out_S, out_support)
    assert (got.samples_per_unit, got.k_min, got.k_max) == (out_S, *out_support)
    tol = 1e-12 * np.sum(np.abs(f.values)) / f.samples_per_unit
    assert np.max(np.abs(got.values - dense_fourier(f, out_S, out_support))) <= tol


@PROPERTY
@given(sampled_tables(), st.data())
def test_fourier_transform_matches_the_dense_sum(case, data):
    f = case[0]
    s = f.samples_per_unit
    out_S = data.draw(st.sampled_from([s, 16, 2 * s]))
    k0 = data.draw(st.integers(-s // 2, s // 2 - 1))
    k1 = data.draw(st.integers(k0 + 1, s // 2))  # up to the Nyquist edge
    _assert_matches_dense_sum(f, out_S, (k0, k1))


def test_fourier_transform_matches_the_dense_sum_off_powers_of_two():
    # the shape uncertainty_product uses: S = 48 onto a 1/16 grid
    rng = np.random.default_rng(48)
    n = 16 * 48
    f = sample_function(("table", rng.normal(size=n) + 1j * rng.normal(size=n)), (-8, 8), 48)
    _assert_matches_dense_sum(f, 16, (-24, 24))
