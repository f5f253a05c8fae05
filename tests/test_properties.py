"""Property tests (hypothesis) for the Zak field: the inverse transform
recovers random sample tables, and the extension read ``ScalarField2D.at``
agrees with the defining sum at nodes up to three periods outside [0, 1)^2.
On the same tables, a grid-exact time shift and a rational dilation each
undo themselves, the placement of samples on cells included, and the
folded-FFT Fourier transform agrees with the dense quadrature sum.  The
flat-index extension read gives the bits of a broadcast multi-index read,
and the pruned small-cube supremum gives the bits of the exhaustive table
scan, value and witness cube.  The FFT Gagliardo pair sum agrees with the
loop over pair distances, on random vectors and on smooth fields, and the
folded-FFT Feichtinger partials with the dense exponential kernel.  The
batched Householder QR of the Riesz blocks gives LAPACK's |R| and the
least-squares solutions of ``np.linalg.lstsq``, on rank-deficient, badly
conditioned, zero and near-overflow blocks.
"""

import math

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_feichtinger, dense_fourier, oracle_osc_arrays, oracle_window_sup
from test_kernels import loop_gagliardo
from zakvmo import _kernels, vmo
from zakvmo.core import ScalarField2D, embed, fourier_transform, sample_function, tf_shift
from zakvmo.gabor import _qr_sigma, _qr_solve
from zakvmo.metaplectic import apply_dilation
from zakvmo.uncertainty import _FEICHTINGER_GRID, feichtinger_norm_estimate
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


@PROPERTY
@given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.data())
def test_gagliardo_pairs_match_the_loop(n, seed, data):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    band = data.draw(st.integers(1, n + 1))
    h = data.draw(st.sampled_from([1.0, 0.25, 1 / 48]))
    expo = data.draw(st.sampled_from([1.2, 2.0, 2.8]))
    got, want = _kernels.gagliardo_pairs(v, h, band, expo), loop_gagliardo(v, h, band, expo)
    assert abs(got - want) <= 1e-10 * want


@pytest.mark.parametrize("chirp", [0.0, 1.0], ids=["gaussian", "chirp"])
def test_gagliardo_pairs_of_smooth_fields_match_the_loop(chirp):
    # smooth samples cancel worst: at band 1 every difference is small
    # against the energies that the FFT form subtracts
    x = np.arange(-8 * 384, 8 * 384 + 1) / 384
    v = np.exp(-(x**2)) * np.exp(1j * np.pi * chirp * x**2)
    got, want = _kernels.gagliardo_pairs(v, 1 / 384, 1, 2.0), loop_gagliardo(v, 1 / 384, 1, 2.0)
    assert abs(got - want) <= 1e-10 * want


@PROPERTY
@given(
    st.sampled_from([48, 64, 96]), st.integers(-2, 2), st.integers(1, 4), st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([1, 1.3, 2, 2.5, 4, 7.125, 12]), min_size=2, max_size=4, unique=True),
)
def test_feichtinger_partials_match_the_dense_kernel(s, k0, cells, seed, radii):
    rng = np.random.default_rng(seed)
    n = cells * s
    g = sample_function(("table", rng.standard_normal(n) + 1j * rng.standard_normal(n)), (k0, k0 + cells), s)
    radii = sorted(radii)
    t_step, v_step = _FEICHTINGER_GRID
    t = np.arange(g.k_min - 6, g.k_max + 6 + 1e-9, t_step)
    v = np.arange(-radii[-1], radii[-1] + 1e-9, v_step)
    mag = dense_feichtinger(g, t, v)
    want = [float(mag[:, np.abs(v) <= r].sum() * t_step * v_step) for r in radii]
    got = feichtinger_norm_estimate(g, radii).partials
    assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-12


def _broadcast_read(F, ix, iw):
    """The quasi-periodic extension read as two broadcast multi-index
    gathers, phase[row, mm] * values[ix - wrap * nx, mm]."""
    nx, nw = F.values.shape
    mm, wrap = np.mod(iw, nw), ix // nx
    wraps, row = np.unique(wrap, return_inverse=True)
    phase = np.exp(2j * np.pi * (wraps[:, None] * (np.arange(nw) / nw)))
    return phase[row.reshape(wrap.shape), mm] * F.values[ix - wrap * nx, mm]


@PROPERTY
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_flat_index_read_matches_the_broadcast_read(nx, nw, seed, blocks):
    rng = np.random.default_rng(seed)
    F = ScalarField2D(rng.standard_normal((nx, nw)) + 1j * rng.standard_normal((nx, nw)), "quasiperiodic")
    shape_x, shape_w = ((3, 1, 2), (1, 5, 1)) if blocks else ((4, 1), (1, 7))
    ix = rng.integers(-3 * nx, 4 * nx, size=shape_x)
    iw = rng.integers(-3 * nw, 4 * nw, size=shape_w)
    assert np.array_equal(F.at(ix, iw), _broadcast_read(F, ix, iw))


@st.composite
def osc_windows(draw):
    """(W, sides, i, j, wi, wj, cap): a random complex field, the same
    rounded to small integers (exact ties), or one constant along w (every
    anchor of a column ties), on an n-by-n or n-by-2n grid or its transpose;
    the admissible sides of a random eps; a random subwindow and cap."""
    n = draw(st.integers(2, 20))
    shape = (n, draw(st.sampled_from([1, 2])) * n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    kind = draw(st.sampled_from(["complex", "integer", "w-constant"]))
    if kind == "integer":
        W = np.round(2 * W)
    elif kind == "w-constant":
        W = np.repeat(W[:, :1], shape[1], axis=1)
    if draw(st.booleans()):
        W = np.ascontiguousarray(W.T)
    ni, nj = W.shape
    F = ScalarField2D(W)
    sides = vmo._admissible_sides(F, ni, nj, draw(st.floats(1e-3, 1.0))) or vmo._admissible_sides(F, ni, nj, 2.0)
    wi, wj = draw(st.integers(1, ni)), draw(st.integers(1, nj))
    i, j = draw(st.integers(0, ni - wi)), draw(st.integers(0, nj - wj))
    cap = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1.0)))
    return F.values, sides, i, j, wi, wj, cap


@settings(PROPERTY, max_examples=150)
@given(osc_windows())
def test_pruned_supremum_matches_the_table_scan(case):
    W, sides, *window = case
    got = vmo._window_sup(vmo._osc_bounds(W, sides), sides, *window)
    assert got == oracle_window_sup(oracle_osc_arrays(W, sides), sides, *window)


@PROPERTY
@given(osc_windows(), st.integers(0, 2**32 - 1))
def test_pruned_supremum_of_a_flat_field_is_within_the_floor(case, seed):
    W, sides, *window = case
    rng = np.random.default_rng(seed)
    W = 1 + 1e-16 * (rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape))
    got = vmo._window_sup(vmo._osc_bounds(W, sides), sides, *window)[0]
    want = oracle_window_sup(oracle_osc_arrays(W, sides), sides, *window)[0]
    assert abs(got - want) <= 1e-12 * np.max(np.abs(W))


@st.composite
def block_stacks(draw):
    """(blocks, b, full): a stack of random complex P x Q blocks, P >= Q, with
    one of each kind: generic, a zero first or last column, rank one, condition
    number from 1 to 1e8, all zero, and entries near 1e300 and near 1e-300;
    random right-hand sides b, one column per block; and which blocks have full
    rank.  (A zero column between two others leaves the rows of R below it free
    up to their norm, so no QR oracle pins them.)"""
    P, Q = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = rng.standard_normal((7, P, Q)) + 1j * rng.standard_normal((7, P, Q))
    blocks[1, :, draw(st.sampled_from([0, Q - 1]))] = 0
    blocks[2] = blocks[2, :, :1] @ blocks[2, :1, :]
    U, _, Vh = np.linalg.svd(blocks[3], full_matrices=False)
    blocks[3] = (U * np.logspace(0, -draw(st.floats(0, 8)), Q)) @ Vh
    blocks[4] = 0
    blocks[5] *= 1e300
    blocks[6] *= 1e-300
    b = rng.standard_normal((P, 7)) + 1j * rng.standard_normal((P, 7))
    return blocks, b, np.array([True, False, Q == 1, True, False, True, True])


@PROPERTY
@given(block_stacks())
def test_householder_qr_matches_the_lapack_oracle(case):
    blocks, b, full = case
    sv = np.linalg.svd(blocks, compute_uv=False)
    _, R, _, _ = _qr_sigma(blocks)
    # R is unique up to the phases of its rows: compare moduli
    assert np.all(np.abs(np.abs(R) - np.abs(np.linalg.qr(blocks)[1])) <= 1e-12 * sv[:, :1, None])
    A, kappa = blocks[full], sv[full, 0] / sv[full, -1]
    F = _qr_solve(_qr_sigma(A)[:2], b[:, full].copy())
    for i in range(len(A)):
        x = np.linalg.lstsq(A[i], b[:, full][:, i], rcond=None)[0]
        s = np.max(np.abs(x))  # the norms of x near 1e+-300 neither overflow nor underflow
        assert np.linalg.norm((F[:, i] - x) / s) <= 1e-12 * kappa[i] * np.linalg.norm(x / s)
