import math

import numpy as np
import pytest

from conftest import l2_distance
from zakvmo.core import (
    GridError,
    SampledFunction,
    embed,
    fourier_transform,
    inner_product,
    sample_function,
    tf_shift,
)


class TestSampleFunction:
    def test_box_left_closed_right_open(self):
        f = sample_function("box", (-1, 2), 4)
        x = f.grid()
        inside = (x >= 0) & (x < 1)
        assert np.all(f.values[inside] == 1.0)
        assert np.all(f.values[~inside] == 0.0)

    def test_gaussian_at_zero(self):
        f = sample_function("gaussian", (-8, 8), 16)
        assert f.values[8 * 16] == 1.0

    def test_box_sine_midpoint(self):
        f = sample_function("box_sine", (0, 1), 8)
        assert f.values[4] == pytest.approx(1.0)  # sin(pi/2)

    def test_custom_table_roundtrip(self):
        vals = np.arange(8, dtype=complex)
        f = sample_function(("table", vals), (0, 2), 4)
        assert np.array_equal(f.values, vals)

    def test_custom_table_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            sample_function(("table", np.ones(5)), (0, 2), 4)

    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown recipe"):
            sample_function("wavelet", (0, 1), 8)

    def test_empty_support(self):
        with pytest.raises(ValueError):
            sample_function("gaussian", (2, 2), 8)

    def test_small_s_rejected(self):
        with pytest.raises(ValueError):
            sample_function("gaussian", (0, 1), 1)


class TestInnerProduct:
    def test_box_unit_norm(self):
        for s in (4, 16, 64):
            f = sample_function("box", (0, 1), s)
            assert inner_product(f, f) == pytest.approx(1.0, abs=0)

    def test_disjoint_supports(self):
        f = sample_function("box", (0, 1), 8)
        g = sample_function(("box", 1.0, 2.0), (1, 2), 8)
        assert inner_product(f, g) == 0

    def test_gaussian_norm_squared(self, gauss64):
        # oracle: int exp(-2 x^2) dx = sqrt(pi / 2)
        assert inner_product(gauss64, gauss64).real == pytest.approx(
            math.sqrt(math.pi / 2), abs=1e-8
        )

    def test_mismatched_rates(self, gauss64):
        g = sample_function("gaussian", (-8, 8), 32)
        with pytest.raises(GridError):
            inner_product(gauss64, g)


class TestEmbed:
    def test_zero_extends_onto_cells(self, box64):
        e = embed(box64, -2, 3)
        assert (e.k_min, e.k_max, e.samples_per_unit) == (-2, 3, 64)
        assert np.array_equal(e.values[2 * 64 : 3 * 64], box64.values)
        assert not np.any(e.values[: 2 * 64]) and not np.any(e.values[3 * 64 :])
        assert inner_product(e, e) == inner_product(box64, box64)

    def test_cells_must_contain_support(self, box64):
        with pytest.raises(ValueError):
            embed(box64, 1, 3)


class TestTFShift:
    def test_identity(self, gauss64):
        out = tf_shift(gauss64, (0.0, 0.0))
        assert np.array_equal(out.values, gauss64.values)

    def test_integer_shift_of_box(self, box64):
        out = tf_shift(box64, (1.0, 0.0))
        ref = sample_function(("box", 1.0, 2.0), (1, 2), 64)
        assert l2_distance(out, ref) == 0

    def test_isometry(self, gauss64, rng):
        for _ in range(16):
            u = rng.integers(-128, 129) / 64
            eta = rng.standard_normal()
            out = tf_shift(gauss64, (u, eta))
            assert out.norm() == pytest.approx(gauss64.norm(), abs=1e-12)

    def test_commutation_phase(self, gauss64, rng):
        # pi(a,b) pi(c,d) = exp(-2 pi i a d) pi(a+c, b+d)
        for _ in range(16):
            a, c = rng.integers(-64, 65, size=2) / 64
            b, d = rng.standard_normal(2)
            lhs = tf_shift(tf_shift(gauss64, (c, d)), (a, b))
            rhs = tf_shift(gauss64, (a + c, b + d))
            phase = np.exp(-2j * np.pi * a * d)
            scaled = SampledFunction(
                rhs.samples_per_unit, rhs.k_min, rhs.k_max, phase * rhs.values
            )
            assert l2_distance(lhs, scaled) < 1e-12

    def test_second_commutation_form(self, gauss64, rng):
        # exp(-2 pi i a d) = exp(-2 pi i (a d - b c)) exp(-2 pi i c b):
        # swapping the factors costs exactly the symplectic-form phase
        for _ in range(8):
            a, c = rng.integers(-32, 33, size=2) / 64
            b, d = rng.standard_normal(2)
            lhs = tf_shift(tf_shift(gauss64, (c, d)), (a, b))
            rhs = tf_shift(tf_shift(gauss64, (a, b)), (c, d))
            phase = np.exp(-2j * np.pi * (a * d - b * c))
            scaled = SampledFunction(
                rhs.samples_per_unit, rhs.k_min, rhs.k_max, phase * rhs.values
            )
            assert l2_distance(lhs, scaled) < 1e-12

    def test_off_grid_rejected(self, gauss64):
        with pytest.raises(GridError):
            tf_shift(gauss64, (1 / 3, 0.0))

    def test_shift_continuity(self, gauss64):
        # || pi(u + delta, eta) f - pi(u, eta) f || -> 0 as delta -> 0
        base = tf_shift(gauss64, (0.5, 0.25))
        dists = []
        for k in (2, 4, 8, 16, 32):
            other = tf_shift(gauss64, (0.5 + 1.0 / k, 0.25))
            dists.append(l2_distance(base, other))
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.1


class TestFourierTransform:
    def test_box_dc_value(self, box64):
        fhat = fourier_transform(box64)
        j0 = -fhat.j_min  # index of w = 0
        assert fhat.values[j0] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_dc_value(self, gauss64):
        fhat = fourier_transform(gauss64)
        assert fhat.values[-fhat.j_min] == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_plancherel(self, gauss64):
        fhat = fourier_transform(gauss64)
        assert fhat.norm() == pytest.approx(gauss64.norm(), abs=1e-6)

    def test_real_even_has_real_transform(self, gauss64):
        fhat = fourier_transform(gauss64)
        assert np.max(np.abs(fhat.values.imag)) < 1e-10

    def test_alias_guard(self, box64):
        with pytest.raises(GridError, match="alias"):
            fourier_transform(box64, out_support=(-64, 64))
