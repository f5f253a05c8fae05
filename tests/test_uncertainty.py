import math

import numpy as np
import pytest

from zakvmo.core import GridError, fourier_transform, sample_function, tf_shift
from zakvmo.metaplectic import apply_chirp
from zakvmo.uncertainty import (
    feichtinger_norm_estimate,
    gagliardo_seminorm,
    uncertainty_product,
    weighted_moment,
)


class TestWeightedMoment:
    def test_box_centered_second_moment(self, box64):
        # oracle: int_0^1 (x - 1/2)^2 dx = 1/12 (grid value frozen below)
        sw = weighted_moment(box64, 2.0, 0.5, [0.25, 0.5, 1.0, 2.0])
        assert sw.converged
        assert sw.value == pytest.approx(1 / 12, abs=1e-4)

    def test_gaussian_second_moment(self, gauss64):
        # oracle: int x^2 exp(-2 x^2) dx = (1/4) sqrt(pi/2)
        sw = weighted_moment(gauss64, 2.0, 0.0, [1, 2, 4, 6, 8])
        assert sw.converged
        assert sw.value == pytest.approx(0.25 * math.sqrt(math.pi / 2), abs=1e-6)

    def test_sinc_type_divergence_linear(self):
        # ghat of the box decays like 1/w, so w^2 |ghat|^2 has a constant
        # mean ~ 1/pi^2 and the sweep grows linearly
        box = sample_function("box", (0, 1), 512)
        ghat = fourier_transform(box, out_S=16, out_support=(-65, 65))
        sw = weighted_moment(ghat, 2.0, 0.0, [2, 4, 8, 16, 32, 64])
        assert not sw.converged
        assert sw.growth_shape == "linear"
        assert sw.growth_rate == pytest.approx(1 / math.pi**2, rel=0.1)

    def test_partials_nondecreasing(self, gauss64):
        sw = weighted_moment(gauss64, 1.5, 0.25, [1, 2, 4, 8])
        assert all(b >= a for a, b in zip(sw.partials, sw.partials[1:]))

    def test_translation_covariance_exact(self, gauss64):
        sw1 = weighted_moment(gauss64, 2.0, 0.0, [1, 2, 4, 8])
        sw2 = weighted_moment(tf_shift(gauss64, (3.0, 0.0)), 2.0, 3.0, [1, 2, 4, 8])
        assert sw1.partials == sw2.partials


class TestUncertaintyProduct:
    def test_gaussian_saturates_heisenberg(self, gauss64):
        t_sw, f_sw = uncertainty_product(gauss64, 2, 2, 0.0, 0.0, [1, 2, 4, 6, 8])
        assert t_sw.converged and f_sw.converged
        a = 2 * math.pi**2
        assert t_sw.value == pytest.approx(0.25 * math.sqrt(math.pi / 2), abs=1e-6)
        assert f_sw.value == pytest.approx(math.pi / (2 * a) * math.sqrt(math.pi / a), abs=1e-6)
        # the Gaussian saturates the Heisenberg product ||g||^4 / (16 pi^2)
        norm2 = math.sqrt(math.pi / 2)
        assert t_sw.value * f_sw.value == pytest.approx(norm2**2 / (16 * math.pi**2), rel=1e-9)

    def test_box_frequency_side_divergent(self):
        box = sample_function("box", (0, 1), 512)
        t_sw, f_sw = uncertainty_product(box, 2, 2, 0.0, 0.0, [2, 4, 8, 16, 32, 64])
        assert t_sw.converged
        assert not f_sw.converged
        assert f_sw.growth_shape == "linear"

    def test_center_independence_of_verdict(self, gauss64):
        for alpha in (0.0, 0.375):
            t_sw, f_sw = uncertainty_product(gauss64, 2, 2, alpha, 0.0, [1, 2, 4, 6, 8])
            assert t_sw.converged and f_sw.converged
        box = sample_function("box", (0, 1), 512)
        for alpha in (0.0, 0.5):
            t_sw, f_sw = uncertainty_product(box, 2, 2, alpha, 0.0, [2, 4, 8, 16, 32, 64])
            assert t_sw.converged and not f_sw.converged

    def test_fourier_swap_verdict_symmetry(self, gauss64):
        # verdicts are invariant under g -> ghat with (p, q), (a, b) swapped
        t1, f1 = uncertainty_product(gauss64, 2, 2, 0.0, 0.0, [1, 2, 4, 6, 8])
        ghat = fourier_transform(gauss64)
        t2, f2 = uncertainty_product(ghat, 2, 2, 0.0, 0.0, [1, 2, 4, 6, 8])
        assert (t1.converged, f1.converged) == (f2.converged, t2.converged)

    def test_dual_mode_validation(self, gauss64):
        with pytest.raises(ValueError):
            uncertainty_product(gauss64, 2.0, 3.0, 0, 0, [1, 2, 4], dual=True)
        uncertainty_product(gauss64, 4.0, 4 / 3, 0, 0, [1, 2, 4, 8], dual=True)


class TestGagliardo:
    def test_zero_function(self):
        z = sample_function(("table", np.zeros(64)), (0, 1), 64)
        sw = gagliardo_seminorm(z, 0.5, [2, 4, 8])
        assert sw.converged
        assert sw.value == 0.0

    def test_gaussian_half_matches_fourier_oracle(self, gauss64):
        # [g]^2 = int 2 pi |2 pi w| |ghat|^2 dw = 2 pi for exp(-x^2)
        sw = gagliardo_seminorm(gauss64, 0.5, [8, 16, 32, 64])
        assert sw.converged
        assert sw.value == pytest.approx(2 * math.pi, rel=0.02)

    def test_box_half_diverges_logarithmically(self):
        box = sample_function("box", (0, 1), 128)
        sw = gagliardo_seminorm(box, 0.5, [2, 4, 8])
        assert not sw.converged
        assert sw.growth_shape == "log"
        # two unit jumps, each contributing 2 log(1/b): slope ~ 4
        assert 3.0 < sw.growth_rate < 6.0

    def test_values_match_fourier_side_across_s(self, gauss64):
        # K(w) = 2 C0(s) |2 pi w|^{2s} with C0 the cosine-defect integral;
        # agreement within 8% on the reliable s range
        v = np.linspace(1e-8, 400, 400000)
        w = np.linspace(0, 8, 20000)
        for s in (0.4, 0.5, 0.6, 0.7):
            c0 = 2 * (
                np.trapezoid((1 - np.cos(v)) / v ** (1 + 2 * s), v)
                + v[0] ** (2 - 2 * s) / (2 * (2 - 2 * s))
            )
            integ = 2 * np.trapezoid(
                (2 * np.pi * w) ** (2 * s) * np.pi * np.exp(-2 * np.pi**2 * w**2), w
            )
            oracle = 2 * c0 * integ
            sw = gagliardo_seminorm(gauss64, s, [8, 16, 32, 64])
            got = sw.value if sw.converged else sw.partials[-1]
            assert got == pytest.approx(oracle, rel=0.08), f"s={s}"

    def test_s_range_validated(self, gauss64):
        with pytest.raises(ValueError):
            gagliardo_seminorm(gauss64, 1.5, [2, 4])

    def test_chirp_preserves_class_verdicts(self, gauss64):
        # qualitative chirp stability: multiplying by exp(2 pi i x^2)
        # keeps the Gaussian convergent and the box divergent
        assert gagliardo_seminorm(apply_chirp(gauss64, 1), 0.5, [2, 4, 8]).converged
        box = sample_function("box", (0, 1), 128)
        assert not gagliardo_seminorm(apply_chirp(box, 1), 0.5, [2, 4, 8]).converged


class TestFeichtinger:
    def test_gaussian_convergent_with_analytic_value(self, gauss64):
        # |V(t, v)| = sqrt(pi/2) e^{-t^2/2} e^{-pi^2 v^2 / 2} integrates
        # to sqrt(2 pi)
        sw = feichtinger_norm_estimate(gauss64)
        assert sw.converged
        assert sw.value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-3)

    def test_box_divergent_logarithmically(self):
        box = sample_function("box", (0, 1), 128)
        sw = feichtinger_norm_estimate(box, radii=(2, 4, 8, 16, 32))
        assert not sw.converged
        assert sw.growth_shape == "log"

    def test_zero_function(self):
        z = sample_function(("table", np.zeros(64)), (0, 1), 64)
        sw = feichtinger_norm_estimate(z)
        assert sw.converged
        assert sw.value == 0.0

    def test_alias_guard(self, box64):
        with pytest.raises(GridError):
            feichtinger_norm_estimate(box64, radii=(2, 4, 8, 64))
