import math

import numpy as np
import pytest

from zakvmo.core import GridError, ScalarField2D, sample_function
from zakvmo.vmo import (
    Cube,
    _TrigPoly2,
    check_inequalities,
    field_from_function,
    mean,
    mean_function,
    mean_oscillation,
    osc_supremum,
    prods_constant,
    random_trig_field,
    remark_cube,
    vmo_decay_profile,
)
from zakvmo.zak import zak_transform


def const_field(c, n=64, extension="periodic"):
    return ScalarField2D(np.full((n, n), c, dtype=complex), extension)


class TestMean:
    def test_constant(self):
        F = const_field(3.0 - 1j)
        for side in (1 / 16, 1 / 4, 1 / 2):
            assert mean(F, Cube(0.5, 0.5, side)) == pytest.approx(3.0 - 1j, abs=1e-13)

    def test_exponential_mode_matches_discrete_factor_product(self):
        # independent oracle: the cube mean of a product mode factorizes into
        # two 1-D discrete means, which we compute directly
        n, M1, M2 = 128, 2, -3
        F = field_from_function(
            lambda x, w: np.exp(2j * np.pi * (M1 * x + M2 * w)), n, n, "periodic"
        )
        cube = Cube(0.5, 0.25, 0.25)
        got = mean(F, cube)
        xs = 0.5 - 0.125 + np.arange(32) / n
        ws = 0.25 - 0.125 + np.arange(32) / n
        oracle = np.mean(np.exp(2j * np.pi * M1 * xs)) * np.mean(np.exp(2j * np.pi * M2 * ws))
        assert got == pytest.approx(oracle, abs=1e-13)
        # and approaches the sinc product at the cube center
        target = np.sinc(M1 * 0.25) * np.sinc(M2 * 0.25) * np.exp(2j * np.pi * (M1 * 0.5 + M2 * 0.25))
        assert abs(got - target) < 0.05

    def test_remark_cube_sinc_product(self):
        # Z(box_sine) is exactly band-limited in omega, so the omega
        # integral is exact; the x direction needs a fine grid
        f = sample_function("box_sine", (0, 1), 2048)
        F = zak_transform(f, 2048, 64)
        got = mean(F, remark_cube(3, 0.25))
        assert got == pytest.approx(np.sinc(1 / 8) * np.sinc(3 / 4), abs=1e-6)

    def test_cube_outside_domain(self):
        F = const_field(1.0, extension="none")
        with pytest.raises(GridError):
            mean(F, Cube(1.5, 0.5, 0.25))

    def test_off_grid_cube_rejected(self):
        F = const_field(1.0)
        with pytest.raises(GridError):
            mean(F, Cube(0.5, 0.5, 0.013))

    def test_near_grid_cube_rejected(self):
        # a corner 6.4e-7 cells off the grid is off it, not rounded onto it
        with pytest.raises(GridError):
            mean(const_field(1.0), Cube(0.5 + 1e-8, 0.5, 0.25))


class TestMeanOscillation:
    def test_constant_is_zero(self):
        assert mean_oscillation(const_field(2j), Cube(0.5, 0.5, 0.25)) == 0.0

    def test_remark_witness_lower_bound(self):
        f = sample_function("box_sine", (0, 1), 2048)
        F = zak_transform(f, 2048, 64)
        mq = mean_oscillation(F, remark_cube(3, 0.25))
        assert mq >= 1 / math.pi - 1e-3

    def test_step_field(self):
        n = 64
        F = field_from_function(
            lambda x, w: np.where(x < 0.5, -1.0, 1.0) + 0 * w, n, n, "periodic"
        )
        assert mean_oscillation(F, Cube(0.5, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-13)

    def test_shift_invariance_exact(self, rng):
        F = random_trig_field(rng, 64, 64)
        G = ScalarField2D(F.values + (5.0 - 2j), "periodic")
        c = Cube(0.25, 0.75, 0.125)
        assert mean_oscillation(F, c) == pytest.approx(mean_oscillation(G, c), abs=1e-12)


class TestOscSupremum:
    def test_constant_zero(self):
        assert osc_supremum(const_field(1.5), (0, 1, 0, 1), 0.01) == 0.0

    def test_box_zak_jump(self, box64):
        # Zf jumps from 1 to exp(2 pi i w) across x = 1
        F = zak_transform(box64, 64, 64)
        s = osc_supremum(F, (0.75, 1.25, 0.0, 1.0), (1 / 8) ** 2 * 1.01)
        assert s >= 0.2

    def test_monotone_in_eps_and_window(self, rng):
        F = random_trig_field(rng, 64, 64)
        s1 = osc_supremum(F, (0, 1, 0, 1), 0.002)
        s2 = osc_supremum(F, (0, 1, 0, 1), 0.01)
        s3 = osc_supremum(F, (0.25, 0.75, 0.25, 0.75), 0.01)
        assert s1 <= s2 + 1e-12
        assert s3 <= s2 + 1e-12

    def test_eps_too_small(self):
        with pytest.raises(GridError):
            osc_supremum(const_field(1.0, n=16), (0, 1, 0, 1), (1 / 32) ** 2)

    def test_subadditivity(self, rng):
        F = random_trig_field(rng, 64, 64)
        G = random_trig_field(rng, 64, 64)
        H = ScalarField2D(F.values + G.values, "periodic")
        eps = 0.01
        sF = osc_supremum(F, (0, 1, 0, 1), eps)
        sG = osc_supremum(G, (0, 1, 0, 1), eps)
        sH = osc_supremum(H, (0, 1, 0, 1), eps)
        assert sH <= sF + sG + 1e-12


class TestMeanFunction:
    def test_constant(self):
        out = mean_function(const_field(4.0), 0.25)
        assert np.max(np.abs(out.values - 4.0)) < 1e-13

    def test_sinc_identity_exact(self):
        for M1, M2, r in ((1, 0, 0.25), (2, 3, 0.125), (0, 5, 1 / 16)):
            n = 64
            F = field_from_function(
                lambda x, w: np.exp(2j * np.pi * (M1 * x + M2 * w)), n, n, "periodic"
            )
            out = mean_function(F, r)
            target = np.sinc(M1 * r) * np.sinc(M2 * r) * F.values
            assert np.max(np.abs(out.values - target)) < 1e-8

    def test_sup_norm_contraction(self, rng):
        F = random_trig_field(rng, 64, 64)
        out = mean_function(F, 0.125)
        assert np.max(np.abs(out.values)) <= np.max(np.abs(F.values)) + 1e-12

    def test_periodicity_inheritance(self, rng):
        # (1/2, 1/4)-periodic input keeps its periods to machine precision
        n = 64
        F = field_from_function(
            lambda x, w: np.exp(2j * np.pi * (2 * x - 4 * w)) + 0.5 * np.exp(2j * np.pi * (4 * x + 8 * w)),
            n, n, "periodic",
        )
        out = mean_function(F, 0.125).values
        assert np.max(np.abs(out - np.roll(out, n // 2, axis=0))) < 1e-12
        assert np.max(np.abs(out - np.roll(out, n // 4, axis=1))) < 1e-12

    def test_quasiperiodic_spatial_path(self, gauss64):
        F = zak_transform(gauss64, 64, 64)
        out = mean_function(F, 2 / 64)
        # averaging a continuous field barely moves it
        assert np.max(np.abs(out.values - F.values)) < 0.2

    def test_incompatible_r(self):
        with pytest.raises(GridError):
            mean_function(const_field(1.0), 0.013)
        with pytest.raises(GridError):
            mean_function(const_field(1.0), 0.125 + 1e-8)  # 6.4e-7 cells off


class TestDecayProfiles:
    def test_constant_consistent(self):
        rep = vmo_decay_profile(const_field(2.0), (0, 1, 0, 1), [0.01, 0.001])
        assert rep.verdict == "vmo-consistent"
        assert rep.witness is None
        assert all(s == 0 for s in rep.s_values)

    def test_gaussian_zak_decays(self, gauss64):
        F = zak_transform(gauss64, 64, 64)
        rep = vmo_decay_profile(F, (0, 1, 0, 1), [1 / 16, 1 / 64, 1 / 256, 1 / 1024])
        assert rep.verdict == "vmo-consistent"
        assert rep.monotone

    def test_box_sine_far_window_fails(self, box_sine64):
        F = zak_transform(box_sine64, 64, 64)
        eps = [(1 / 4) ** 2 * 1.01, (1 / 8) ** 2 * 1.01, (1 / 16) ** 2 * 1.01]
        rep = vmo_decay_profile(F, (2.0, 12.0, -0.5, 0.5), eps)
        assert rep.verdict == "vmo-fail-witness"
        assert rep.witness is not None
        assert rep.witness_value >= 1 / math.pi
        # the sweep and mean_oscillation subtract the same cell mean, so the
        # witness cube reads the same oscillation through both
        assert mean_oscillation(F, rep.witness) == pytest.approx(rep.witness_value, abs=1e-12)

    def test_box_sine_near_window_consistent(self, box_sine64):
        F = zak_transform(box_sine64, 64, 64)
        eps = [(1 / 4) ** 2 * 1.01, (1 / 8) ** 2 * 1.01, (1 / 16) ** 2 * 1.01, (1 / 32) ** 2 * 1.01]
        rep = vmo_decay_profile(F, (0.0, 1.0, 0.0, 1.0), eps)
        assert rep.verdict == "vmo-consistent"

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            vmo_decay_profile(const_field(1.0), (0, 1, 0, 1), [0.001, 0.01])


class TestInequalities:
    def test_constant_fields_all_zero(self):
        rep = check_inequalities(const_field(1.0), const_field(1.0), (0, 1, 0, 1), 0.01, n_cases=50, rng=3)
        for r in rep.results.values():
            if r.precondition_ok:
                assert r.max_ratio == 0.0 or r.max_ratio <= 1.0

    def test_random_trig_fields(self, rng):
        F = random_trig_field(rng, 96, 96, degree=3)
        G = random_trig_field(rng, 96, 96, degree=3)
        rep = check_inequalities(F, G, (0, 1, 0, 1), 0.01, n_cases=200, rng=rng)
        assert rep.passed()

    def test_bounded_below_field_enables_inverse(self, rng):
        F = random_trig_field(rng, 96, 96, degree=3, scale=0.2, offset=2.0)
        G = random_trig_field(rng, 96, 96, degree=3)
        rep = check_inequalities(F, G, (0, 1, 0, 1), 0.01, n_cases=200, rng=rng)
        assert rep.results["mean_lower_bound"].precondition_ok
        assert rep.results["inverse_osc_sup"].precondition_ok
        assert rep.passed()

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_trig_phases_match_one_exp_per_mode(self, rng, degree):
        # the power table agrees with e^{2 pi i (a x + b w)} evaluated mode by mode
        p = _TrigPoly2(rng, degree=degree)
        x = rng.uniform(-3, 3, size=(40, 1))
        w = rng.uniform(-3, 3, size=(1, 30))
        ph, shape = p._phases(x, w)
        xs, ws = np.broadcast_arrays(x, w)
        oracle = np.exp(2j * np.pi * (np.outer(xs.ravel(), p.a) + np.outer(ws.ravel(), p.b)))
        assert shape == (40, 30)
        assert np.max(np.abs(ph - oracle)) <= 1e-13

    def test_prods_constant_matches_pair_bound(self):
        # for two factors the telescoped constant reduces to the pair bound
        assert prods_constant([3.0, 2.0]) == pytest.approx(0.5 * 3.0)
        assert prods_constant([1.0]) == 0.0
