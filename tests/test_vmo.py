import math
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_osc_arrays, oracle_window_sup
from zakvmo import vmo
from zakvmo.cli import DEFAULT_CONFIG
from zakvmo.core import GridError, ScalarField2D, sample_function
from zakvmo.vmo import (
    Cube,
    _TrigPoly2,
    check_inequalities,
    field_from_function,
    mean,
    mean_function,
    mean_oscillation,
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
        assert vmo_decay_profile(const_field(1.5), (0, 1, 0, 1), [0.01]).s_values[0] == 0.0

    def test_box_zak_jump(self, box64):
        # Zf jumps from 1 to exp(2 pi i w) across x = 1
        F = zak_transform(box64, 64, 64)
        s = vmo_decay_profile(F, (0.75, 1.25, 0.0, 1.0), [(1 / 8) ** 2 * 1.01]).s_values[0]
        assert s >= 0.2

    def test_monotone_in_eps_and_window(self, rng):
        F = random_trig_field(rng, 64, 64)
        s1 = vmo_decay_profile(F, (0, 1, 0, 1), [0.002]).s_values[0]
        s2 = vmo_decay_profile(F, (0, 1, 0, 1), [0.01]).s_values[0]
        s3 = vmo_decay_profile(F, (0.25, 0.75, 0.25, 0.75), [0.01]).s_values[0]
        assert s1 <= s2 + 1e-12
        assert s3 <= s2 + 1e-12

    def test_eps_too_small(self):
        with pytest.raises(GridError):
            vmo_decay_profile(const_field(1.0, n=16), (0, 1, 0, 1), [(1 / 32) ** 2]).s_values[0]

    def test_subadditivity(self, rng):
        F = random_trig_field(rng, 64, 64)
        G = random_trig_field(rng, 64, 64)
        H = ScalarField2D(F.values + G.values, "periodic")
        eps = 0.01
        sF = vmo_decay_profile(F, (0, 1, 0, 1), [eps]).s_values[0]
        sG = vmo_decay_profile(G, (0, 1, 0, 1), [eps]).s_values[0]
        sH = vmo_decay_profile(H, (0, 1, 0, 1), [eps]).s_values[0]
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

    @staticmethod
    def witness_oracle(F, eps):
        """(S, witness cube) over the whole unit-square window by plain loops:
        sides in order, anchors in C order, a strictly larger value wins.  The
        mean is the block sum over its size and the oscillation adds |F - mean|
        cell by cell in C order, as the kernel does, so equal values tie
        exactly."""
        n = F.nx
        best, cube = 0.0, None
        for t in range(1, n + 1):
            side = t * F.hw
            if side * side >= eps:
                break
            for a in range(n - t + 1):
                for b in range(n - t + 1):
                    block = F.values[a : a + t, b : b + t]
                    mu = block.sum() / (t * t)
                    osc = 0.0
                    for v in block.ravel():
                        osc += abs(v - mu)
                    osc /= t * t
                    if cube is None or osc > best:
                        best, cube = osc, Cube((a + t / 2) * F.hx, (b + t / 2) * F.hw, side)
        return best, cube

    @pytest.mark.parametrize("transpose", [False, True])
    def test_witness_is_first_maximal_cube(self, transpose):
        # 1 on x in [1/4, 3/4), 0 elsewhere: the two jumps tie, every w
        # anchor ties, and the 2- and 4-cell cubes across a jump tie at 1/2
        n = 32
        step = (np.arange(n) >= 8) & (np.arange(n) < 24)
        values = np.repeat(step[:, None], n, axis=1).astype(complex)
        F = ScalarField2D(values.T if transpose else values, "periodic")
        for cells in (1.5, 2.5, 3.5, 4.5):
            eps = (cells / n) ** 2
            rep = vmo_decay_profile(F, (0, 1, 0, 1), [eps], floor=0.0)
            assert (rep.s_values[0], rep.witness) == self.witness_oracle(F, eps)
        assert rep.s_values[0] == 0.5
        assert rep.witness == (Cube(0.25, 1 / 32, 1 / 16) if not transpose else Cube(1 / 32, 0.25, 1 / 16))

    def test_witness_in_offset_window(self):
        # the window [1/2, 1] x [1/4, 3/4] meets one jump, at x = 3/4
        n = 32
        step = (np.arange(n) >= 8) & (np.arange(n) < 24)
        F = ScalarField2D(np.repeat(step[:, None], n, axis=1).astype(complex), "periodic")
        rep = vmo_decay_profile(F, (0.5, 1.0, 0.25, 0.75), [(4.5 / n) ** 2], floor=0.0)
        assert rep.s_values == [0.5]
        assert rep.witness == Cube(0.75, 9 / 32, 1 / 16)


class TestPrunedScanMemory:
    @staticmethod
    def traced_profile(Z):
        """(report, peak traced bytes) of one decay profile, after a warm-up."""
        args = (Z, (0, 1, 0, 1), DEFAULT_CONFIG["eps_list"])
        vmo_decay_profile(*args)
        tracemalloc.start()
        try:
            rep = vmo_decay_profile(*args)
            return rep, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("recipe", ["gaussian", "box_sine"])
    def test_peak_stays_near_the_table_scan(self, recipe, monkeypatch):
        # the bound tables replace the oscillation tables one for one; the
        # exact values are gathered in bounded chunks and never kept
        Z = zak_transform(sample_function(recipe, (-8, 8), 84), 84, 84)
        rep, peak = self.traced_profile(Z)
        monkeypatch.setattr(vmo, "_osc_bounds", oracle_osc_arrays)
        monkeypatch.setattr(vmo, "_window_sup", oracle_window_sup)
        want, table_peak = self.traced_profile(Z)
        assert (rep.s_values, rep.witness) == (want.s_values, want.witness)
        assert peak <= 1.25 * table_peak


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


def suite_reports(seed, n_cases):
    """check_inequalities on the fields of ``proptest vmo-inequalities``, drawn
    as the suite draws them: (F, G), then (F2 = 2 + small field, G)."""
    rng = np.random.default_rng(seed)
    F = random_trig_field(rng, 96, 96, degree=3)
    G = random_trig_field(rng, 96, 96, degree=3)
    rep = check_inequalities(F, G, (0, 1, 0, 1), 0.01, n_cases=n_cases, rng=rng)
    F2 = random_trig_field(rng, 96, 96, degree=3, scale=0.2, offset=2.0)
    return rep, check_inequalities(F2, G, (0, 1, 0, 1), 0.01, n_cases=n_cases, rng=rng)


# (seed, report) -> (name, max_ratio.hex(), cases, precondition_ok, note) of
# every result at n_cases = 40; the eps_U search stops at the one-cell eps on
# the first report and at the first eps on the second
GOLDEN_INEQUALITIES = {
    (3, 0): [
        ("product_mean", "0x1.2c7fa93f0d568p-3", 40, True, ""),
        ("product_osc_sup", "0x1.2123a2ea9192bp-2", 40, True, ""),
        ("mean_lower_bound", "0x1.e3a58a8b65b56p-6", 40, True, "eps_U = 0.00015625"),
        ("inverse_osc_sup", "0x0.0p+0", 40, True, "eps_U = 0.00015625"),
        ("nested_mean_osc", "0x1.400d2acd5d2a6p-2", 40, True, ""),
        ("multi_product_mean", "0x1.91fcbdf8273ddp-9", 40, True, ""),
        ("affine_pullback", "0x1.96f758cb9982cp-3", 40, True, ""),
        ("c1_multiplier", "0x1.a54b59f6ba8a7p-2", 40, True, ""),
    ],
    (3, 1): [
        ("product_mean", "0x1.2d4d07a7d9d39p-5", 40, True, ""),
        ("product_osc_sup", "0x1.06d57b440ecf0p-2", 40, True, ""),
        ("mean_lower_bound", "0x1.f6341822c2c4ap-2", 40, True, "eps_U = 0.01"),
        ("inverse_osc_sup", "0x1.8502c00e4c37dp-3", 40, True, "eps_U = 0.01"),
        ("nested_mean_osc", "0x1.292b37a011c68p-2", 40, True, ""),
        ("multi_product_mean", "0x1.95cd4ef13cc83p-9", 40, True, ""),
        ("affine_pullback", "0x1.38f0eb4c88372p-2", 40, True, ""),
        ("c1_multiplier", "0x1.8ea9a14a7b541p-2", 40, True, ""),
    ],
    (8, 0): [
        ("product_mean", "0x1.d4d79bf365450p-4", 40, True, ""),
        ("product_osc_sup", "0x1.b56710b46f6fep-2", 40, True, ""),
        ("mean_lower_bound", "0x1.370d83d096b01p-5", 40, True, "eps_U = 0.00015625"),
        ("inverse_osc_sup", "0x0.0p+0", 40, True, "eps_U = 0.00015625"),
        ("nested_mean_osc", "0x1.0000000000000p-1", 40, True, ""),
        ("multi_product_mean", "0x1.63acb34dbf9c7p-8", 40, True, ""),
        ("affine_pullback", "0x1.e2eee8f1f41fap-3", 40, True, ""),
        ("c1_multiplier", "0x1.d6d8d851537e6p-2", 40, True, ""),
    ],
    (8, 1): [
        ("product_mean", "0x1.46715076f6b89p-5", 40, True, ""),
        ("product_osc_sup", "0x1.4c16be4c4c717p-2", 40, True, ""),
        ("mean_lower_bound", "0x1.cb130fc14149fp-2", 40, True, "eps_U = 0.01"),
        ("inverse_osc_sup", "0x1.ab2413685919dp-3", 40, True, "eps_U = 0.01"),
        ("nested_mean_osc", "0x1.b4521723e6826p-2", 40, True, ""),
        ("multi_product_mean", "0x1.eac89f09dc25ap-8", 40, True, ""),
        ("affine_pullback", "0x1.0e10e3b487dd1p-2", 40, True, ""),
        ("c1_multiplier", "0x1.c7e32279f2eafp-2", 40, True, ""),
    ],
}


class TestInequalityGolden:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_results_are_bit_identical(self, seed):
        # any reordered rng draw moves a max_ratio
        for k, rep in enumerate(suite_reports(seed, 40)):
            got = [(r.name, r.max_ratio.hex(), r.cases, r.precondition_ok, r.note)
                   for r in rep.results.values()]
            assert got == GOLDEN_INEQUALITIES[(seed, k)]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2, defect (a): the eps_U search accepts one-cell cubes")
    def test_eps_u_admits_a_two_cell_cube(self):
        notes = [r.note for rep in suite_reports(3, 5) for r in rep.results.values()
                 if r.note.startswith("eps_U = ")]
        assert notes
        for note in notes:
            assert (2 / 96) ** 2 < float(note.removeprefix("eps_U = "))
