from fractions import Fraction

import numpy as np
import pytest

from zakvmo.core import GridError, ScalarField2D, node_index, sample_function
from zakvmo.zak import (
    AliasingError,
    check_zak_identities,
    inverse_zak,
    zak_l2_norm,
    zak_transform,
)


class TestZakTransform:
    def test_unit_box_is_one(self, box64):
        Z = zak_transform(box64, 64, 64)
        assert np.max(np.abs(Z.values - 1.0)) == 0.0

    def test_two_cell_box(self):
        f = sample_function(("box", 0.0, 2.0), (0, 2), 32)
        Z = zak_transform(f, 32, 16)
        w = np.arange(16) / 16
        expected = 1.0 + np.exp(-2j * np.pi * w)
        assert np.max(np.abs(Z.values - expected[None, :])) < 1e-14

    def test_gaussian_zak_zero(self, gauss64):
        # the Gaussian's Zak transform vanishes at (1/2, 1/2); oracle:
        # direct alternating sum over a wide support
        Z = zak_transform(gauss64, 64, 64)
        val = Z.at(node_index(Fraction(1, 2), Z.nx, "x"), node_index(Fraction(1, 2), Z.nw, "w"))
        ks = np.arange(-30, 30)
        direct = np.sum(np.exp(-((0.5 + ks) ** 2)) * np.exp(-1j * np.pi * ks))
        assert abs(val) < 1e-3
        assert abs(val - direct) < 1e-12

    def test_returns_quasiperiodic_unit_square_field(self, gauss64):
        Z = zak_transform(gauss64, 64, 32)
        assert (Z.nx, Z.nw, Z.hx, Z.hw) == (64, 32, 1 / 64, 1 / 32)
        assert Z.extension == "quasiperiodic"
        assert Z.omega_modes == (-8, 8)

    def test_nx_must_divide(self, gauss64):
        with pytest.raises(GridError):
            zak_transform(gauss64, 48, 64)

    def test_nw_aliasing_flagged(self, gauss64):
        with pytest.raises(AliasingError):
            zak_transform(gauss64, 64, 8)

    def test_linearity_exact(self, rng):
        f = sample_function(("table", rng.standard_normal(64) + 1j * rng.standard_normal(64)), (0, 2), 32)
        g = sample_function(("table", rng.standard_normal(64) + 1j * rng.standard_normal(64)), (0, 2), 32)
        h = sample_function(("table", 2.0 * f.values - 1j * g.values), (0, 2), 32)
        Zf = zak_transform(f, 32, 8).values
        Zg = zak_transform(g, 32, 8).values
        Zh = zak_transform(h, 32, 8).values
        assert np.max(np.abs(Zh - (2.0 * Zf - 1j * Zg))) < 1e-12


class TestZakExtend:
    def test_unit_phase(self, box64):
        Z = zak_transform(box64, 64, 64)
        assert Z.at(node_index(1.0, Z.nx, "x"), node_index(0.25, Z.nw, "w")) == pytest.approx(1j, abs=1e-14)

    def test_omega_periodicity(self, box64):
        Z = zak_transform(box64, 64, 64)
        assert Z.at(node_index(0.0, Z.nx, "x"), node_index(7.0, Z.nw, "w")) == pytest.approx(1.0, abs=1e-14)

    def test_half_phase(self, box64):
        Z = zak_transform(box64, 64, 64)
        assert Z.at(node_index(1.5, Z.nx, "x"), node_index(0.5, Z.nw, "w")) == pytest.approx(-1.0, abs=1e-14)

    def test_quasi_periodic_relation_everywhere(self, gauss64):
        Z = zak_transform(gauss64, 64, 64)
        ij = np.arange(64)
        base = Z.at(ij[:, None], ij[None, :])
        up = Z.at(ij[:, None] + 64, ij[None, :])
        phases = np.exp(2j * np.pi * ij / 64)
        assert np.max(np.abs(up - phases[None, :] * base)) < 1e-14

    def test_off_node_rejected(self, box64):
        Z = zak_transform(box64, 64, 64)
        with pytest.raises(GridError):
            Z.at(node_index(0.013, Z.nx, "x"), node_index(0.0, Z.nw, "w"))

    @pytest.mark.parametrize("i0, j0", [(0, 0), (-64, 5), (-150, -70), (37, 200)])
    def test_phase_table_is_bit_identical_to_one_exp_per_node(self, gauss64, i0, j0):
        # the window reads one phase row per wrap; the oracle evaluates
        # e^{2 pi i m w} at every node, as the extension law is written
        Z = zak_transform(gauss64, 64, 64)
        ix = np.arange(i0, i0 + 144)[:, None]
        iw = np.arange(j0, j0 + 144)[None, :]
        wrap, mm = ix // 64, np.mod(iw, 64)
        oracle = np.exp(2j * np.pi * (wrap * (mm / 64))) * Z.values[ix - wrap * 64, mm]
        assert np.array_equal(Z.window(i0, j0, 144, 144), oracle)


class TestInverseZak:
    def test_constant_gives_unit_box(self, box64):
        Z = zak_transform(box64, 64, 64)
        f = inverse_zak(Z, (0, 1))
        assert np.max(np.abs(f.values - 1.0)) < 1e-12

    def test_single_mode_gives_shifted_box(self):
        f0 = sample_function(("box", 1.0, 2.0), (1, 2), 16)
        Z = zak_transform(f0, 16, 8)
        w = np.arange(8) / 8
        assert np.max(np.abs(Z.values - np.exp(-2j * np.pi * w)[None, :])) < 1e-14
        back = inverse_zak(Z, (1, 2))
        assert np.max(np.abs(back.values - 1.0)) < 1e-12

    def test_gaussian_roundtrip(self, gauss64):
        Z = zak_transform(gauss64, 64, 32)
        back = inverse_zak(Z, (-8, 8))
        assert np.max(np.abs(back.values - gauss64.values)) < 1e-10

    def test_support_too_wide(self, gauss64):
        Z = zak_transform(gauss64, 64, 16)
        with pytest.raises(AliasingError):
            inverse_zak(Z, (-16, 16))


class TestIdentitiesAndUnitarity:
    def test_unitarity_three_generators(self, box64, box_sine64, gauss64):
        for f in (box64, box_sine64, gauss64):
            Z = zak_transform(f, 64, 64)
            assert abs(zak_l2_norm(Z) - f.norm()) < 1e-10

    def test_identity_report(self, gauss64):
        rep = check_zak_identities(gauss64, zak_transform(gauss64, 64, 64))
        assert rep.dev_quasiperiod < 1e-8
        assert rep.dev_shift < 1e-8
        assert rep.dev_integer_shift < 1e-8
        assert rep.dev_fourier < 1e-4

    def test_quasiperiod_reads_the_field_extension(self, gauss64):
        # identity (a) reads Z through ScalarField2D.at: the same values with
        # a periodic extension miss the phase e^{2 pi i p w} off the square
        Z = zak_transform(gauss64, 64, 64)
        periodic = ScalarField2D(Z.values, "periodic", Z.omega_modes)
        assert check_zak_identities(gauss64, periodic).dev_quasiperiod > 0.1

    def test_identities_need_square_grid(self, gauss64):
        with pytest.raises(GridError):
            check_zak_identities(gauss64, zak_transform(gauss64, 64, 32))
