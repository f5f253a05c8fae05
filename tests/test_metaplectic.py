import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import l2_distance
from zakvmo import symplectic
from zakvmo.core import GridError, fourier_transform, inner_product, sample_function
from zakvmo.metaplectic import (
    apply_chirp,
    apply_dilation,
    apply_generator,
    apply_metaplectic,
    check_zak_formulas,
    chirp_decomposition_residual,
    covariance_residual,
    minimal_sample_multiple,
)
from zakvmo.symplectic import GeneratorStep, RationalMatrix2, sl2_factorize


class TestGenerators:
    def test_zero_chirp_identity(self, gauss64):
        out = apply_chirp(gauss64, 0)
        assert np.array_equal(out.values, gauss64.values)

    def test_unit_dilation_identity(self, gauss64):
        out = apply_dilation(gauss64, 1)
        assert np.array_equal(out.values, gauss64.values)

    def test_mirror_dilation(self, box64):
        out = apply_dilation(box64, -1)
        x = out.grid()
        inside = (-x >= 0) & (-x < 1)
        assert np.all(out.values[inside] == 1.0)
        assert np.all(out.values[~inside] == 0.0)

    def test_dilation_is_exact_isometry(self, gauss64):
        for mu in (Fraction(3, 2), Fraction(1, 2), Fraction(-2), Fraction(5, 4)):
            out = apply_dilation(gauss64, mu)
            assert out.norm() == pytest.approx(gauss64.norm(), abs=1e-14)

    def test_dilation_denominator_guard(self, gauss64):
        with pytest.raises(GridError):
            apply_dilation(gauss64, Fraction(1, 3))

    def test_chirp_is_exact_isometry(self, gauss64):
        out = apply_chirp(gauss64, Fraction(7, 3))
        assert out.norm() == pytest.approx(gauss64.norm(), abs=1e-14)

    def test_easy_chirp_decomposition_exact(self, gauss64):
        # C_beta = D_{1/gamma} C_{beta gamma^2} D_gamma with dyadic gamma
        assert chirp_decomposition_residual(gauss64, Fraction(1, 4), 2) < 1e-15
        assert chirp_decomposition_residual(gauss64, Fraction(3, 16), 4) < 1e-15


class TestChains:
    def test_identity_chain_is_scalar(self, gauss64):
        chain = sl2_factorize(RationalMatrix2.identity())
        out = apply_metaplectic(chain, gauss64)
        assert abs(abs(inner_product(out, gauss64)) - gauss64.norm() ** 2) < 1e-5

    def test_j_chain_matches_fourier(self, box64):
        chain = sl2_factorize(RationalMatrix2(0, 1, -1, 0))
        out = apply_metaplectic(chain, box64)
        ref = fourier_transform(box64, out_support=(out.k_min, out.k_max))
        assert l2_distance(out, ref) < 1e-6

    def test_diag_chain_is_covariant_dilation(self, gauss64):
        # U_{diag(2,1/2)} = D_{1/2} (fixed by the covariance relation):
        # the Gaussian maps to exp(-x^2/4)/sqrt(2) up to a unimodular phase
        S = RationalMatrix2(2, 0, 0, Fraction(1, 2))
        out = apply_metaplectic(sl2_factorize(S), gauss64)
        s = out.samples_per_unit
        x = np.arange(out.k_min * s, out.k_max * s) / s
        target = np.exp(-(x**2) / 4) / math.sqrt(2)
        align = abs(np.vdot(target, out.values)) / (
            np.linalg.norm(target) * np.linalg.norm(out.values)
        )
        assert 1.0 - align < 1e-8

    def test_factorization_checks_step_product(self, monkeypatch):
        # sl2_factorize is the only check that the steps reproduce S, and
        # it must hold under python -O, so it is a raise, not an assert
        monkeypatch.setattr(symplectic, "steps_matrix", lambda steps: RationalMatrix2(0, 1, -1, 0))
        with pytest.raises(ValueError, match="step product does not reproduce"):
            sl2_factorize(RationalMatrix2.identity())

    def test_minimal_sample_multiple(self):
        S = RationalMatrix2(Fraction(3, 2), 0, 0, Fraction(2, 3))
        chain = sl2_factorize(S)
        L = minimal_sample_multiple(chain)
        g = sample_function("gaussian", (-8, 8), 32 * L)
        out = apply_metaplectic(chain, g)  # must not raise
        assert out.norm() == pytest.approx(g.norm(), abs=1e-5)
        with pytest.raises(GridError):
            apply_metaplectic(chain, sample_function("gaussian", (-8, 8), 64))


class TestCovariance:
    def test_identity_matrix(self, gauss64):
        assert covariance_residual(RationalMatrix2.identity(), (1, 0), gauss64) < 1e-12

    def test_fourier_exchanges_shift_and_modulation(self, gauss64):
        assert covariance_residual(RationalMatrix2(0, 1, -1, 0), (1, 0), gauss64) < 1e-5

    def test_chirp_generator(self, gauss64):
        assert covariance_residual(RationalMatrix2(1, 0, 1, 1), (1, 0), gauss64) < 1e-8

    def test_generator_suite_randomized(self, gauss64, rng):
        gens = [
            RationalMatrix2(0, 1, -1, 0),
            RationalMatrix2(2, 0, 0, Fraction(1, 2)),
            RationalMatrix2(1, 0, Fraction(1, 2), 1),
        ]
        single = []
        for S in gens:
            worst = 0.0
            for _ in range(12):
                lam = (
                    Fraction(int(rng.integers(-8, 9)), 2),
                    Fraction(int(rng.integers(-8, 9)), 2),
                )
                worst = max(worst, covariance_residual(S, lam, gauss64))
            single.append(worst)
            assert worst < 1e-5
        # composed chain residual stays within a slack factor of the sum
        comp = gens[0] @ gens[1] @ gens[2]
        r = covariance_residual(comp, (Fraction(1, 2), Fraction(1, 2)), gauss64)
        assert r < 2 * (sum(single) + 1e-5) * len(sl2_factorize(comp))


class TestZakFormulas:
    def test_gaussian_alpha_three_halves(self, gauss64):
        rep = check_zak_formulas(gauss64, Fraction(3, 2), 1)
        assert rep.dev_dilation < 1e-8
        assert rep.dev_chirp < 1e-8
        assert rep.dev_fourier < 1e-4

    def test_alpha_one_degenerates(self, gauss64):
        rep = check_zak_formulas(gauss64, 1, 1)
        assert rep.dev_dilation < 1e-12

    def test_negative_alpha_branch(self, gauss64):
        rep = check_zak_formulas(gauss64, -1, 1, base=32)
        assert rep.dev_dilation < 1e-12
        rep2 = check_zak_formulas(gauss64, Fraction(-3, 2), 1)
        assert rep2.dev_dilation < 1e-12

    def test_incompatible_grid(self, gauss64):
        with pytest.raises(GridError):
            check_zak_formulas(gauss64, Fraction(1, 5), 1)


class TestNormPreservation:
    def test_generator_tolerances(self, gauss64):
        for step in (
            GeneratorStep("J"),
            GeneratorStep("dilation", Fraction(2)),
            GeneratorStep("chirp", Fraction(1, 2)),
        ):
            out = apply_generator(step, gauss64)
            tol = 1e-6 if step.kind == "J" else 1e-14
            assert abs(out.norm() - gauss64.norm()) < tol
