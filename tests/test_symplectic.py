from fractions import Fraction

import pytest

from zakvmo.symplectic import (
    RationalMatrix2,
    as_fraction,
    lattice_density,
    lattice_reduce,
    random_sl2,
    sl2_factorize,
    steps_matrix,
)

I2 = RationalMatrix2.identity()
J = RationalMatrix2(0, 1, -1, 0)


class TestRationalBasics:
    def test_as_fraction_parses_strings(self):
        assert as_fraction("3/6") == Fraction(1, 2)
        assert as_fraction(4) == 4
        assert as_fraction(2.0) == 2

    def test_inexact_float_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.3333)

    def test_normalization_idempotent(self):
        m = RationalMatrix2("2/4", 0, 0, "6/3")
        assert (m.a, m.d) == (Fraction(1, 2), Fraction(2))

    def test_exact_arithmetic_roundtrip(self, rng):
        for _ in range(50):
            m = random_sl2(rng)
            assert (m @ m.inverse()) == I2


class TestLatticeDensity:
    def test_identity(self):
        assert lattice_density(I2) == 1

    def test_half_dilation(self):
        assert lattice_density(RationalMatrix2(Fraction(1, 2), 0, 0, 1)) == 2

    def test_shear(self):
        assert lattice_density(RationalMatrix2(1, 1, 0, 1)) == 1

    def test_singular_rejected(self):
        with pytest.raises(ZeroDivisionError):
            lattice_density(RationalMatrix2(1, 1, 1, 1))


class TestLatticeReduce:
    def test_half_integer_lattice(self):
        red = lattice_reduce(RationalMatrix2(Fraction(1, 2), 0, 0, 1))
        assert (red.P, red.Q) == (1, 2)
        assert red.B == I2

    def test_shear_inverse(self):
        A = RationalMatrix2(1, 1, 0, 1)
        red = lattice_reduce(A)
        assert (red.P, red.Q) == (1, 1)
        assert red.B == A.inverse()

    def test_integer_times_two(self):
        red = lattice_reduce(RationalMatrix2(1, 0, 0, 2))
        assert (red.P, red.Q) == (2, 1)
        assert red.B == I2

    def test_negative_determinant_flips_column(self):
        A = RationalMatrix2(1, 0, 0, -2)
        red = lattice_reduce(A)
        assert red.column_flipped
        assert (red.P, red.Q) == (2, 1)
        assert red.B.det() == 1

    def test_reduction_properties_random(self, rng):
        diag = RationalMatrix2
        for _ in range(200):
            A = random_sl2(rng, max_entry=9)
            # random GL(2,Q): rescale a random SL matrix by a rational factor
            t = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            A = RationalMatrix2(A.a * t, A.b, A.c * t, A.d)
            if A.det() == 0:
                continue
            red = lattice_reduce(A)
            assert red.B.det() == 1
            det = abs(A.det())
            assert (red.P, red.Q) == (det.numerator, det.denominator)
            # B A Z^2 = (1/Q) Z x P Z: check on the generator images
            Anorm = A if not red.column_flipped else RationalMatrix2(A.a, -A.b, A.c, -A.d)
            BA = red.B @ Anorm
            for col in ((BA.a, BA.c), (BA.b, BA.d)):
                assert (col[0] * red.Q).denominator == 1
                assert (col[1] / red.P).denominator == 1
            assert lattice_density(BA) == Fraction(red.Q, red.P)

    def test_density_invariant_under_unimodular(self, rng):
        for _ in range(100):
            A = random_sl2(rng, max_entry=9)
            U = random_sl2(rng, max_entry=5)
            assert lattice_density(A @ U) == lattice_density(A)


class TestFactorization:
    def test_identity_steps(self):
        steps = sl2_factorize(I2)
        kinds = [s.kind for s in steps]
        assert kinds == ["dilation", "J", "chirp", "J", "chirp"]
        assert steps[0].param == -1
        assert steps_matrix(steps) == I2

    def test_j_uses_zero_a_branch(self):
        steps = sl2_factorize(J)
        assert [s.kind for s in steps] == ["dilation", "J", "chirp"]
        assert steps[0].param == 1
        assert steps_matrix(steps) == J

    def test_diagonal(self):
        S = RationalMatrix2(2, 0, 0, Fraction(1, 2))
        assert steps_matrix(sl2_factorize(S)) == S

    def test_det_must_be_one(self):
        with pytest.raises(ValueError):
            sl2_factorize(RationalMatrix2(2, 0, 0, 1))

    def test_thousand_random_exact(self, rng):
        # exact product reproduction, zero tolerance
        for _ in range(1000):
            S = random_sl2(rng)
            assert steps_matrix(sl2_factorize(S)) == S
