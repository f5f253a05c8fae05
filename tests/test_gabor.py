import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import l2_distance
from zakvmo.core import GridError, ScalarField2D, sample_function, tf_shift
from zakvmo.gabor import (
    RieszFailureError,
    SeparableLattice,
    _qr_sigma,
    coefficient_recovery,
    divisibility_check,
    fertig_residual,
    gram_riesz_oracle,
    invariance_solve,
    m_matrix,
    product_relation_residual,
    projection_residual_oracle,
    resynthesize,
    riesz_bounds,
    shift_matrix,
    zz_matrix,
)
from zakvmo.zak import zak_transform

LAT11 = SeparableLattice(1, 1)
LAT21 = SeparableLattice(2, 1)


def synthetic_mode_field(lat, nx, nw, modes, rng=None):
    """Exact F with F_l = sum c_{sQ+l,n} e^{2 pi i (n P x - s w)} at the
    nodes x = i / nx < 1/P of the period rectangle; shape (Q, nx // P, nw)."""
    P, Q = lat.P, lat.Q
    x = np.arange(nx // P) / nx
    w = np.arange(nw) / nw
    F = np.zeros((Q, nx // P, nw), dtype=complex)
    for (m, n), c in modes.items():
        s, ell = divmod(m, Q)
        F[ell] += c * np.exp(2j * np.pi * (n * P * x[:, None] - s * w[None, :]))
    return F


def unit_square_zz(Z, lat, du=0, de=0):
    """Oracle: A(x - du/nx, w - de/nw) at every node of the unit square, one
    ``Z.at`` read per entry (k, l); shape (nx, nw, P, Q)."""
    n, P, Q = Z.nx, lat.P, lat.Q
    ix, iw = np.arange(n)[:, None] - du, np.arange(Z.nw)[None, :] - de
    return np.stack([
        np.stack([Z.at(ix - k * n // P - ell * n // Q, iw) for ell in range(Q)], axis=-1)
        for k in range(P)
    ], axis=-2)


class TestZZMatrix:
    def test_unit_box_trivial(self, box64):
        Z = zak_transform(box64, 64, 64)
        A = zz_matrix(Z, LAT11)
        assert A.shape == (64, 64, 1, 1)
        assert np.max(np.abs(A - 1.0)) == 0.0

    def test_box_p2_column_wrap(self, box64):
        Z = zak_transform(box64, 64, 64)
        A = zz_matrix(Z, LAT21)
        # row k=1 is Zg(x - 1/2, w): on the period rectangle x < 1/2 the
        # argument wraps and picks up exp(-2 pi i w)
        w = np.arange(64) / 64
        assert A.shape == (32, 64, 2, 1)
        assert np.max(np.abs(A[:, :, 0, 0] - 1.0)) < 1e-14
        assert np.max(np.abs(A[:, :, 1, 0] - np.exp(-2j * np.pi * w)[None, :])) < 1e-14

    @pytest.mark.parametrize("du, de", [(0, 0), (5, -7)])
    @pytest.mark.parametrize("P, Q", [(1, 1), (2, 1), (3, 2), (1, 3)])
    def test_period_rectangle_of_unit_square_oracle(self, P, Q, du, de):
        # zz_matrix is the oracle's rows x < 1/P, and the oracle obeys
        # A(x + 1/P, w) = Pi(w) A(x, w): Pi moves row k to k + 1 and the
        # last row, times e^{2 pi i w}, to row 0, i.e. Pi(w) = R_P(-w)
        n = 48
        Z = zak_transform(sample_function("gaussian", (-8, 8), n), n, n)
        lat = SeparableLattice(P, Q)
        oracle = unit_square_zz(Z, lat, du, de)
        A = zz_matrix(Z, lat, du, de)
        assert A.shape == (n // P, n, P, Q)
        assert np.array_equal(A, oracle[: n // P])
        Pi = shift_matrix(P, -(np.arange(n) - de) / n)
        assert np.max(np.abs(oracle[n // P :] - Pi @ oracle[: n - n // P]), initial=0.0) < 1e-14

    def test_shift_identity_against_r_matrix(self):
        # A(x - l/Q, w) = A(x, w) R(w)^l on nodes
        g = sample_function("gaussian", (-8, 8), 96)
        lat = SeparableLattice(3, 2)
        n = 96
        Z = zak_transform(g, n, 64)
        A = zz_matrix(Z, lat)
        R = shift_matrix(2, np.arange(64) / 64)  # (nw, 2, 2)
        for ell in (1, 2, 3):
            shifted = unit_square_zz(Z, lat, ell * n // lat.Q)[: n // lat.P]
            prod = A @ np.linalg.matrix_power(R, ell)
            assert np.max(np.abs(shifted - prod)) < 1e-12

    def test_grid_compatibility(self, gauss64):
        Z = zak_transform(gauss64, 64, 64)
        with pytest.raises(GridError):
            zz_matrix(Z, SeparableLattice(3, 1))


class TestRieszBounds:
    def test_box_unit_lattice_exact(self, box64):
        rep = riesz_bounds(box64, LAT11, 64, 64)
        assert abs(rep.a_est - 1.0) < 1e-10
        assert abs(rep.b_est - 1.0) < 1e-10
        # direct |Zak| scan oracle: bounds are the extreme |Zg|^2
        Z = zak_transform(box64, 64, 64)
        assert rep.b_est == pytest.approx(np.max(np.abs(Z.values)) ** 2, abs=1e-12)

    def test_box_p2_stacked_unimodular(self, box64):
        rep = riesz_bounds(box64, LAT21, 64, 64)
        assert abs(rep.a_est - 1.0) < 1e-10
        assert abs(rep.b_est - 1.0) < 1e-10

    def test_gaussian_versus_gram_oracle(self, gauss64):
        rep = riesz_bounds(gauss64, LAT21, 64, 64)
        assert 0 < rep.a_est < rep.b_est < np.inf
        a6, b6 = gram_riesz_oracle(gauss64, LAT21, 6)
        # the inner bracket converges ~ C / trunc^2; Richardson over
        # trunc = 4, 6 lands within 5% of the scanned bounds
        a4, b4 = gram_riesz_oracle(gauss64, LAT21, 4)
        a_ex = (36 * a6 - 16 * a4) / 20
        b_ex = (36 * b6 - 16 * b4) / 20
        assert abs(a_ex - rep.a_est) / rep.a_est < 0.05
        assert abs(b_ex - rep.b_est) / rep.b_est < 0.05
        assert abs(b6 - rep.b_est) / rep.b_est < 0.05

    def test_sup_norm_bound(self, gauss64):
        # |Zg| <= sqrt(P B) on the scanned grid
        rep = riesz_bounds(gauss64, LAT21, 64, 64)
        assert rep.zak_sup <= math.sqrt(2 * rep.b_est) + 1e-12

    def test_p_less_than_q_reports_zero_lower(self, gauss64):
        rep = riesz_bounds(gauss64, SeparableLattice(1, 2), 64, 64)
        assert rep.a_est == 0.0
        assert rep.b_est > 0

    def test_zero_generator_rejected(self):
        z = sample_function(("table", np.zeros(64)), (0, 1), 64)
        with pytest.raises(ValueError):
            riesz_bounds(z, LAT11, 64, 64)

    @pytest.mark.parametrize("P, Q", [(1, 1), (2, 1), (3, 1), (3, 2), (4, 3), (1, 2), (2, 3)])
    def test_qr_singular_values_match_svd_oracle(self, rng, P, Q):
        # random complex blocks, blocks with a zero column, rank-one blocks,
        # condition numbers 1 .. 1e8 and an all-zero block, against a full
        # SVD of each block
        n, k = 64, min(P, Q)
        blocks = rng.standard_normal((4 * n, P, Q)) + 1j * rng.standard_normal((4 * n, P, Q))
        blocks[n : 2 * n, :, 0] = 0
        blocks[2 * n : 3 * n] = blocks[2 * n : 3 * n, :, :1] @ blocks[2 * n : 3 * n, :1, :]
        for i, kappa in enumerate(np.logspace(0, 8, n)):
            U, _, Vh = np.linalg.svd(blocks[3 * n + i], full_matrices=False)
            blocks[3 * n + i] = (U * np.logspace(0, -np.log10(kappa), k)) @ Vh
        blocks[-1] = 0
        _, _, smax, smin = _qr_sigma(blocks)
        sv = np.linalg.svd(blocks, compute_uv=False)
        tol = 1e-12 * sv[:, 0]
        assert np.all(np.abs(smax - sv[:, 0]) <= tol)
        assert np.all(np.abs(smin - sv[:, -1]) <= tol)

    def test_two_by_two_cases_match_svd_oracle(self):
        # the closed 2 x 2 formula on [[f, g], [0, h]], which is its own R:
        # f = h = 0, one zero diagonal entry, g below and above the larger
        # diagonal entry, and g so large that max(f, h) / g underflows to zero
        fgh = np.array([
            (0.0, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 3.0, 4.0), (4.0, 3.0, 0.0), (2.0, 0.0, 0.0),
            (2.0, 0.0, 3.0), (5.0, 3.0, 2.0), (3.0, 5.0, 2.0), (2.0, 2.0, 2.0), (1e-8, 1.0, 1e-8),
            (1e-300, 1e300, 2e-300),
        ])
        blocks = np.array([[[f, g], [0.0, h]] for f, g, h in fgh], dtype=complex)
        _, R, smax, smin = _qr_sigma(blocks)
        assert np.array_equal(R, blocks)
        sv = np.linalg.svd(blocks, compute_uv=False)
        tol = 1e-15 * sv[:, 0]
        assert np.all(np.abs(smax - sv[:, 0]) <= tol)
        assert np.all(np.abs(smin - sv[:, 1]) <= tol)

    def test_bounded_inequality_random_vectors(self, gauss64, rng):
        # P A ||xi||^2 <= ||A xi||^2 <= P B ||xi||^2 at random nodes
        rep = riesz_bounds(gauss64, LAT21, 64, 64)
        Z = zak_transform(gauss64, 64, 64)
        A = zz_matrix(Z, LAT21)  # (32, 64, 2, 1)
        for _ in range(64):
            i = rng.integers(A.shape[0])
            j = rng.integers(A.shape[1])
            xi = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            xi /= np.linalg.norm(xi)
            v = A[i, j] @ xi
            n2 = float(np.linalg.norm(v) ** 2)
            assert 2 * rep.a_est - 1e-9 <= n2 <= 2 * rep.b_est + 1e-9


class TestGramOracle:
    def test_orthonormal_box(self, box64):
        a, b = gram_riesz_oracle(box64, LAT11, 3)
        assert a == pytest.approx(1.0, abs=1e-10)
        assert b == pytest.approx(1.0, abs=1e-10)

    def test_brackets_nested(self, gauss64):
        a4, b4 = gram_riesz_oracle(gauss64, LAT21, 4)
        a6, b6 = gram_riesz_oracle(gauss64, LAT21, 6)
        assert a6 <= a4 + 1e-12
        assert b4 <= b6 + 1e-12

    def test_non_riesz_two_cell_box(self):
        # Zg = 1 + exp(-2 pi i w) vanishes at w = 1/2: lambda_min -> 0
        f = sample_function(("box", 0.0, 2.0), (0, 2), 64)
        a3, _ = gram_riesz_oracle(f, LAT11, 3)
        a6, _ = gram_riesz_oracle(f, LAT11, 6)
        assert a6 < a3
        assert a6 < 0.1

    def test_alias_guard(self, gauss64):
        with pytest.raises(GridError):
            gram_riesz_oracle(gauss64, LAT21, 16)


class TestInvarianceSolve:
    def test_lattice_point_gives_delta(self, box64):
        rep = invariance_solve(riesz_bounds(box64, LAT11, 64, 64), 1, 0)
        assert rep.max_residual < 1e-10
        assert rep.verdict == "invariant"
        assert set(rep.coeffs) == {(1, 0)}
        assert rep.coeffs[(1, 0)] == pytest.approx(1.0, abs=1e-10)
        assert rep.parseval_tail < 1e-10

    def test_lattice_points_random(self, gauss64, rng):
        for _ in range(4):
            m = int(rng.integers(-2, 3))
            n = int(rng.integers(-2, 3))
            if (m, n) == (0, 0):
                continue
            rep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), m, 2 * n)
            assert rep.max_residual < 1e-10
            assert set(rep.coeffs) == {(m, n)}
            assert rep.parseval_tail < 1e-10
        # Q = 2 on (1/2)Z x 3Z, where a_est ~ 3.4e-8: the lattice point
        # (m/2, 3n) still gives the single coefficient (m, n)
        for S in (48, 84):
            g = sample_function("gaussian", (-8, 8), S)
            riesz = riesz_bounds(g, SeparableLattice(3, 2), S, S)
            for m, n in ((1, 0), (-1, 1), (3, -1)):
                rep = invariance_solve(riesz, Fraction(m, 2), 3 * n)
                assert rep.verdict == "invariant"
                assert set(rep.coeffs) == {(m, n)}
                assert rep.coeffs[(m, n)] == pytest.approx(1.0, abs=1e-8)
                assert rep.parseval_tail < 1e-10

    def test_box_half_shift_closed_form(self):
        S = 32
        box = sample_function("box", (0, 1), S)
        rep = invariance_solve(riesz_bounds(box, LAT11, S, S), Fraction(1, 2), 0)
        assert rep.max_residual < 1e-8
        assert rep.verdict == "invariant"
        F = rep.f_field[0]
        w = np.arange(S) / S
        target = np.where(
            (np.arange(S) / S)[:, None] < 0.5, np.exp(-2j * np.pi * w)[None, :], 1.0
        )
        assert np.max(np.abs(F - target)) < 1e-8

    def test_box_resynthesis(self):
        S = 32
        box = sample_function("box", (0, 1), S)
        rep = invariance_solve(riesz_bounds(box, LAT11, S, S), Fraction(1, 2), 0)
        resyn = resynthesize(box, LAT11, rep.coeffs)
        target = tf_shift(box, (0.5, 0.0))
        assert l2_distance(resyn, target) < 1e-6

    def test_gaussian_not_invariant(self, gauss64):
        rep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), Fraction(1, 2), 0)
        assert rep.max_residual > 0.1
        assert rep.verdict == "not-invariant"
        assert rep.coeffs == {}

    def test_projection_oracle_agrees(self, gauss64):
        # independent time-domain least squares: the target keeps a
        # substantial distance from the truncated span
        res = projection_residual_oracle(gauss64, LAT21, Fraction(1, 2), 0, 8)
        assert res > 0.05

    def test_irrational_rejected(self, box64):
        with pytest.raises(TypeError):
            invariance_solve(riesz_bounds(box64, LAT11, 64, 64), 0.4142135, 0)

    def test_riesz_failure_reported(self):
        f = sample_function(("box", 0.0, 2.0), (0, 2), 64)
        with pytest.raises(RieszFailureError):
            invariance_solve(riesz_bounds(f, LAT11, 64, 64), Fraction(1, 2), 0)

    def test_f_field_is_exactly_periodic(self, gauss64):
        # f_field holds x < 1/2 only; a least-squares solve at the nodes
        # x + 1/2, read straight from the Zak field, gives it back
        rep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), Fraction(1, 2), 0)
        assert rep.f_field.shape == (1, 32, 64)
        Z = zak_transform(gauss64, 64, 64)
        ix = np.arange(32, 64)[:, None]
        iw = np.arange(64)[None, :]
        A = np.array([Z.at(ix - 32 * k, iw) for k in range(2)])  # (2, 32, 64)
        b = np.array([Z.at(ix - 32 - 32 * k, iw) for k in range(2)])
        F = np.sum(A.conj() * b, axis=0) / np.sum(np.abs(A) ** 2, axis=0)
        assert np.max(np.abs(F - rep.f_field[0])) < 1e-12

    @pytest.mark.parametrize("recipe, support", [("box_sine", (0, 1)), ("gaussian", (-8, 8))])
    @pytest.mark.parametrize("P, Q", [(2, 1), (3, 2)])
    @pytest.mark.parametrize("u, eta", [("1/3", 0), ("1/4", "1/4"), (0, "1/2")])
    def test_period_rectangle_solve_matches_full_square_lstsq(self, recipe, support, P, Q, u, eta):
        # independent oracle: A and the right-hand side read straight from
        # the Zak field at every node of the unit square, one lstsq per node
        S = 48
        g = sample_function(recipe, support, S)
        lat = SeparableLattice(P, Q)
        riesz = riesz_bounds(g, lat, S, S)
        rep = invariance_solve(riesz, u, eta)
        Z = zak_transform(g, S, S)
        u, eta = Fraction(u), Fraction(eta)
        du, de = int(u * S), int(eta * S)
        ix = np.arange(S)[:, None]
        iw = np.arange(S)[None, :]
        x = np.arange(S) / S
        A = np.array([[Z.at(ix - k * S // P - ell * S // Q, iw) for ell in range(Q)] for k in range(P)])
        b = np.array([
            np.exp(2j * np.pi * float(eta) * (x[:, None] - k / P)) * Z.at(ix - du - k * S // P, iw - de)
            for k in range(P)
        ])
        F = np.empty((Q, S, S), dtype=complex)
        res = np.empty((S, S))
        for i in range(S):
            for j in range(S):
                F[:, i, j] = np.linalg.lstsq(A[:, :, i, j], b[:, i, j], rcond=None)[0]
                res[i, j] = np.linalg.norm(A[:, :, i, j] @ F[:, i, j] - b[:, i, j])
        oracle = res.max() / np.linalg.norm(b, axis=0).max()
        assert rep.max_residual == pytest.approx(oracle, rel=1e-9)
        if recipe == "box_sine":
            assert riesz.a_est > 1 / 6 - 1e-9  # well conditioned: F itself is stable
            assert np.max(np.abs(F - np.tile(rep.f_field, (1, P, 1)))) < 1e-10


class TestCoefficientRecovery:
    def test_constant_field(self):
        F = synthetic_mode_field(LAT11, 32, 32, {(0, 0): 1.0})
        rec = coefficient_recovery(F)
        assert set(rec.coeffs) == {(0, 0)}
        assert rec.coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
        assert rec.parseval_tail < 1e-12

    def test_single_mode(self):
        # F_0 = e^{2 pi i (P x - w)} corresponds to c_{Q*1+0, 1}
        lat = SeparableLattice(2, 3)
        F = synthetic_mode_field(lat, 48, 32, {(3, 1): 1.0})
        rec = coefficient_recovery(F)
        assert set(rec.coeffs) == {(3, 1)}
        assert rec.coeffs[(3, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_random_modes_roundtrip(self, rng):
        lat = SeparableLattice(3, 2)
        modes = {}
        for _ in range(12):
            m = int(rng.integers(-10, 11))
            n = int(rng.integers(-6, 7))
            modes[(m, n)] = complex(rng.standard_normal(), rng.standard_normal())
        F = synthetic_mode_field(lat, 96, 64, modes)
        rec = coefficient_recovery(F)
        assert set(rec.coeffs) == set(modes)
        for k, v in modes.items():
            assert rec.coeffs[k] == pytest.approx(v, abs=1e-10)
        assert rec.parseval_tail < 1e-12


class TestMMatrix:
    def test_q1_is_f_itself(self):
        S = 32
        box = sample_function("box", (0, 1), S)
        rep = invariance_solve(riesz_bounds(box, LAT11, S, S), Fraction(1, 2), 0)
        res = m_matrix(rep.f_field, LAT11, 0)
        assert np.max(np.abs(res.field[:, :, 0, 0] - rep.f_field[0])) == 0.0
        assert res.conjugation_residual < 1e-12
        assert res.plain_conjugation_residual < 1e-12
        assert fertig_residual(rep.riesz, Fraction(1, 2), 0, res) < 1e-10

    def test_synthetic_exact_modes_eta_one(self, rng):
        # with eta = 1 the printed conjugation constant exp(-2 pi i / Q)
        # applies verbatim
        lat = SeparableLattice(3, 2)
        modes = {(int(rng.integers(-6, 7)), int(rng.integers(-4, 5))): complex(rng.standard_normal(), rng.standard_normal()) for _ in range(8)}
        F = synthetic_mode_field(lat, 96, 64, modes)
        res = m_matrix(F, lat, 1)
        assert res.plain_conjugation_residual < 1e-12
        assert res.conjugation_residual < 1e-12
        assert res.det_periodicity < 1e-10

    def test_synthetic_exact_modes_fractional_eta(self, rng):
        # fractional eta needs the corrected right factor; the determinant
        # stays 1/Q-periodic either way
        lat = SeparableLattice(1, 3)
        modes = {(int(rng.integers(-6, 7)), int(rng.integers(-4, 5))): complex(rng.standard_normal(), rng.standard_normal()) for _ in range(6)}
        F = synthetic_mode_field(lat, 96, 64, modes)
        res = m_matrix(F, lat, Fraction(1, 2))
        assert res.conjugation_residual < 1e-12
        assert res.det_periodicity < 1e-10
        assert res.plain_conjugation_residual > 1e-3  # printed constant fails here

    def test_fertig_on_gaussian_lattice_point(self, gauss64):
        # (u, eta) = (1, 2) is in Z x 2Z: the transfer identity holds with
        # the F field solved by least squares
        rep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), 1, 2)
        res = m_matrix(rep.f_field, LAT21, 2)
        assert fertig_residual(rep.riesz, 1, 2, res) < 1e-9

    @pytest.mark.parametrize(
        "recipe, support, P, Q, u, eta, expected",
        [
            ("gaussian", (-8, 8), 2, 1, Fraction(1, 2), 0, 0.3006258),
            ("gaussian", (-8, 8), 3, 2, Fraction(1, 3), Fraction(1, 4), 6.879140e-3),
            ("box_sine", (0, 1), 2, 1, Fraction(1, 2), 0, 1.0),
            ("box_sine", (0, 1), 3, 2, Fraction(1, 3), Fraction(1, 4), 0.4850158),
        ],
    )
    def test_fertig_on_rectangle_matches_unit_square(self, recipe, support, P, Q, u, eta, expected):
        # off the lattice the identity fails; its sup over the period
        # rectangle is the sup over the unit square, since the difference of
        # its sides obeys X(x + 1/P) = Pi(w - eta) X(x), Pi a monomial unitary
        S = 48
        lat = SeparableLattice(P, Q)
        riesz = riesz_bounds(sample_function(recipe, support, S), lat, S, S)
        M = m_matrix(invariance_solve(riesz, u, eta).f_field, lat, eta)
        A = unit_square_zz(riesz.zak, lat)
        A_shift = unit_square_zz(riesz.zak, lat, int(u * S), int(eta * S))
        x = np.arange(S) / S
        rhs = (
            np.exp(-2j * np.pi * float(eta) * x)[:, None, None, None]
            * np.exp(2j * np.pi * float(eta) * np.arange(P) / P)[:, None]
            * (A @ np.tile(M.field, (P, 1, 1, 1)))  # M is 1/P-periodic
        )
        reference = np.max(np.abs(A_shift - rhs))
        assert reference == pytest.approx(expected, rel=1e-6)
        assert fertig_residual(riesz, u, eta, M) == pytest.approx(reference, rel=1e-12)


class TestProductRelation:
    def test_pure_mode(self):
        n = 64
        x = np.arange(n) / n
        H = ScalarField2D(np.exp(2j * np.pi * 2 * x)[:, None] * np.ones((1, n)), "periodic")
        assert product_relation_residual(H, Fraction(1, 2), 0, 2, 4, 0) < 1e-12

    def test_constant_one(self):
        n = 32
        H = ScalarField2D(np.ones((n, n), dtype=complex), "periodic")
        assert product_relation_residual(H, Fraction(1, 4), Fraction(1, 4), 4, 0, 0) < 1e-14

    def test_box_demo_product(self):
        S = 32
        box = sample_function("box", (0, 1), S)
        rep = invariance_solve(riesz_bounds(box, LAT11, S, S), Fraction(1, 2), 0)
        H = ScalarField2D(rep.f_field[0], "periodic")
        assert product_relation_residual(H, Fraction(1, 2), 0, 2, 0, -1) < 1e-10

    def test_quasiperiodic_zak_field(self):
        # the box's Zak field is 1 on [0,1)^2, and its quasi-periodic
        # extension reads H(x + n, w) = e^{2 pi i n w}: three steps of u = 1
        # multiply to e^{2 pi i 3 w}, which a periodic read misses
        S = 32
        H = zak_transform(sample_function("box", (0, 1), S), S, S)
        assert product_relation_residual(H, 1, 0, 3, 0, 3) < 1e-12
        periodic = ScalarField2D(H.values, "periodic")
        assert product_relation_residual(periodic, 1, 0, 3, 0, 3) > 1.9

    def test_shift_must_be_rational_multiple(self):
        n = 32
        H = ScalarField2D(np.ones((n, n), dtype=complex), "periodic")
        with pytest.raises(ValueError):
            product_relation_residual(H, Fraction(1, 3), 0, 2, 0, 0)


class TestDivisibility:
    def test_examples(self):
        assert divisibility_check(1, 1, 2, 4, 0) is True
        assert divisibility_check(1, 1, 2, 0, -1) is False
        assert divisibility_check(2, 1, 4, 8, 4) is True

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            divisibility_check(0, 1, 2, 4, 0)


class TestTelescoping:
    def test_box_demo_iteration(self):
        # iterating the transfer identity N times reproduces the
        # accumulated phase e^{2 pi i eta (N x + N(N-1) u / 2)} with
        # D_P^{-N} = I whenever P | N eta
        S = 32
        box = sample_function("box", (0, 1), S)
        u, eta, N = Fraction(1, 2), 0, 2
        rep = invariance_solve(riesz_bounds(box, LAT11, S, S), u, eta)
        Z = zak_transform(box, S, S)
        A = zz_matrix(Z, LAT11)[:, :, 0, 0]
        M = m_matrix(rep.f_field, LAT11, eta).field[:, :, 0, 0]
        du = int(u * S)
        prod = np.ones_like(M)
        for n in range(1, N + 1):
            prod = np.roll(np.roll(M, -n * du, axis=0), 0, axis=1) * prod
        A_shift = Z.at((np.arange(S) + N * du)[:, None], np.arange(S)[None, :])
        x = np.arange(S) / S
        phase = np.exp(2j * np.pi * float(eta) * (N * x + N * (N - 1) * float(u) / 2))
        rhs = phase[:, None] * A_shift * prod
        assert np.max(np.abs(A - rhs)) < 1e-10
