"""Acceptance gate: every exit criterion with its stated tolerance.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v`` to get a per-criterion report.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import l2_distance
from zakvmo.cli import main as cli_main
from zakvmo.core import sample_function, tf_shift
from zakvmo.gabor import (
    SeparableLattice,
    divisibility_check,
    fertig_residual,
    gram_riesz_oracle,
    invariance_solve,
    m_matrix,
    product_relation_residual,
    resynthesize,
    riesz_bounds,
    zz_matrix,
)
from zakvmo.metaplectic import (
    MetaplecticChain,
    check_zak_formulas,
    chirp_decomposition_residual,
    covariance_residual,
)
from zakvmo.symplectic import RationalMatrix2, lattice_reduce, random_sl2, sl2_factorize, steps_matrix
from zakvmo.uncertainty import feichtinger_norm_estimate, gagliardo_seminorm, uncertainty_product, weighted_moment
from zakvmo.core import ScalarField2D
from zakvmo.vmo import check_inequalities, mean, mean_function, mean_oscillation, random_trig_field, remark_cube, vmo_decay_profile
from zakvmo.zak import check_zak_identities, zak_l2_norm, zak_transform

LAT11 = SeparableLattice(1, 1)
LAT21 = SeparableLattice(2, 1)


def test_c01_zak_unitarity():
    for name in ("box", "box_sine", "gaussian"):
        support = (-8, 8) if name == "gaussian" else (0, 1)
        f = sample_function(name, support, 64)
        t0 = time.perf_counter()
        Z = zak_transform(f, 64, 64)
        gap = abs(zak_l2_norm(Z) - f.norm())
        dt = time.perf_counter() - t0
        assert gap < 1e-10, f"{name}: unitarity gap {gap}"
        assert dt < 1.0, f"{name}: took {dt:.2f}s"
    print("PASS criterion 1: Zak unitarity < 1e-10 for box, box_sine, gaussian")


def test_c02_zak_identities(gauss64):
    rep = check_zak_identities(gauss64, zak_transform(gauss64, 64, 64))
    assert rep.dev_quasiperiod < 1e-8
    assert rep.dev_shift < 1e-8
    assert rep.dev_integer_shift < 1e-8
    assert rep.dev_fourier < 1e-4
    print(
        "PASS criterion 2: identities (a)-(c) < 1e-8, (d) < 1e-4 "
        f"(got {rep.dev_quasiperiod:.1e}, {rep.dev_shift:.1e}, "
        f"{rep.dev_integer_shift:.1e}, {rep.dev_fourier:.1e})"
    )


def test_c03_oscillation_witness(box_sine64):
    f = sample_function("box_sine", (0, 1), 2048)
    F = zak_transform(f, 2048, 64)
    cube = remark_cube(3, 0.25)
    mu = mean(F, cube)
    target = np.sinc(1 / 8) * np.sinc(3 / 4)
    assert abs(mu - target) < 1e-6
    mq = mean_oscillation(F, cube)
    assert mq >= 1 / math.pi - 1e-3
    # the same field on a bounded small-k window has a decaying profile
    F64 = zak_transform(box_sine64, 64, 64)
    eps = [(1 / 4) ** 2 * 1.01, (1 / 8) ** 2 * 1.01, (1 / 16) ** 2 * 1.01, (1 / 32) ** 2 * 1.01]
    rep = vmo_decay_profile(F64, (0.0, 1.0, 0.0, 1.0), eps)
    assert rep.verdict == "vmo-consistent"
    assert all(b < a for a, b in zip(rep.s_values, rep.s_values[1:]))
    print(
        f"PASS criterion 3: witness mean = sinc(1/8) sinc(3/4) +- 1e-6, "
        f"M_Q = {mq:.3f} >= 1/pi, near-window profile decays"
    )


def test_c04_sinc_mean_identity():
    from zakvmo.vmo import field_from_function

    for M1, M2, r in ((1, 0, 0.25), (2, 3, 0.125), (0, 5, 1 / 16)):
        F = field_from_function(
            lambda x, w: np.exp(2j * np.pi * (M1 * x + M2 * w)), 64, 64, "periodic"
        )
        out = mean_function(F, r)
        target = np.sinc(M1 * r) * np.sinc(M2 * r) * F.values
        dev = np.max(np.abs(out.values - target))
        assert dev < 1e-8, f"(M1,M2,r)=({M1},{M2},{r}): {dev}"
    print("PASS criterion 4: sliding-mean sinc identity < 1e-8 on all three mode triples")


def test_c05_riesz_bounds(box64, gauss64):
    t0 = time.perf_counter()
    rep_box = riesz_bounds(box64, LAT11, 64, 64)
    assert abs(rep_box.a_est - 1.0) < 1e-10
    assert abs(rep_box.b_est - 1.0) < 1e-10
    rep = riesz_bounds(gauss64, LAT21, 64, 64)
    a4, b4 = gram_riesz_oracle(gauss64, LAT21, 4)
    a6, b6 = gram_riesz_oracle(gauss64, LAT21, 6)
    # the finite Gram bracket sits inside [A, B] and tightens like C/t^2;
    # the Richardson extrapolation of the oracle at trunc = 4, 6 must agree
    # with the scan within 5% (the raw trunc-6 lower eigenvalue is ~25%
    # high by that same convergence law)
    assert rep.a_est <= a6 + 1e-9 and b6 <= rep.b_est + 1e-9
    assert a6 <= a4 and b4 <= b6
    a_ex = (36 * a6 - 16 * a4) / 20
    b_ex = (36 * b6 - 16 * b4) / 20
    assert abs(a_ex - rep.a_est) / rep.a_est < 0.05
    assert abs(b_ex - rep.b_est) / rep.b_est < 0.05
    assert abs(b6 - rep.b_est) / rep.b_est < 0.05
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(
        f"PASS criterion 5: box bounds exact, gaussian scan ({rep.a_est:.4f}, "
        f"{rep.b_est:.4f}) vs extrapolated oracle ({a_ex:.4f}, {b_ex:.4f}) "
        f"within 5% in {dt:.1f}s"
    )


def test_c06_bounded_inequality_spot_check(gauss64, rng):
    rep = riesz_bounds(gauss64, LAT21, 64, 64)
    A = zz_matrix(zak_transform(gauss64, 64, 64), LAT21)
    P = 2
    for _ in range(64):
        i = rng.integers(A.shape[0])
        j = rng.integers(A.shape[1])
        xi = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        xi /= np.linalg.norm(xi)
        n2 = float(np.linalg.norm(A[i, j] @ xi) ** 2)
        assert P * rep.a_est - 1e-9 <= n2 <= P * rep.b_est + 1e-9
    print("PASS criterion 6: P A <= ||A xi||^2 <= P B at 64 random nodes and vectors")


def test_c07_invariance_pipeline(gauss64):
    S = 32
    box = sample_function("box", (0, 1), S)
    rep = invariance_solve(riesz_bounds(box, LAT11, S, S), Fraction(1, 2), 0)
    assert rep.max_residual < 1e-8
    F = rep.f_field[0]
    w = np.arange(S) / S
    closed = np.where((np.arange(S) / S)[:, None] < 0.5, np.exp(-2j * np.pi * w)[None, :], 1.0)
    assert np.max(np.abs(F - closed)) < 1e-8
    resyn = resynthesize(box, LAT11, rep.coeffs)
    assert l2_distance(resyn, tf_shift(box, (0.5, 0.0))) < 1e-6

    grep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), Fraction(1, 2), 0)
    assert grep.max_residual > 0.1

    for m, n in ((1, 0), (0, 1), (-2, 1)):
        lrep = invariance_solve(riesz_bounds(gauss64, LAT21, 64, 64), m, 2 * n)
        assert lrep.max_residual < 1e-10
        assert set(lrep.coeffs) == {(m, n)}
        assert lrep.parseval_tail < 1e-10
    print(
        "PASS criterion 7: box expansion exact (resynthesis < 1e-6), gaussian "
        f"residual {grep.max_residual:.3f} > 0.1, lattice points give deltas"
    )


def test_c08_transfer_matrix_identities(rng):
    S = 32
    box = sample_function("box", (0, 1), S)
    u = Fraction(1, 2)
    rep = invariance_solve(riesz_bounds(box, LAT11, S, S), u, 0)
    mres = m_matrix(rep.f_field, LAT11, 0)
    assert fertig_residual(rep.riesz, u, 0, mres) < 1e-10
    assert mres.plain_conjugation_residual < 1e-10
    assert mres.conjugation_residual < 1e-10

    # synthetic exact-mode field at eta = 1 (where the printed conjugation
    # constant applies verbatim)
    from test_gabor import synthetic_mode_field

    lat = SeparableLattice(3, 2)
    modes = {
        (int(rng.integers(-6, 7)), int(rng.integers(-4, 5))): complex(*rng.standard_normal(2))
        for _ in range(8)
    }
    Fsyn = synthetic_mode_field(lat, 96, 64, modes)
    res = m_matrix(Fsyn, lat, 1)
    assert res.plain_conjugation_residual < 1e-10
    assert res.det_periodicity < 1e-10

    H = ScalarField2D(rep.f_field[0], "periodic")
    assert product_relation_residual(H, u, 0, 2, 0, -1) < 1e-10
    assert divisibility_check(1, 1, 2, 0, -1) is False
    for m, n in ((1, 0), (2, -1), (0, 3)):
        # in-lattice controls: (u, eta) = (m, n) has N = 1, (M1, M2) = (-n, -m)
        assert divisibility_check(1, 1, 1, -n, -m) is True
    print("PASS criterion 8: transfer-matrix identities < 1e-10, product relation "
          "(N, M1, M2) = (2, 0, -1) exact, divisibility certificates correct")


def test_c09_vmo_inequality_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    F = random_trig_field(rng, 96, 96, degree=3)
    G = random_trig_field(rng, 96, 96, degree=3)
    rep1 = check_inequalities(F, G, (0, 1, 0, 1), 0.01, n_cases=1000, rng=rng)
    F2 = random_trig_field(rng, 96, 96, degree=3, scale=0.2, offset=2.0)
    rep2 = check_inequalities(F2, G, (0, 1, 0, 1), 0.01, n_cases=1000, rng=rng)
    for rep in (rep1, rep2):
        for name, r in rep.results.items():
            if r.precondition_ok:
                assert r.max_ratio <= 1.0 + 1e-3, f"{name}: {r.max_ratio}"
    assert rep2.results["mean_lower_bound"].precondition_ok
    assert rep2.results["inverse_osc_sup"].precondition_ok
    counts = {n: rep1.results[n].cases + rep2.results[n].cases for n in rep1.results}
    assert all(c >= 1000 for c in counts.values()), counts
    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"PASS criterion 9: all eight oscillation inequalities hold at ratio <= 1 + 1e-3 "
          f"over >= 1000 cases each in {dt:.1f}s")


def test_c10_exact_factorization(rng):
    for _ in range(1000):
        S = random_sl2(rng)
        assert steps_matrix(sl2_factorize(S)) == S  # zero tolerance
    for _ in range(1000):
        A = random_sl2(rng, max_entry=9)
        t = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        A = RationalMatrix2(A.a * t, A.b, A.c * t, A.d)
        if A.det() == 0:
            continue
        red = lattice_reduce(A)
        det = abs(A.det())
        assert red.B.det() == 1
        assert (red.P, red.Q) == (det.numerator, det.denominator)
    print("PASS criterion 10: 1000 exact SL(2,Q) factorizations and reductions")


def test_c11_metaplectic(gauss64, rng):
    gens = [
        RationalMatrix2(0, 1, -1, 0),
        RationalMatrix2(2, 0, 0, Fraction(1, 2)),
        RationalMatrix2(1, 0, Fraction(1, 2), 1),
    ]
    worst = 0.0
    for Sm in gens:
        chain = MetaplecticChain.for_matrix(Sm)
        for _ in range(8):
            lam = (Fraction(int(rng.integers(-8, 9)), 2), Fraction(int(rng.integers(-8, 9)), 2))
            worst = max(worst, covariance_residual(chain, lam, gauss64))
    assert worst < 1e-5
    assert chirp_decomposition_residual(gauss64, Fraction(1, 4), 2) < 1e-15
    rep = check_zak_formulas(gauss64, Fraction(3, 2), 1)
    assert rep.dev_dilation < 1e-8
    assert rep.dev_chirp < 1e-8
    assert rep.dev_fourier < 1e-4
    print(
        f"PASS criterion 11: covariance residual {worst:.1e} < 1e-5, chirp "
        f"decomposition exact on-grid, Zak formulas within tolerance"
    )


def test_c12_uncertainty(gauss64):
    sw = weighted_moment(gauss64, (2.0, 0.0), [1, 2, 4, 6, 8])
    assert sw.converged
    assert abs(sw.value - 0.25 * math.sqrt(math.pi / 2)) < 1e-6
    t_sw, f_sw = uncertainty_product(gauss64, 2, 2, 0.0, 0.0, [1, 2, 4, 6, 8])
    a = 2 * math.pi**2
    assert abs(f_sw.value - math.pi / (2 * a) * math.sqrt(math.pi / a)) < 1e-6

    box = sample_function("box", (0, 1), 512)
    _, fb = uncertainty_product(box, 2, 2, 0.0, 0.0, [2, 4, 8, 16, 32, 64])
    assert not fb.converged and fb.growth_shape == "linear"
    box128 = sample_function("box", (0, 1), 128)
    gag = gagliardo_seminorm(box128, 0.5, [2, 4, 8])
    assert not gag.converged and gag.growth_shape == "log"
    assert feichtinger_norm_estimate(gauss64).converged
    assert not feichtinger_norm_estimate(box128, radii=(2, 4, 8, 16, 32)).converged
    print("PASS criterion 12: gaussian moments analytic to 1e-6; box divergences "
          "show the linear / log growth shapes; algebra-norm verdicts correct")


def test_c13_reproducibility(tmp_path):
    cfg = {
        "recipe": "gaussian", "support": [-8, 8], "S": 64, "nx": 64, "nw": 64,
        "lattice": {"P": 2, "Q": 1}, "shift": ["1/2", "0"], "tol": 1e-6,
        "eps_list": [0.0625, 0.015625, 0.00390625],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["--config", str(path), "--out", str(out1), "--seed", "5", "analyze"]) == 0
    assert cli_main(["--config", str(path), "--out", str(out2), "--seed", "5", "analyze"]) == 0
    import os

    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    print("PASS criterion 13: identical config and seed give byte-identical outputs")
