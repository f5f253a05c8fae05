import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import lattice_gram
from zakvmo import cli, gabor, metaplectic, zak
from zakvmo.cli import (
    COMMANDS, DEFAULT_CONFIG, ConfigError, _parser, build_generator, build_system, config_hash,
    config_int, load_config, main, write_csv,
)

# The lattice generators of the perfbench transport workload.
MATRICES = (["2", "1", "0", "1"], ["2", "0", "1", "1"], ["3", "1", "1", "1"], ["1", "1", "-1", "1"])


def write_config(tmp_path, **overrides):
    cfg = {
        "recipe": "gaussian",
        "support": [-8, 8],
        "S": 64,
        "nx": 64,
        "nw": 64,
        "lattice": {"P": 2, "Q": 1},
        "shift": ["1/2", "0"],
        "tol": 1e-6,
        "eps_list": [0.0625, 0.015625, 0.00390625],
    }
    if "matrix" in overrides:  # a matrix lattice excludes the default lattice
        del cfg["lattice"]
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    """(config line, header, rows of floats) of a CSV the CLI wrote."""
    lines = path.read_text().splitlines()
    return lines[0], lines[1], [tuple(map(float, line.split(","))) for line in lines[2:]]


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), "beef", ("a", "b"), ([0.1 + 0.2, 1], np.array([-0.0, 2.5])))
    assert path.read_bytes() == b"# config beef\na,b\n0.30000000000000004,-0.0\n1.0,2.5\n"


def test_write_csv_matches_row_wise_repr(tmp_path):
    # the per-column dedupe writes the bytes of repr on every cell, row by
    # row: signed zeros, nan, infinities, tiny and huge values and repeats
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-5, 1e16, 0.1 + 0.2, 2.5, -0.0, 1e-5]
    rng = np.random.default_rng(5)
    cols = [
        np.array(special * 3),
        rng.choice(special, size=33),
        np.repeat(np.arange(11) / 7, 3),
        np.arange(33).reshape(3, 11).T,  # an integer column, read in C order
    ]
    path = tmp_path / "t.csv"
    write_csv(str(path), "cafe", ("a", "b", "c", "d"), cols)
    flat = [np.asarray(c, dtype=float).ravel().tolist() for c in cols]
    rows = [",".join(map(repr, row)) for row in zip(*flat)]
    expected = "\n".join(["# config cafe", "a,b,c,d", *rows]) + "\n"
    assert path.read_text() == expected
    assert "-0.0" in expected and "nan" in expected and "-inf" in expected


class TestSubcommands:
    def test_zak_outputs(self, tmp_path):
        cfg = write_config(tmp_path, recipe="box", support=[0, 1])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "zak"]) == 0
        lines = (out / "zak.csv").read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "x,omega,re,im"
        assert len(lines) == 2 + 64 * 64
        assert lines[2:4] == ["0.0,0.0,1.0,0.0", f"0.0,{1 / 64!r},1.0,0.0"]
        # all |values| = 1 for the unit box
        for line in lines[2:10]:
            _, _, re, im = map(float, line.split(","))
            assert abs(complex(re, im)) == pytest.approx(1.0, abs=1e-12)
        rep = json.loads((out / "zak_identities.json").read_text())
        assert rep["deviations"]["a_quasiperiod"] < 1e-8
        assert rep["deviations"]["c_integer_shift"] < 1e-8

    def test_riesz_and_invariance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "riesz"]) == 0
        rep = json.loads((out / "riesz.json").read_text())
        assert 0 < rep["a_est"] < rep["b_est"]
        config, header, rows = read_csv(out / "riesz_profile.csv")
        assert config == f"# config {rep['config']}"
        assert header == "x,omega,sigma_min,sigma_max"
        assert len(rows) == 32 * 64  # the period rectangle [0, 1/2) x [0, 1)
        assert rows[0][:2] == (0.0, 0.0) and rows[64][:2] == (1 / 64, 0.0)
        assert min(r[2] for r in rows) ** 2 / 2 == rep["a_est"]
        assert max(r[3] for r in rows) ** 2 / 2 == rep["b_est"]
        assert main(["--config", cfg, "--out", str(out), "invariance"]) == 0
        inv = json.loads((out / "invariance.json").read_text())
        assert inv["verdict"] == "not-invariant"
        assert inv["schema"] == 1

    def test_analyze_pipeline_gaussian(self, tmp_path):
        cfg = write_config(
            tmp_path, nx=128, nw=128, S=128,
            eps_list=[0.0625, 0.00390625, 0.0009765625 * 1.02],
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "analyze"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["riesz_sequence"] is True
        assert summary["summary"]["extra_invariance"] == "not-invariant"
        assert summary["summary"]["zak_vmo_profile"] == "vmo-consistent"
        config, header, rows = read_csv(out / "vmo_profile.csv")
        assert config == f"# config {summary['config']}"
        assert header == "epsilon,S"
        prof = summary["vmo_profile"]
        assert rows == list(zip(prof["eps"], prof["s_values"]))

    def test_analyze_matrix_reduction_path(self, tmp_path):
        # A = diag(2, 1) reduces to P=2, Q=1 via B = diag(1/2, 2); the
        # generator and the probe shift are transported through B
        cfg = write_config(
            tmp_path, matrix=["2", "0", "0", "1"], shift=["1/4", "0"],
            recipe="gaussian",
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "analyze"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reduction"]["P"] == 2
        assert summary["reduction"]["Q"] == 1
        assert summary["reduction"]["shift_image"] == ["1/8", "0/1"]
        rep = json.loads((out / "invariance.json").read_text())
        assert rep["verdict"] == "not-invariant"

    def test_matrix_riesz_and_invariance_match_analyze(self, tmp_path):
        # all four subcommands analyse the generator and the shift carried
        # through the reduction matrix B, not the untransported ones
        cfg = write_config(tmp_path, matrix=["2", "1", "0", "1"])
        outs = {}
        for command in ("analyze", "riesz", "invariance", "vmo"):
            outs[command] = tmp_path / command
            assert main(["--config", cfg, "--out", str(outs[command]), command]) == 0

        def load(command, name):
            return json.loads((outs[command] / name).read_text())

        riesz, inv = load("riesz", "riesz.json"), load("invariance", "invariance.json")
        assert riesz["a_est"] == load("analyze", "riesz.json")["a_est"]
        analyzed = load("analyze", "invariance.json")
        assert (inv["u"], inv["max_residual"]) == (analyzed["u"], analyzed["max_residual"])
        summary = load("analyze", "summary.json")
        reduction = summary["reduction"]
        witness = load("vmo", "vmo_witness.json")
        assert riesz["reduction"] == inv["reduction"] == witness["reduction"] == reduction
        # analyze's riesz.json and invariance.json carry the same reduction log
        assert load("analyze", "riesz.json")["reduction"] == reduction
        assert analyzed["reduction"] == reduction
        assert reduction["shift_image"] == [inv["u"], inv["eta"]]
        assert witness["s_values"] == summary["vmo_profile"]["s_values"]

    def test_analyze_makes_one_zak_grid(self, tmp_path, monkeypatch):
        calls = []

        def counted(f, nx, nw, _real=zak.zak_transform):
            calls.append((nx, nw))
            return _real(f, nx, nw)

        for module in (zak, gabor):
            monkeypatch.setattr(module, "zak_transform", counted)
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), "analyze"]) == 0
        assert calls == [(64, 64)]

    @pytest.mark.parametrize(
        "command, offsets",
        [("analyze", [()]), ("invariance", [()]), ("demo", [(), (16, 0)])],
        ids=["analyze", "invariance", "demo"],
    )
    def test_one_matrix_field_per_lattice_run(self, tmp_path, monkeypatch, command, offsets):
        # the Riesz scan builds A; only demo's transfer identity adds the
        # shifted field A(x - 1/2, w) on its 32-node grid
        calls = []

        def counted(Zg, lat, *shift, _real=gabor.zz_matrix):
            calls.append(shift)
            return _real(Zg, lat, *shift)

        monkeypatch.setattr(gabor, "zz_matrix", counted)
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 0
        assert calls == offsets

    @pytest.mark.parametrize("command", ["analyze", "invariance"])
    @pytest.mark.parametrize("P, Q", [(2, 1), (3, 2)])
    def test_one_qr_per_lattice_run(self, tmp_path, monkeypatch, command, P, Q):
        # the Riesz scan factors the blocks once, by the batched Householder QR
        # and with no LAPACK factorization; the invariance solve reuses the
        # reflectors, and the singular values come from R without an SVD
        calls = {"qr": 0, "svd": 0, "solve": 0, "_qr_sigma": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("qr", "svd", "solve"):
            counted(np.linalg, name)
        counted(gabor, "_qr_sigma")
        cfg = write_config(tmp_path, lattice={"P": P, "Q": Q}, S=48, nx=48, nw=48)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 0
        assert calls == {"qr": 0, "svd": 0, "solve": 0, "_qr_sigma": 1}

    @pytest.mark.parametrize("command", ["zak", "metaplectic"])
    def test_identity_checks_share_the_zak_grid(self, tmp_path, monkeypatch, command):
        # zak: g, the shift, two integer shifts and fhat; metaplectic: g,
        # fhat, the dilation pair and the chirp image
        calls = []

        def counted(f, nx, nw, _real=zak.zak_transform):
            calls.append((nx, nw))
            return _real(f, nx, nw)

        for module in (zak, gabor, metaplectic):
            monkeypatch.setattr(module, "zak_transform", counted)
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == 0
        assert len(calls) == 5

    def test_analyze_reports_non_riesz_density(self, tmp_path):
        # A = diag(1/2, 1) has density 2 and reduces to P=1, Q=2 with B=I:
        # the system cannot be a Riesz sequence, and the pipeline reports the
        # numerical failure without writing any file
        cfg = write_config(
            tmp_path, matrix=["1/2", "0", "0", "1"], shift=["1/4", "0"],
        )
        _, _, _, reduction = build_system(json.loads(open(cfg).read()))
        assert (reduction["P"], reduction["Q"], reduction["B"]) == (1, 2, "1/1,0/1,0/1,1/1")
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "analyze"]) == 3
        assert not out.exists() or not any(out.iterdir())

    def test_box_analyze_obstruction(self, tmp_path):
        cfg = write_config(
            tmp_path, recipe="box", support=[0, 1], S=32, nx=32, nw=32,
            lattice={"P": 1, "Q": 1}, shift=["1/2", "0"],
            window=[0.75, 1.25, 0.0, 1.0],
            eps_list=[0.0625, 0.015625],
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "analyze"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["summary"]["extra_invariance"] == "invariant"
        assert summary["summary"]["zak_vmo_profile"] == "vmo-fail-witness"

    def test_metaplectic_and_uncertainty(self, tmp_path):
        cfg = write_config(tmp_path, alpha="3/2", chirp_m=1, radii=[1, 2, 4, 8])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "metaplectic"]) == 0
        rep = json.loads((out / "metaplectic.json").read_text())
        assert rep["zak_formula_deviations"]["dev_dilation"] < 1e-8
        assert main(["--config", cfg, "--out", str(out), "uncertainty"]) == 0
        unc = json.loads((out / "uncertainty.json").read_text())
        assert unc["product_divergent"] is False
        for name, key in (("moment_time", "time_moment"), ("moment_freq", "freq_moment"),
                          ("gagliardo", "gagliardo_half"), ("feichtinger", "feichtinger")):
            config, header, rows = read_csv(out / f"{name}.csv")
            assert config == f"# config {unc['config']}"
            assert header == f"{unc[key]['axis']},partial_value"
            assert rows == list(zip(unc[key]["radii"], unc[key]["partials"]))

    def test_box_edges_take_rationals(self, tmp_path):
        # ROADMAP item 11's box [0, 1/6) at S = 48: "1/6" is the float box
        runs = []
        for edge in ("1/6", 0.16666666666666666):
            cfg = write_config(tmp_path, recipe="box", box=["0", edge], support=[0, 1], S=48)
            out = tmp_path / str(len(runs))
            assert main(["--config", cfg, "--out", str(out), "uncertainty"]) == 0
            unc = json.loads((out / "uncertainty.json").read_text())
            del unc["config"]
            runs.append(unc)
        assert runs[0] == runs[1]

    def test_demo_runs(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["--out", str(out), "demo"]) == 0
        text = capsys.readouterr().out
        assert "divisibility certificate" in text
        assert json.loads((out / "demo.json").read_text())["divisibility"] is False

    @pytest.mark.parametrize(
        "tol, shift",
        [(0.1, ["0", "1/2"]), (1e-8, ["1/2", "0"])],
        ids=["loose-tol", "tight-tol-lattice-point"],
    )
    @pytest.mark.parametrize("command", ["invariance", "analyze"])
    def test_invariant_verdict_under_non_default_tol(self, tmp_path, command, tol, shift):
        # the Gaussian on (1/2)Z x 3Z: the verdict reads the residual alone,
        # so neither solver rounding in F nor a tight tol breaks it
        cfg = write_config(
            tmp_path, S=48, nx=48, nw=48, lattice={"P": 3, "Q": 2}, shift=shift, tol=tol,
        )
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), command]) == 0
        assert json.loads((out / "invariance.json").read_text())["verdict"] == "invariant"


def matrix_riesz(recipe, matrix, S):
    """(untransported generator, RieszReport of the transported system) of a
    `matrix` config, as `riesz` and `analyze` compute it."""
    cfg = dict(DEFAULT_CONFIG, recipe=recipe, S=S, nx=S, nw=S, matrix=matrix)
    g, lat, _, _ = build_system(cfg)
    return build_generator(cfg), gabor.riesz_bounds(g, lat, S, S)


class TestMatrixRieszOracle:
    """The Riesz bounds of a `matrix` lattice against a finite-section Gram
    matrix built without the metaplectic transport."""

    @pytest.mark.parametrize("S", [32, 64])
    @pytest.mark.parametrize("matrix", MATRICES, ids="".join)
    def test_gaussian_gram_spectrum_inside_bounds(self, matrix, S):
        g, rep = matrix_riesz("gaussian", matrix, S)
        eig = np.linalg.eigvalsh(lattice_gram(g, matrix))
        assert rep.a_est <= eig[0] and eig[-1] <= rep.b_est

    @pytest.mark.parametrize("matrix", MATRICES, ids="".join)
    def test_box_gram_is_identity(self, matrix):
        # A Z^2 lies in Z x Z, where the box's time-frequency shifts are
        # orthonormal: a = b = 1
        G = lattice_gram(build_generator(dict(DEFAULT_CONFIG, recipe="box", S=32)), matrix)
        assert np.max(np.abs(G - np.eye(len(G)))) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the reduction's two quadrature Fourier steps blur the box's "
        "jumps (a_est/b_est = 0.4976/1.2186 at S = 32 on [2,1,0,1])",
    )
    @pytest.mark.parametrize("matrix", MATRICES, ids="".join)
    def test_box_riesz_bounds_are_one(self, matrix):
        _, rep = matrix_riesz("box", matrix, 32)
        assert abs(rep.a_est - 1) <= 1e-12 and abs(rep.b_est - 1) <= 1e-12


def test_one_subcommand_table():
    # the parser, the dispatch table and README's "Subcommands:" line name
    # the same commands
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = readme.split("Subcommands:", 1)[1].split(". ", 1)[0]
    named = {word.split()[0] for word in re.findall(r"`([^`]+)`", line)}
    assert set(sub.choices) == set(COMMANDS) == named


@pytest.mark.parametrize("value", [64, 64.0])
def test_config_int_accepts_integral_numbers(value):
    got = config_int({"S": value}, "S")
    assert got == 64 and type(got) is int


@pytest.mark.parametrize("value", [64.5, True, "64", None, float("inf"), float("nan"), [64]])
def test_config_int_rejects_the_rest(value):
    with pytest.raises(ConfigError, match="^S must be an integer"):
        config_int({"S": value}, "S")


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path), "zak"]) == 2

    def test_invalid_nx(self, tmp_path):
        cfg = write_config(tmp_path, nx=48)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "zak"]) == 2

    def test_unknown_suite(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "proptest", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("config error: unknown suite 'bogus'")

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("invariance", {"lattice": {"P": 2, "Q": 2}}),
            ("analyze", {"lattice": {"P": 2, "Q": 2}}),
            ("metaplectic", {"matrix": ["2", "1", "0", "1"]}),
            ("invariance", {"shift": ["0", "0"]}),
            ("metaplectic", {"alpha": "0"}),
            ("vmo", {"eps_list": [0.001, 0.01]}),
            ("vmo", {"window": [0.0, 1.0, 0.0]}),
            ("zak", {"Nx": 8}),
            ("zak", {"seed": 5}),
            ("vmo", {"window": [0.0, 1.00000001, 0.0, 1.0]}),
            ("riesz", {"S": 64.5}),
            ("riesz", {"lattice": {"P": 2.7, "Q": 1}}),
            ("riesz", {"nx": 32.9, "nw": 32.9}),
            ("riesz", {"lattice": {"P": 2, "Q": 1, "R": 7}}),
            ("riesz", [["S", 32], ["nx", 32], ["nw", 32]]),
            ("riesz", "S"),
            ("riesz", {"matrix": ["2", "1", "0", "1"], "lattice": {"P": 3, "Q": 2}}),
            ("invariance", {"tol": 1e400}),
            ("analyze", {"tol": 0}),
            ("invariance", {"tol": -1}),
            ("vmo", {"vmo_floor": -1}),
            ("analyze", {"vmo_floor": 1e400}),
        ],
        ids=["lattice-not-coprime-invariance", "lattice-not-coprime-analyze", "matrix-det-not-1",
             "zero-shift", "zero-alpha", "increasing-eps", "short-window", "unknown-key",
             "seed-key", "off-grid-window", "fractional-S", "fractional-P", "fractional-grid",
             "unknown-lattice-key", "top-level-pairs", "top-level-string", "matrix-and-lattice",
             "infinite-tol", "zero-tol", "negative-tol", "negative-vmo-floor", "infinite-vmo-floor"],
    )
    def test_bad_config_value(self, tmp_path, capsys, command, overrides):
        if isinstance(overrides, dict):
            cfg = write_config(tmp_path, **overrides)
        else:  # the whole file is this JSON value, not an object
            cfg = str(tmp_path / "raw.json")
            Path(cfg).write_text(json.dumps(overrides))
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), command]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("cases", ["0", "-1"])
    def test_proptest_without_cases(self, tmp_path, capsys, cases):
        # a suite that checks nothing must not report PASS
        assert main(["--out", str(tmp_path), "proptest", "sl2-factorize", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize(
        "command, overrides, code",
        [
            ("analyze", {"shift": ["1/3", "0"]}, 2),
            ("analyze", {"lattice": {"P": 2, "Q": 2}}, 2),
            ("analyze", {"matrix": ["2", "1", "0", "1"], "shift": ["1/3", "0"]}, 2),
            ("analyze", {"lattice": {"P": 1, "Q": 1}}, 3),
            ("riesz", {"nx": 30}, 2),
            ("invariance", {"tol": 0}, 2),
            ("vmo", {"window": [0.0, 1.00000001, 0.0, 1.0]}, 2),
            ("metaplectic", {"alpha": "0"}, 2),
            ("uncertainty", {"exponents": [-1, 2]}, 2),
        ],
        ids=["shift-off-grid", "lattice-not-coprime", "shift-image-off-grid", "no-riesz-sequence",
             "riesz-nx-not-a-divisor", "invariance-zero-tol", "vmo-off-grid-window",
             "metaplectic-zero-alpha", "uncertainty-negative-exponent"],
    )
    def test_failed_analyze_writes_nothing(self, tmp_path, command, overrides, code):
        # a failed run of any subcommand leaves --out empty
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), command]) == code
        assert not out.exists() or not any(out.iterdir())

    def test_unwritable_out(self, tmp_path, capsys):
        # --out names a regular file: exit 2 with a message, not a traceback,
        # and the printed line claims no write main has yet to make
        cfg = write_config(tmp_path)
        out = tmp_path / "taken"
        out.write_text("")
        for command in ("riesz", "zak"):
            assert main(["--config", cfg, "--out", str(out), command]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: cannot write --out {out}: ")
            assert "wrote" not in captured.out
        assert out.read_text() == ""

    def test_zak_unequal_grid_writes_nothing(self, tmp_path):
        # identity (d) needs nx == nw; the check runs before any file is written
        cfg = write_config(tmp_path, nw=32)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "zak"]) == 2
        assert not (out / "zak.csv").exists()

    def test_numerical_failure(self, tmp_path):
        # box(0,2) is not a Riesz sequence on Z x Z: the solve reports it
        cfg = write_config(
            tmp_path, recipe="box", box=[0.0, 2.0], support=[0, 2],
            lattice={"P": 1, "Q": 1},
        )
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "invariance"]) == 3


class TestReproducibility:
    @staticmethod
    def assert_same_files(tmp_path, command, seed1, seed2):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["--config", cfg, "--out", str(out1), "--seed", seed1, command]) == 0
        assert main(["--config", cfg, "--out", str(out2), "--seed", seed2, command]) == 0
        names = sorted(os.listdir(out1))
        assert names and names == sorted(os.listdir(out2))
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "command",
        ["zak", "riesz", "invariance", "vmo", "analyze", "metaplectic", "uncertainty", "demo"],
    )
    def test_byte_identical_outputs(self, tmp_path, command):
        self.assert_same_files(tmp_path, command, "7", "7")

    def test_seed_does_not_reach_the_config(self, tmp_path):
        # --seed seeds the proptest suites only: analyze draws no random
        # numbers, so its files, config hash included, ignore the seed
        self.assert_same_files(tmp_path, "analyze", "1", "7")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_is_the_only_writer(tmp_path, monkeypatch, command):
    # every handler returns its files; main writes them once it has
    # returned, each stamped with the hash of the config
    running, writes = [], []

    def write(path, text, _real=cli.atomic_write):
        writes.append((bool(running), text))
        _real(path, text)

    def handler(cfg, args, _real=COMMANDS[command]):
        running.append(command)
        try:
            return _real(cfg, args)
        finally:
            running.pop()

    monkeypatch.setattr(cli, "atomic_write", write)
    monkeypatch.setitem(COMMANDS, command, handler)
    cfg = write_config(tmp_path)
    extra = ["sl2-factorize", "--cases", "5"] if command == "proptest" else []
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), command, *extra]) == 0
    assert not any(inside for inside, _ in writes)
    assert (len(writes) == 0) == (command == "proptest")
    h = config_hash(load_config(cfg))
    assert all(f"# config {h}\n" in text or f'"config": "{h}"' in text for _, text in writes)


class TestProptestSuites:
    def test_sl2(self, tmp_path):
        assert main(["--out", str(tmp_path), "--seed", "3", "proptest", "sl2-factorize", "--cases", "150"]) == 0

    def test_pi_commutation(self, tmp_path):
        assert main(["--out", str(tmp_path), "proptest", "pi-commutation", "--cases", "40"]) == 0

    def test_vmo_small(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "proptest", "vmo-inequalities", "--cases", "60"]) == 0
        # both reports print their eight results
        lines = capsys.readouterr().out.splitlines()
        assert sum("max_ratio=" in line for line in lines) == 16

    def test_metaplectic_cov(self, tmp_path):
        assert main(["--out", str(tmp_path), "proptest", "metaplectic-covariance", "--cases", "25"]) == 0
