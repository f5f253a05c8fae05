"""Command-line front end: experiment configuration, demo pipelines, and
report/plot-data emission.

Subcommands: zak, analyze, riesz, invariance, vmo, metaplectic,
uncertainty, proptest, demo.  Configuration is a flat JSON file whose
rational parameters are written as "p/q" strings so exactness survives
serialization; an identical config produces byte-identical outputs.
``--seed`` seeds the proptest suites only and is not part of the config.

Exit codes: 0 ok, 1 property failure, 2 config error, 3 numerical error.
Every config problem (an unreadable file, a bad value, a combination of
values the pipelines reject, an unwritable ``--out``) exits 2 with a message
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import gabor, metaplectic, uncertainty, vmo, zak
from .core import ScalarField2D, embed, sample_function, tf_shift
from .symplectic import (
    RationalMatrix2,
    format_fraction,
    lattice_reduce,
    random_sl2,
    sl2_factorize,
    steps_matrix,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "recipe": "gaussian",
    "box": [0.0, 1.0],
    "support": [-8, 8],
    "S": 64,
    "nx": 64,
    "nw": 64,
    "lattice": {"P": 1, "Q": 1},
    "shift": ["1/2", "0"],
    "tol": 1e-6,
    "eps_list": [0.0625, 0.015625, 0.00390625],
    "vmo_floor": 0.1,
    "window": [0.0, 1.0, 0.0, 1.0],
    "alpha": "3/2",
    "chirp_m": 1,
    "radii": [1, 2, 4, 8],
    "exponents": [2.0, 2.0],
}


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(user).__name__}")
        if "matrix" in user and "lattice" in user:
            raise ConfigError(f"config {path} sets both 'matrix' and 'lattice'; give one")
        cfg.update(user)
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG) - {"matrix"})
    if isinstance(cfg["lattice"], dict):
        unknown += sorted(f"lattice.{k}" for k in set(cfg["lattice"]) - {"P", "Q"})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    return cfg


def config_hash(cfg: dict) -> str:
    text = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_int(spec: dict, key: str) -> int:
    """spec[key] as an int: an int, or a float with an integral value; anything
    else, a bool included, is a ConfigError naming the key."""
    value = spec[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def config_positive(spec: dict, key: str) -> float:
    """spec[key], a finite number > 0, as a float; else a ConfigError naming the key."""
    value = spec[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{key} must be a finite number > 0, got {value!r}")


def parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}")


def config_matrix(cfg: dict) -> RationalMatrix2 | None:
    """The exact 'matrix' entry of cfg, or None when it is absent or empty."""
    if not cfg.get("matrix"):
        return None
    return RationalMatrix2(*(parse_rational(t) for t in cfg["matrix"]))


def build_generator(cfg: dict):
    recipe = cfg["recipe"]
    if recipe == "box":
        a, b = cfg.get("box", [0.0, 1.0])
        recipe = ("box", float(parse_rational(a)), float(parse_rational(b)))
    return sample_function(recipe, tuple(cfg["support"]), config_int(cfg, "S"))


def build_system(cfg: dict):
    """(g, lattice, (u, eta), reduction log or None) of a config.

    A 'matrix' entry A is reduced to B A Z^2 = (1/Q) Z x P Z with an exact B
    in SL(2,Q), and the generator and the probe shift are carried through
    the metaplectic operator of B, so riesz, invariance and analyze all
    analyse the same transported system.  A 'lattice' entry has no log.
    """
    g = build_generator(cfg)
    red = None
    A = config_matrix(cfg)
    if A is not None:
        red = lattice_reduce(A)
        lat = gabor.SeparableLattice(red.P, red.Q)
    else:
        spec = cfg.get("lattice", {})
        try:
            lat = gabor.SeparableLattice(config_int(spec, "P"), config_int(spec, "Q"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad lattice spec {spec!r}: {exc}")
    u, eta = (parse_rational(t) for t in cfg["shift"])
    if red is None:
        return g, lat, (u, eta), None
    steps = []
    if red.B != RationalMatrix2.identity():
        chain = sl2_factorize(red.B)
        need = metaplectic.minimal_sample_multiple(chain)
        if g.samples_per_unit % need:
            raise ConfigError(
                f"S = {g.samples_per_unit} must be a multiple of {need} for this matrix"
            )
        g = metaplectic.apply_metaplectic(chain, g)
        u, eta = red.B.apply((u, eta))  # transport the shift with the lattice
        steps = [s.as_dict() for s in chain]
    log = {
        "B": red.B.to_csv(), "P": red.P, "Q": red.Q,
        "column_flipped": red.column_flipped,
        "shift_image": [format_fraction(u), format_fraction(eta)],
        "steps": steps,
    }
    return g, lat, (u, eta), log


def atomic_write(path: str, text: str) -> None:
    """Write text via temp file + rename."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj: dict) -> None:
    atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: str, config_hash: str, header, columns) -> None:
    """Write equal-length columns under a config line and a header row; every
    cell is repr(float), run once per distinct bit pattern of a column."""
    cells = []
    for c in columns:
        col = np.asarray(c, dtype=float).ravel()
        bits, inv = np.unique(col.view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
        cells.append(text[inv].tolist())
    lines = [f"# config {config_hash}", ",".join(header), *map(",".join, zip(*cells))]
    atomic_write(path, "\n".join(lines) + "\n")


def _node_columns(shape, P: int = 1):
    """x = i / (nx P) and omega = j / nw for the (i, j) nodes of an (nx, nw) grid in C order."""
    nx, nw = shape
    return np.repeat(np.arange(nx) / (nx * P), nw), np.tile(np.arange(nw) / nw, nx)


def _with_reduction(body: dict, reduction: dict | None) -> dict:
    if reduction is not None:
        body["reduction"] = reduction
    return body


def cmd_zak(cfg: dict, args) -> tuple[int, dict]:
    g = build_generator(cfg)
    Z = zak.zak_transform(g, config_int(cfg, "nx"), config_int(cfg, "nw"))
    rep = zak.check_zak_identities(g, Z)  # nx != nw exits 2
    print("zak: " + " ".join(f"{k}={v:.2e}" for k, v in rep.as_dict().items()))
    return EXIT_OK, {
        "zak.csv": (("x", "omega", "re", "im"),
                    (*_node_columns(Z.values.shape), Z.values.real, Z.values.imag)),
        "zak_identities.json": {"schema": 1, "deviations": rep.as_dict(),
                                "unitarity_gap": abs(zak.zak_l2_norm(Z) - g.norm())},
    }


def cmd_riesz(cfg: dict, args) -> tuple[int, dict]:
    g, lat, _, reduction = build_system(cfg)
    rep = gabor.riesz_bounds(g, lat, config_int(cfg, "nx"), config_int(cfg, "nw"))
    print(f"riesz: A={rep.a_est:.6g} B={rep.b_est:.6g}")
    return EXIT_OK, {
        "riesz.json": _with_reduction(rep.as_dict(), reduction),
        "riesz_profile.csv": (("x", "omega", "sigma_min", "sigma_max"), (
            *_node_columns(rep.sigma_min.shape, rep.P), rep.sigma_min, rep.sigma_max)),
    }


def cmd_invariance(cfg: dict, args) -> tuple[int, dict]:
    g, lat, (u, eta), reduction = build_system(cfg)
    riesz = gabor.riesz_bounds(g, lat, config_int(cfg, "nx"), config_int(cfg, "nw"))
    rep = gabor.invariance_solve(riesz, u, eta, config_positive(cfg, "tol"))
    print(f"invariance: residual={rep.max_residual:.3g} verdict={rep.verdict}")
    return EXIT_OK, {"invariance.json": _with_reduction(rep.as_dict(), reduction)}


def cmd_vmo(cfg: dict, args) -> tuple[int, dict]:
    g, _, _, reduction = build_system(cfg)
    Z = zak.zak_transform(g, config_int(cfg, "nx"), config_int(cfg, "nw"))
    rep = vmo.vmo_decay_profile(
        Z, tuple(cfg["window"]), list(cfg["eps_list"]), config_positive(cfg, "vmo_floor")
    )
    print(f"vmo: verdict={rep.verdict} tail S={rep.s_values[-1]:.4g}")
    return EXIT_OK, {
        "vmo_profile.csv": (("epsilon", "S"), (rep.eps_list, rep.s_values)),
        "vmo_witness.json": _with_reduction(rep.as_dict(), reduction),
    }


def cmd_analyze(cfg: dict, args) -> tuple[int, dict]:
    """Reduce the lattice, transport the generator metaplectically, then run
    the Riesz / invariance / oscillation-profile pipeline on the result."""
    g, lat, (u, eta), reduction = build_system(cfg)
    riesz_rep = gabor.riesz_bounds(g, lat, config_int(cfg, "nx"), config_int(cfg, "nw"))
    inv_rep = gabor.invariance_solve(riesz_rep, u, eta, config_positive(cfg, "tol"))
    prof = vmo.vmo_decay_profile(
        riesz_rep.zak, tuple(cfg["window"]), list(cfg["eps_list"]),
        config_positive(cfg, "vmo_floor"),
    )
    print(
        f"analyze: riesz A={riesz_rep.a_est:.4g}, invariance={inv_rep.verdict}, "
        f"profile={prof.verdict}"
    )
    return EXIT_OK, {
        "riesz.json": _with_reduction(riesz_rep.as_dict(), reduction),
        "invariance.json": _with_reduction(inv_rep.as_dict(), reduction),
        "vmo_profile.csv": (("epsilon", "S"), (prof.eps_list, prof.s_values)),
        "summary.json": _with_reduction({
            "schema": 1,
            "riesz": {"a_est": riesz_rep.a_est, "b_est": riesz_rep.b_est},
            "invariance": {"max_residual": inv_rep.max_residual, "verdict": inv_rep.verdict},
            "vmo_profile": prof.as_dict(),
            "summary": {
                "riesz_sequence": True,  # invariance_solve refused a_est <= RIESZ_FLOOR
                "extra_invariance": inv_rep.verdict,
                "zak_vmo_profile": prof.verdict,
                "reading": (
                    "Riesz sequence with an additional invariance: the oscillation "
                    "profile must not decay (generator cannot be well-localized)"
                    if inv_rep.verdict == "invariant"
                    else "no obstruction triggered on this configuration"
                ),
            },
        }, reduction),
    }


def cmd_metaplectic(cfg: dict, args) -> tuple[int, dict]:
    g, alpha = build_generator(cfg), parse_rational(cfg["alpha"])
    rep = metaplectic.check_zak_formulas(g, alpha, config_int(cfg, "chirp_m"))
    S = config_matrix(cfg) or RationalMatrix2(0, 1, -1, 0)
    steps = sl2_factorize(S)
    print(
        f"metaplectic: fourier={rep.dev_fourier:.2e} dilation={rep.dev_dilation:.2e} "
        f"chirp={rep.dev_chirp:.2e}"
    )
    return EXIT_OK, {"metaplectic.json": {
        "schema": 1,
        "zak_formula_deviations": rep.as_dict(),
        "factorization": {"matrix": S.to_csv(), "steps": [s.as_dict() for s in steps]},
    }}


def cmd_uncertainty(cfg: dict, args) -> tuple[int, dict]:
    g = build_generator(cfg)
    q, p = (float(e) for e in cfg["exponents"])
    radii = list(cfg["radii"])
    t_sweep, f_sweep = uncertainty.uncertainty_product(g, p, q, 0.0, 0.0, radii)
    gag = uncertainty.gagliardo_seminorm(g, 0.5, radii)
    feich = uncertainty.feichtinger_norm_estimate(
        g, radii=tuple(r for r in radii if r <= g.samples_per_unit / 4) or (2, 4)
    )
    print(
        f"uncertainty: time={'conv' if t_sweep.converged else 'div'} "
        f"freq={'conv' if f_sweep.converged else 'div'}"
    )
    return EXIT_OK, {
        **{f"{name}.csv": ((sw.axis, "partial_value"), (sw.radii, sw.partials))
           for name, sw in (("moment_time", t_sweep), ("moment_freq", f_sweep),
                            ("gagliardo", gag), ("feichtinger", feich))},
        "uncertainty.json": {
            "schema": 1,
            "time_moment": t_sweep.as_dict(),
            "freq_moment": f_sweep.as_dict(),
            "gagliardo_half": gag.as_dict(),
            "feichtinger": feich.as_dict(),
            "product_divergent": not (t_sweep.converged and f_sweep.converged),
        },
    }


def cmd_demo(cfg: dict, args) -> tuple[int, dict]:
    """End-to-end obstruction demo on the unit box at the integer lattice."""
    S = 32
    g = sample_function("box", (0, 1), S)
    lat = gabor.SeparableLattice(1, 1)
    riesz_rep = gabor.riesz_bounds(g, lat, S, S)
    print(f"riesz bounds of the box on Z x Z: A = {riesz_rep.a_est:.3f}, B = {riesz_rep.b_est:.3f}")
    u = Fraction(1, 2)
    rep = gabor.invariance_solve(riesz_rep, u, 0)
    print(f"shift (1/2, 0): residual = {rep.max_residual:.2e} -> {rep.verdict}")
    fr = gabor.fertig_residual(riesz_rep, u, 0, gabor.m_matrix(rep.f_field, lat, 0))
    print(f"transfer-matrix identity residual = {fr:.2e}")
    H = ScalarField2D(rep.f_field[0], "periodic")
    prod = gabor.product_relation_residual(H, u, 0, 2, 0, -1)
    print(f"2-step product equals exp(-2 pi i w): residual = {prod:.2e}")
    ok = gabor.divisibility_check(1, 1, 2, 0, -1)
    print(f"divisibility certificate for (M1, M2) = (0, -1): {ok} "
          f"(the failed certificate is the obstruction: (1/2, 0) is not a lattice point)")
    prof = vmo.vmo_decay_profile(riesz_rep.zak, (0.75, 1.25, 0.0, 1.0), [1 / 16, 1 / 64], floor=0.1)
    print(f"oscillation near the support jump: S = {prof.s_values} -> {prof.verdict}")
    return EXIT_OK, {"demo.json": {
        "schema": 1,
        "riesz": {"a_est": riesz_rep.a_est, "b_est": riesz_rep.b_est},
        "residual": rep.max_residual,
        "verdict": rep.verdict,
        "divisibility": ok,
        "vmo": prof.as_dict(),
    }}


def _suite_vmo_inequalities(seed: int, cases: int) -> bool:
    rng = np.random.default_rng(seed)
    F = vmo.random_trig_field(rng, 96, 96, degree=3)
    G = vmo.random_trig_field(rng, 96, 96, degree=3)
    rep = vmo.check_inequalities(F, G, (0, 1, 0, 1), eps=0.01, n_cases=cases, rng=rng)
    F2 = vmo.random_trig_field(rng, 96, 96, degree=3, scale=0.2, offset=2.0)
    rep2 = vmo.check_inequalities(F2, G, (0, 1, 0, 1), eps=0.01, n_cases=cases, rng=rng)
    for title, report in (("F, G", rep), ("F2 = 2 + small field, G", rep2)):
        print(f"  report on {title}:")
        for name, r in report.items():
            status = "skipped" if not r.precondition_ok else "ok" if r.passed() else "FAIL"
            print(f"  {name:22s} max_ratio={r.max_ratio:.4f} cases={r.cases} [{status}]")
            if r.note:
                print(f"    note: {r.note}")
    return all(r.passed() for report in (rep, rep2) for r in report.values())


def _suite_sl2(seed: int, cases: int) -> bool:
    rng = np.random.default_rng(seed)
    max_den = 0
    for _ in range(cases):
        S = random_sl2(rng)
        steps = sl2_factorize(S)
        if steps_matrix(steps) != S:
            print(f"  factorization mismatch for {S}")
            return False
        max_den = max(max_den, *(st.param.denominator for st in steps if st.param is not None))
    print(f"  {cases} exact factorizations, max parameter denominator {max_den}")
    return True


def _suite_pi_commutation(seed: int, cases: int) -> bool:
    rng = np.random.default_rng(seed)
    g = sample_function("gaussian", (-8, 8), 64)
    worst = 0.0
    for _ in range(cases):
        a, c = rng.integers(-64, 65, size=2) / 64
        b, d = rng.standard_normal(2)
        lhs = tf_shift(tf_shift(g, (c, d)), (a, b))
        rhs = tf_shift(g, (a + c, b + d))
        phase = np.exp(-2j * np.pi * a * d)
        k0, k1 = min(lhs.k_min, rhs.k_min), max(lhs.k_max, rhs.k_max)
        va, vb = embed(lhs, k0, k1).values, embed(rhs, k0, k1).values
        worst = max(worst, float(np.max(np.abs(va - phase * vb))))
    print(f"  worst commutation deviation {worst:.3e}")
    return worst < 1e-10


def _suite_metaplectic(seed: int, cases: int) -> bool:
    rng = np.random.default_rng(seed)
    g = sample_function("gaussian", (-8, 8), 64)
    gens = [
        RationalMatrix2(0, 1, -1, 0),
        RationalMatrix2(2, 0, 0, Fraction(1, 2)),
        RationalMatrix2(1, 0, 1, 1),
        RationalMatrix2(1, 0, Fraction(-1, 2), 1),
    ]
    worst = 0.0
    for _ in range(cases):
        S = gens[rng.integers(len(gens))]
        lam = (Fraction(int(rng.integers(-8, 9)), 2), Fraction(int(rng.integers(-8, 9)), 2))
        worst = max(worst, metaplectic.covariance_residual(S, lam, g))
    print(f"  worst covariance residual {worst:.3e}")
    return worst < 1e-5


PROPTEST_SUITES = {
    "vmo-inequalities": _suite_vmo_inequalities,
    "sl2-factorize": _suite_sl2,
    "pi-commutation": _suite_pi_commutation,
    "metaplectic-covariance": _suite_metaplectic,
}


def cmd_proptest(cfg: dict, args) -> tuple[int, dict]:
    suite = PROPTEST_SUITES.get(args.suite)
    if suite is None:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {sorted(PROPTEST_SUITES)}")
    if args.cases < 1:
        raise ConfigError(f"--cases must be at least 1, got {args.cases}")
    print(f"suite {args.suite} (seed={args.seed}, cases={args.cases})")
    ok = suite(args.seed, args.cases)
    print("PASS" if ok else "FAIL")
    return (EXIT_OK if ok else EXIT_PROPERTY), {}


COMMANDS = {
    "zak": cmd_zak,
    "analyze": cmd_analyze,
    "riesz": cmd_riesz,
    "invariance": cmd_invariance,
    "vmo": cmd_vmo,
    "metaplectic": cmd_metaplectic,
    "uncertainty": cmd_uncertainty,
    "demo": cmd_demo,
    "proptest": cmd_proptest,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zakvmo",
        description="Zak / Gabor / VMO analysis pipelines",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    sub.choices["proptest"].add_argument("suite")
    sub.choices["proptest"].add_argument("--cases", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, then write the files it returns under --out, each
    stamped with the config hash; a handler that fails writes nothing."""
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        h = config_hash(cfg)  # stamped on every file
        code, files = COMMANDS[args.command](cfg, args)
        for name, body in files.items():  # a JSON object, or a CSV (header, columns)
            path = os.path.join(args.out, name)
            if isinstance(body, dict):
                write_json(path, {**body, "config": h})
            else:
                write_csv(path, h, *body)
    except (gabor.RieszFailureError, zak.AliasingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # after the numerical clause: AliasingError and LinAlgError are ValueErrors
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the handlers read no files: only a write raises it
        print(f"config error: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
