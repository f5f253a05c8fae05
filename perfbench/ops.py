"""Workload catalogues, seeded op lists, and the correctness check of one op.

An *op* is one ``zakvmo`` CLI subcommand call, made in process through
``zakvmo.cli.main(argv)`` with a generated config file and an ``--out``
directory.  Each workload is a list of groups.  The seed draws the op mix
of a run once: every group's fixed ops and ``pick`` of its variants.  The
run then repeats that mix round after round, each round in a new seeded
order, so every op of the mix runs many times and the run can time each
op by the median of its repeats.  The variants of a group cost the same
(they differ in a shift, a proptest seed or an exponent), so the seed
changes the inputs and the order but not the amount of work.

Every op in a catalogue exits 0 at the commit that recorded
``reference.json``; an op *fails* when its exit code or a checked output
differs from that record (see :func:`compare`).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from zakvmo import cli

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Float tolerance |a - b| <= ATOL + RTOL * |b|.  It admits rounding-level
# moves such as an invariance residual going from 2.6e-12 to 1.3e-15 under
# a better-conditioned solve, and rejects a 1e-6 change of an S_eps value.
ATOL = 1e-10
RTOL = 1e-8

# Output keys compared exactly (verdicts, witness cubes) and with the float
# tolerance; other outputs are not judged.
EXACT_KEYS = {"verdict", "extra_invariance", "zak_vmo_profile", "converged", "product_divergent"}
WITNESS_KEYS = {"cx", "cw", "side"}
FLOAT_KEYS = {
    "a_est", "b_est", "max_residual", "s_values", "oscillation",
    "dev_fourier", "dev_dilation", "dev_chirp", "partials", "max_ratio",
}
_SUITE_LINE = re.compile(r"^\s+(\w+)\s+max_ratio=(\S+) cases=(\d+) \[(\w+)\]$")
_COVARIANCE_LINE = re.compile(r"worst covariance residual (\S+)")


@dataclass(frozen=True)
class Op:
    command: tuple  # CLI words after the shared flags, e.g. ("analyze",)
    config: dict
    seed: int | None = None  # passed as --seed (proptest only)

    @property
    def kind(self) -> str:
        return " ".join(w for w in self.command if not w.startswith("-") and not w.isdigit())

    @property
    def key(self) -> str:
        return json.dumps(
            {"command": list(self.command), "config": self.config, "seed": self.seed},
            sort_keys=True,
        )


@dataclass(frozen=True)
class Group:
    fixed: tuple  # ops run every round, first
    variants: tuple  # ops drawn by the seed
    pick: int = 1


def _grid(recipe, S, **extra):
    return {"recipe": recipe, "S": S, "nx": S, "nw": S, **extra}


SHIFTS = (["1/2", "0"], ["1/3", "0"], ["0", "1/2"], ["1/4", "1/4"], ["1/6", "1/3"])
INVARIANT_SHIFT = SHIFTS[0]  # a lattice point of (1/2)Z x 3Z, so P, Q = 3, 2 is invariant
SEPARABLE = ((2, 1), (3, 1), (3, 2))


def _shift_ops(command, recipe, S, P, Q):
    """A seeded shift of ``command`` on one lattice.  On (1/2)Z x 3Z the
    invariant shift, which costs more (coefficient recovery, witness cube),
    runs as a fixed op, so the drawn shifts all cost alike."""
    base = _grid(recipe, S, lattice={"P": P, "Q": Q})
    fixed, shifts = (), SHIFTS[1:]
    if (P, Q) == (3, 2):
        fixed = (Op(command, dict(base, shift=INVARIANT_SHIFT)),)
    return fixed, tuple(Op(command, dict(base, shift=s)) for s in shifts)


def _analyze_separable():
    groups = []
    for recipe in ("gaussian", "box_sine", "box"):
        for P, Q in SEPARABLE:
            if (recipe, P, Q) == ("box", 3, 2):
                continue  # the box on (1/2)Z x 3Z is no Riesz sequence: exit 3
            groups.append(Group(*_shift_ops(("analyze",), recipe, 84, P, Q)))
    return groups


def _transport():
    groups = [
        Group((), tuple(
            Op(("analyze",), _grid("gaussian", 32, matrix=m, shift=s))
            for s in (["1/2", "0"], ["0", "1/2"], ["1/4", "0"], ["1/2", "1/2"])
        ))
        for m in (["2", "1", "0", "1"], ["2", "0", "1", "1"], ["3", "1", "1", "1"], ["1", "1", "-1", "1"])
    ]
    # (recipe, alpha, chirp_m, SL(2,Q) matrix): the matrices are J, a
    # dilation and shears
    checks = (
        ("gaussian", "3/2", 1, ["0", "1", "-1", "0"]),
        ("box_sine", "2", 2, ["2", "0", "0", "1/2"]),
        ("gaussian", "1/2", 3, ["1", "0", "1", "1"]),
        ("box_sine", "3/2", 2, ["1", "1", "0", "1"]),
        ("gaussian", "2", 1, ["3", "1", "2", "1"]),
    )
    for S in (64, 128):
        groups.append(Group((), tuple(
            Op(("metaplectic",), {"recipe": r, "S": S, "alpha": a, "chirp_m": m, "matrix": mat})
            for r, a, m, mat in checks
        )))
    # one fixed covariance case: the matrices other seeds draw need up to
    # twice the memory, which would make peak_rss_mb depend on the seed
    groups.append(Group((Op(("proptest", "metaplectic-covariance", "--cases", "1"), {}, 1),), (), pick=0))
    return groups


def _invariance_scan():
    # Two lattices, so that the cheap invariance ops (on Z x 2Z) and the
    # invariant-shift ops are as many, and the median op of the mix lies
    # inside the cluster of riesz and (1/2)Z x 3Z invariance ops.
    groups = []
    for recipe in ("gaussian", "box_sine"):
        for P, Q in ((2, 1), (3, 2)):
            fixed, variants = _shift_ops(("invariance",), recipe, 144, P, Q)
            riesz = Op(("riesz",), _grid(recipe, 144, lattice={"P": P, "Q": Q}))
            groups.append(Group((riesz,) + fixed, variants))
    return groups


def _diagnostics():
    groups = [
        Group((), tuple(
            Op(("uncertainty",), {"recipe": recipe, "S": 48, "support": [-8, 8],
                                  "radii": [1, 2, 4, 8, 16], "exponents": e})
            for e in ([2.0, 2.0], [1.0, 1.0], [2.0, 1.0])
        ))
        for recipe in ("gaussian", "box", "box_sine")
    ]
    # proptest seeds 3-8 take the same time to within a few percent
    groups.append(Group((), tuple(
        Op(("proptest", "vmo-inequalities", "--cases", "5"), {}, seed) for seed in range(3, 9)
    ), pick=3))
    return groups


WORKLOADS = {
    "analyze-separable": _analyze_separable(),
    "transport": _transport(),
    "invariance-scan": _invariance_scan(),
    "diagnostics": _diagnostics(),
}


def catalogue(workload: str) -> list:
    """Every op a run of ``workload`` can draw, fixed ops included."""
    ops = []
    for g in WORKLOADS[workload]:
        ops.extend(g.fixed)
        ops.extend(g.variants)
    return ops


def run_mix(workload: str, seed: int) -> list:
    """The ops of one run: each group's fixed ops and ``pick`` seeded variants."""
    rng = random.Random(f"{workload}:{seed}")
    mix = []
    for g in WORKLOADS[workload]:
        mix.extend(g.fixed)
        mix.extend(rng.sample(g.variants, g.pick))
    return mix


def rounds(workload: str, seed: int):
    """Endless seeded sequence of rounds: the run's mix, each time reordered."""
    rng = random.Random(f"{workload}:{seed}:order")
    mix = run_mix(workload, seed)
    while True:
        rng.shuffle(mix)
        yield list(mix)


# -- running one op --------------------------------------------------------


@dataclass
class Result:
    op: Op
    seconds: float
    exit_code: int
    outputs: dict  # checked outputs: flat key -> value


class Runner:
    """Runs ops in process inside a scratch directory of the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"
        self.config = self.workdir / "config.json"

    def run(self, op: Op) -> Result:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.config.write_text(json.dumps(op.config))
        argv = ["--config", str(self.config), "--out", str(self.out)]
        if op.seed is not None:
            argv += ["--seed", str(op.seed)]
        argv += list(op.command)
        text = io.StringIO()
        gc.collect()  # garbage left by the last op is not charged to this one
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # an op that crashes is a failed op, not a crashed run
                code = -1
            dt = time.perf_counter() - t0
        return Result(op, dt, code, checked_outputs(self.out, text.getvalue()))


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj


def _judged_as(key: str):
    """'float', 'exact' or None (not judged) for a flattened output key."""
    names = [p for p in key.split(".") if not p.isdigit()]
    if names[-1] in FLOAT_KEYS:
        return "float"
    if names[-1] in EXACT_KEYS or (names[-1] in WITNESS_KEYS and "witness" in names):
        return "exact"
    return None


def checked_outputs(out_dir: Path, stdout: str) -> dict:
    """The outputs an op is judged by, as a flat {key: value} dict."""
    flat = {}
    for path in sorted(Path(out_dir).glob("*.json")):
        _flatten(json.loads(path.read_text()), path.stem, flat)
    checked = {k: v for k, v in flat.items() if _judged_as(k)}
    for line in stdout.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            name, ratio, _, status = m.groups()
            checked[f"proptest.{name}.max_ratio"] = float(ratio)
            checked[f"proptest.{name}.verdict"] = status
        m = _COVARIANCE_LINE.search(line)
        if m:
            checked["proptest.covariance.max_residual"] = float(m.group(1))
        if line.strip() in ("PASS", "FAIL"):
            checked["proptest.verdict"] = line.strip()
    return checked


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _matches(key: str, a, b) -> bool:
    if _judged_as(key) == "float" and _number(a) and _number(b):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b and type(a) is type(b)


def compare(result: Result, ref: dict) -> list:
    """Mismatches of one op against its reference record (empty: passed)."""
    problems = []
    if result.exit_code != ref["exit_code"]:
        problems.append(f"exit code {result.exit_code} != {ref['exit_code']}")
    got, want = result.outputs, ref["outputs"]
    for key in sorted(want):  # outputs added since the reference are not judged
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        if not _matches(key, got[key], want[key]):
            problems.append(f"{key}: {got[key]!r} != {want[key]!r}")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["ops"]


def accuracy_record(results) -> dict:
    """Context only: the range of every float output over a run, by op kind."""
    ranges = {}
    for r in results:
        for key, v in r.outputs.items():
            if _number(v):
                lo, hi = ranges.setdefault(r.op.kind, {}).get(key, (v, v))
                ranges[r.op.kind][key] = (min(lo, v), max(hi, v))
    return {
        kind: {key: {"min": lo, "max": hi} for key, (lo, hi) in sorted(d.items())}
        for kind, d in sorted(ranges.items())
    }
