"""End-to-end and per-layer benchmark of the zakvmo CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload analyze-separable --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

The benchmark drives ``zakvmo.cli.main(argv)`` in process, ``--out`` writes
included, on configs it generates from ``--seed`` (see ``ops.py``).  It
imports ``zakvmo`` from ``src/`` of the checkout and exits with code 2,
printing no result, when that is missing.  One process, one BLAS thread
(the OpenBLAS/OMP/MKL thread variables are pinned to 1 before numpy is
imported) and a closed loop: the next op starts when the last one returns.
The seed draws a run's op mix, some 6 to 10 ops; the run repeats the mix in
seeded order, round after round, until ``--seconds`` have passed, so each
op runs 20 to 30 times (``ops.py``).  Every op's exit code and checked
outputs are compared with ``reference.json``, recorded by
``record_reference.py``; a mismatch is a failed op.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric with its unit and a ``details`` JSON line: the environment (Python,
numpy, BLAS and its thread count, nproc, ``zakvmo.USING_NUMBA``, git
commit), the tail percentile and op count, ``ops_failed_frac``, and the
accuracy record, the range of every checked float per op kind, which is
context only.

End-to-end metrics (``--trace 0``, tracing off):

- ``op_s.p50``: the median op of the mix, each op taken at its median wall
  time over its repeats.  With a mix of cheap and dear ops the plain median
  of all timed ops falls on the edge between the two groups and jumps
  between them from run to run; this one stays put.  The plain median is
  ``wall_op_s.p50`` in ``details``.
- ``op_s.tail``: the highest percentile of op time with at least ten ops
  beyond it; the percentile and op count are in ``details``.
- ``ops_per_s``: ops completed per second of the timed loop.
- ``setup_s``: from starting a fresh interpreter until ``zakvmo.cli`` is
  imported; the median of several starts.
- ``peak_rss_mb``: peak resident memory of the benchmark process.
- ``ops_failed_frac`` is printed in ``details``; it is 0 at a correct
  commit, so it is carried by ``failed`` rather than as a bounded metric.

Per-layer metrics (``--trace 1``): each op runs once untraced and once
traced, in alternating order; the traced copy runs with every public
function of every module wrapped in a span (``layers.py``).  Values are
means per traced op: ``<layer>.<function>.{calls,s,self_s}`` and computed
counts, ``layer.<layer>.self_s`` (the ``_kernels`` module is named
``kernels``, as a metric name starts with a letter), and ``trace.*``:
traced and untraced ``op_s.p50`` (as above), their ratio (the tracing
overhead), and the share of traced op time the top-level layer spans
cover.  A function a workload never calls reads 0.

Workloads, and why each was chosen.  Ops are sized at 0.03 to 0.3 s, so
that each op of a mix runs some 20 to 30 times in one run.

- ``analyze-separable``: ``analyze`` on separable lattices, S = nx = nw =
  84, generator gaussian / box_sine / box, (P, Q) in {(2,1), (3,1), (3,2)},
  grid-exact shifts (on (1/2)Z x 3Z also the invariant shift (1/2, 0)).
  The paper's main chain; the oscillation sweep dominates it.  The box's
  Zak transform is flat on the window, the worst case for a pruned scan, so
  a pruning gain must hold on smooth and flat fields alike.  It never calls
  the Fourier layer or the metaplectic chain: for those changes it is the
  bypass, and the prediction there is no change.
- ``transport``: ``analyze`` on non-separable lattice matrices [2,1,0,1],
  [2,0,1,1], [3,1,1,1] and [1,1,-1,1] at S = 32, a ``metaplectic``
  Zak-formula check at S = 64 and one at S = 128 with SL(2,Q) matrices,
  and ``proptest metaplectic-covariance`` (1 case).  The only workload the
  Fourier layer and the metaplectic chain dominate.
- ``invariance-scan``: on Z x 2Z and (1/2)Z x 3Z, generator gaussian /
  box_sine, S = nx = nw = 144, one ``riesz`` op and an ``invariance`` op
  on a seeded candidate shift; on (1/2)Z x 3Z also the invariant shift
  (1/2, 0).  The paper's question, "invariant under one more shift?"; the
  only workload dominated by ``gabor`` (zz_matrix, batched SVD,
  normal-equation solve, coefficient recovery) and by the
  ``riesz_profile.csv`` write (about 0.7 MB).
- ``diagnostics``: ``uncertainty`` sweeps at S = 48, support +-8, radii up
  to 16, generator gaussian / box / box_sine, and ``proptest
  vmo-inequalities`` (seeded, 5 cases).  The only use of the Gagliardo pair
  sum, and the exhaustive use of ``kernels.osc_scan`` by
  ``check_inequalities``: a change that speeds the decay-profile scan at the
  cost of the exhaustive one shows here.

Layer metric -> the end-to-end metric it should move, on which workload:

- ``vmo.vmo_decay_profile.{calls,s,self_s}``, ``kernels.osc_scan.{calls,
  s,cells}`` -> ``op_s.p50`` on analyze-separable (most of an op); the same
  kernel counters on diagnostics show the exhaustive scan.
- ``vmo.check_inequalities.{calls,s,self_s}`` -> ``op_s.p50`` on
  diagnostics (the proptest ops).
- ``core.fourier_transform.{calls,s,pairs}`` -> ``op_s.p50`` on transport;
  small on diagnostics, absent on analyze-separable and invariance-scan.
- ``metaplectic.apply_metaplectic.s``, ``metaplectic.apply_generator.{J,
  dilation,chirp}.calls``, ``metaplectic.check_zak_formulas.s`` ->
  ``op_s.p50`` on transport; the J count shows chain simplification
  without timing.
- ``symplectic.lattice_reduce.s``, ``symplectic.sl2_factorize.{calls,s}``
  -> ``op_s.p50`` on transport; exact Fraction arithmetic that should stay
  negligible.
- ``zak.zak_transform.{calls,s}`` -> ``op_s.p50`` on invariance-scan and
  analyze-separable (3 calls per ``analyze`` op today).
- ``gabor.zz_matrix.{calls,s}``, ``gabor.riesz_bounds.s``,
  ``gabor.invariance_solve.{s,self_s}``, ``gabor.coefficient_recovery.s``
  -> ``op_s.p50`` and ``peak_rss_mb`` on invariance-scan; a small share of
  analyze-separable.
- ``cli.atomic_write.{calls,s,bytes}`` -> ``op_s.p50`` on invariance-scan
  (the ``riesz`` profile CSV); small elsewhere.
- ``uncertainty.gagliardo_seminorm.s``, ``kernels.gagliardo_pairs.{calls,
  s,pairs}``, ``uncertainty.feichtinger_norm_estimate.s``,
  ``uncertainty.uncertainty_product.s`` -> ``op_s.p50`` on diagnostics;
  absent elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup_seconds() -> float:
    """Median time from spawning an interpreter until zakvmo.cli is imported."""
    code = "import zakvmo.cli, time; print(repr(time.perf_counter()))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.strip()) - t0)
    return statistics.median(times)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    import zakvmo

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "using_numba": zakvmo.USING_NUMBA,
        "commit": git_commit(),
    }


def tail(times):
    """(value, percentile): the highest percentile with >= 10 ops beyond it."""
    s = sorted(times)
    k = len(s) - 10  # rank of the tail op; ten slower ops lie beyond it
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)


def op_times(results) -> list:
    """Each op's median wall time over its repeats, one per op of the mix."""
    per_op = defaultdict(list)
    for r in results:
        per_op[r.op.key].append(r.seconds)
    return [statistics.median(v) for v in per_op.values()]


def op_p50(results) -> float:
    """``op_s.p50``: the median op of the mix, each op at its median time."""
    return statistics.median(op_times(results))


class Session:
    """One benchmark run: runs ops, checks them, keeps the results."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import ops

        self.ops = ops
        self.workload = workload
        self.seed = seed
        self.runner = ops.Runner(workdir)
        self.reference = ops.load_reference()
        self.results = []
        self.failures = []

    def run(self, op):
        res = self.runner.run(op)
        ref = self.reference.get(op.key)
        problems = ["no reference record"] if ref is None else self.ops.compare(res, ref)
        if problems:
            self.failures.append({"op": op.key, "problems": problems[:5]})
        self.results.append(res)
        return res

    def warm_up(self):
        """One untimed round, so lazy set-up is not timed."""
        for op in next(self.ops.rounds(self.workload, self.seed)):
            self.run(op)
        self.results.clear()
        self.failures.clear()  # each op comes round again in the timed loop

    def timed(self, seconds: float, step):
        """Runs whole rounds through ``step`` until ``seconds`` have passed."""
        start = time.perf_counter()
        for n, rnd in enumerate(self.ops.rounds(self.workload, self.seed), 1):
            for op in rnd:
                step(op)
            if time.perf_counter() - start >= seconds:
                return time.perf_counter() - start, n


def measure_untraced(s: Session, seconds: float):
    setup = setup_seconds()
    s.warm_up()
    wall, n_rounds = s.timed(seconds, s.run)
    times = [r.seconds for r in s.results]
    tail_s, tail_pct = tail(times)
    metrics = {
        "op_s.p50": op_p50(s.results),
        "op_s.tail": tail_s,
        "ops_per_s": len(times) / wall,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {
        "rounds": n_rounds,
        "timed_ops": len(times),
        "timed_wall_s": wall,
        "tail_percentile": tail_pct,
        "wall_op_s.p50": statistics.median(times),
    }


def measure_traced(s: Session, seconds: float):
    from layers import Tracer

    tracer = Tracer()
    plain, traced = [], []

    def pair(op):
        for with_trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(s.run(op))
            else:
                plain.append(s.run(op))

    s.warm_up()
    _, n_rounds = s.timed(seconds, pair)
    metrics = tracer.metrics(len(traced))
    p50_plain, p50_traced = op_p50(plain), op_p50(traced)
    metrics.update({
        "trace.untraced_op_s.p50": p50_plain,
        "trace.op_s.p50": p50_traced,
        "trace.overhead_ratio": p50_traced / p50_plain,
        "trace.coverage": tracer.top_level_s / sum(r.seconds for r in traced),
    })
    return metrics, {"rounds": n_rounds, "traced_ops": len(traced)}


def run_workload(args, spec) -> int:
    import ops

    if args.workload not in ops.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(ops.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        s = Session(args.workload, args.seed, workdir)
        if args.trace:
            values, info = measure_traced(s, args.seconds)
            wanted = spec["per_layer"]
        else:
            values, info = measure_untraced(s, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    attempted, failed = len(s.results), len(s.failures)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "ops_failed_frac": failed / max(attempted, 1),
        "failures": s.failures[:10],
        "environment": environment(),
        "accuracy": ops.accuracy_record(s.results),
    })
    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:45s} {m['value']:.6g} {m['unit']}")
    print("details " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process; prints one table of all metrics."""
    combined, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {w['name']} exited with {done.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        combined[w["name"]] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "zakvmo" / "__init__.py").is_file():
        print(f"error: zakvmo sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
