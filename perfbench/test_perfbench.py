"""Tests of the benchmark itself: seeded op lists, the correctness check,
removal of the layer wrappers, layer-span coverage, and the result contract."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _op_keys(workload, seed, n_rounds=3):
    gen = ops.rounds(workload, seed)
    return [op.key for _ in range(n_rounds) for op in next(gen)]


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_seed_fixes_the_op_list(workload):
    assert _op_keys(workload, 7) == _op_keys(workload, 7)
    assert _op_keys(workload, 7) != _op_keys(workload, 8)


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_every_round_repeats_the_run_mix(workload):
    mix = sorted(op.key for op in ops.run_mix(workload, 5))
    gen = ops.rounds(workload, 5)
    for _ in range(3):
        assert sorted(op.key for op in next(gen)) == mix


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(ops.WORKLOADS)


def test_every_catalogue_op_has_a_passing_reference():
    ref = ops.load_reference()
    for workload in ops.WORKLOADS:
        for op in ops.catalogue(workload):
            assert ref[op.key]["exit_code"] == 0, op.key


def _as_recorded(op):
    """A result equal to the reference record of ``op``, and that record."""
    ref = ops.load_reference()[op.key]
    return ops.Result(op, 0.0, ref["exit_code"], copy.deepcopy(ref["outputs"])), ref


def _invariant_analyze():
    """Gaussian on (1/2)Z x 3Z, shift (1/2, 0): invariant, with a witness cube."""
    return _as_recorded(next(
        o for o in ops.catalogue("analyze-separable")
        if o.config["recipe"] == "gaussian" and o.config["lattice"] == {"P": 3, "Q": 2}
        and o.config["shift"] == ["1/2", "0"]
    ))


def test_reference_outputs_pass():
    res, ref = _invariant_analyze()
    assert ops.compare(res, ref) == []


@pytest.mark.parametrize("key, change", [
    ("summary.summary.zak_vmo_profile", lambda v: "vmo-consistent"),
    ("invariance.verdict", lambda v: "not-invariant"),
    ("summary.vmo_profile.s_values.2", lambda v: v + 1e-6),
    ("summary.vmo_profile.witness.cx", lambda v: v + 1 / 84),
    ("riesz.a_est", lambda v: v + 1e-6),
])
def test_perturbed_output_fails(key, change):
    res, ref = _invariant_analyze()
    res.outputs[key] = change(res.outputs[key])
    assert ops.compare(res, ref)


def test_failed_proptest_fails():
    res, ref = _as_recorded(next(o for o in ops.catalogue("diagnostics") if o.kind.startswith("proptest")))
    assert ops.compare(res, ref) == []
    res.outputs["proptest.verdict"] = "FAIL"
    assert ops.compare(res, ref)


def test_changed_exit_code_fails():
    res, ref = _invariant_analyze()
    res.exit_code = 3
    assert ops.compare(res, ref)


def test_rounding_level_residual_change_passes():
    res, ref = _invariant_analyze()
    assert ref["outputs"]["invariance.max_residual"] < 1e-11
    res.outputs["invariance.max_residual"] = 1.3e-15
    res.outputs["summary.invariance.max_residual"] = 1.3e-15
    assert ops.compare(res, ref) == []


def _first_op_of_each_kind(workload):
    first = {}
    for op in ops.catalogue(workload):
        first.setdefault(op.kind, op)
    return list(first.values())


def test_tracer_restores_every_binding(tmp_path):
    from zakvmo import gabor, zak

    before = {(mod.__name__, attr): val for mod, attr, val in layers.package_bindings()}
    original = zak.zak_transform
    tracer = layers.Tracer()
    with tracer:
        assert zak.zak_transform is not original
        assert gabor.zak_transform is zak.zak_transform
        res = ops.Runner(tmp_path).run(_first_op_of_each_kind("invariance-scan")[0])
    assert res.exit_code == 0
    assert tracer.stats["zak.zak_transform"]["calls"] >= 1
    after = {(mod.__name__, attr): val for mod, attr, val in layers.package_bindings()}
    assert all(after[key] is val for key, val in before.items())


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_layer_spans_cover_traced_op_time(workload, tmp_path):
    runner, ref = ops.Runner(tmp_path), ops.load_reference()
    tracer = layers.Tracer()
    total = 0.0
    for op in _first_op_of_each_kind(workload):
        with tracer:
            res = runner.run(op)
        assert ops.compare(res, ref[op.key]) == [], op.key
        total += res.seconds
    assert tracer.top_level_s >= 0.8 * total


def test_per_layer_metrics_name_wrapped_spans():
    spans = {name for name, _ in layers.layer_functions()}
    counters = {"calls", "s", "self_s", "cells", "pairs", "bytes", "J.calls", "dilation.calls", "chirp.calls"}
    for m in SPEC["per_layer"]:
        parts = m["name"].split(".")
        if parts[0] == "trace":
            continue
        if parts[0] == "layer":
            assert parts[1] in map(layers.layer_name, layers.LAYERS) and parts[2:] == ["self_s"], m["name"]
            continue
        assert ".".join(parts[:2]) in spans, m["name"]
        assert ".".join(parts[2:]) in counters, m["name"]


def test_op_p50_takes_each_op_at_its_median_time():
    a, b, c = ops.catalogue("diagnostics")[:3]
    timed = ((a, 0.1), (b, 0.5), (c, 0.9), (a, 0.2), (b, 0.6), (c, 1.0), (a, 0.3), (b, 0.4), (c, 0.8))
    results = [ops.Result(op, t, 0, {}) for op, t in timed]
    assert sorted(run.op_times(results)) == [0.2, 0.5, 0.9]
    assert run.op_p50(results) == 0.5


def test_tail_keeps_ten_ops_beyond():
    times = [float(i) for i in range(1, 31)]
    value, pct = run.tail(times)
    assert value == 20.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transport", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
