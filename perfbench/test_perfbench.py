"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy.linalg
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from thermoplate import bounded, multipliers, torus  # noqa: E402

MODULES = {"multipliers": multipliers, "torus": torus, "bounded": bounded,
           "numpy.linalg": numpy.linalg, "scipy.linalg": scipy.linalg}


def test_self_times_on_nested_trace():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.child", 6.0, 8.0, 3],
        ["b.child", 7.0, 9.5, 3],  # overlaps its sibling and outlives b
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.5])
    agg = tracing.totals_by_name(spans)
    assert agg["b.child"] == pytest.approx((2, 4.5, 4.5))
    assert agg["root"] == pytest.approx((1, 10.0, 3.0))


def test_tracer_records_parents():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    with tracer.span("outer"):
        assert inner(1) == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0)]
    assert not tracer.stack


@pytest.mark.parametrize("name", ["run_s", "symbols.adjugate.points_per_call", "a-b", "9x"])
def test_valid_metric_names(name):
    assert tracing.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "cli/x", "run_s\n", "θ", "x" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        tracing.check_metric_name(name)


def test_declared_metrics_match_reported():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in declared["end_to_end"] + declared["per_layer"]:
        tracing.check_metric_name(entry["name"])
    reported = set(tracing.layer_metrics(tracing.Tracer(), 0))
    reported |= {"trace.run_s", "trace.untraced_run_s", "trace.overhead_frac"}
    assert {e["name"] for e in declared["per_layer"]} == reported
    units = tracing.units(dict.fromkeys(reported))
    assert all(units[e["name"]] == e["unit"] for e in declared["per_layer"])


def test_wrappers_restore_every_attribute():
    targets = tracing.layer_wrappers(tracing.Tracer(), MODULES)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    assert len({(id(o), a) for o, a, _ in originals}) == len(originals)
    with pytest.raises(RuntimeError):
        with tracing.patched(targets):
            assert all(getattr(o, a) is w for o, a, w in targets)
            raise RuntimeError("leave the traced block early")
    assert all(getattr(o, a) is f for o, a, f in originals)


def test_traced_entry_scans_count_every_point():
    tracer = tracing.Tracer()
    sample = multipliers.SectorSample(lambda_moduli=(1.0, 10.0), xi_moduli=(0.5, 2.0),
                                      arg_fractions=(0.0, 0.5))
    with tracing.patched(tracing.layer_wrappers(tracer, MODULES)):
        multipliers.scaled_resolvent_entry_scans(0, sample)
    m = tracing.layer_metrics(tracer, 0)
    assert m["multipliers.scans"] == 9
    assert m["multipliers.symbol_evals"] > 0
    # every stencil point reaches the adjugate exactly once
    assert m["symbols.adjugate.points"] == m["multipliers.eval_points"]
    parents = {s[3] for s in tracer.spans if s[0] == "symbols.adjugate"}
    assert {tracer.spans[p][0] for p in parents} == {"multipliers.symbol"}


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runner_counts_failures_and_goes_on():
    def fake(op, scratch, span=None):
        if op.name == "bad":
            raise RuntimeError("boom")
        return 5

    ops = [types.SimpleNamespace(name=n) for n in ("good", "bad", "good")]
    runner = run.Runner(fake, ops, "unused")
    runner.one_pass()
    assert runner.attempted == 3
    assert runner.failures == ["bad: RuntimeError: boom"]
    assert runner.artifact_bytes == 10


def test_runner_times_the_reference_after_every_operation():
    ops = [types.SimpleNamespace(name=n) for n in ("a", "b")]
    runner = run.Runner(lambda op, scratch, span=None: 0, ops, "unused",
                        lambda seconds: [0.5] if seconds < 1.0 else [])
    runner.one_pass()
    runner.one_pass()
    assert runner.reference_samples == [0.5] * 4
    assert len(hostspeed.samples_after(0.0)) == 1
    assert len(hostspeed.samples_after(3.1 * hostspeed.SAMPLE_EVERY_S)) == 3
    assert hostspeed.rescale(3.0, [0.1, 0.5, 0.9]) == pytest.approx(
        3.0 * hostspeed.REFERENCE_S / 0.5)


def test_pass_seconds_sums_operation_medians():
    passes = [[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]
    assert run.pass_seconds(passes) == pytest.approx(2.0 + 5.0)


@pytest.mark.parametrize("check, name, payload", [
    ("_check_decay", "decay.json", {"decaying": True, "relative_gap": 0.142}),
    ("_check_spectrum_free", "spectrum.json", {"kernel_dimension": 4, "zero_cluster_count": 5}),
    ("_check_converge", "converge.json", {"orders": [2.0, 1.4]}),
])
def test_missed_bars_fail(tmp_path, check, name, payload):
    (tmp_path / name).write_text(json.dumps(payload))
    with pytest.raises(workloads.OperationFailed):
        getattr(workloads, check)(str(tmp_path))


def test_manifest_digest_mismatch_fails(tmp_path):
    (tmp_path / "decay.json").write_text("{}")
    manifest = {"command": "decay", "checks": {"rate_matches_spectrum": True},
                "artifacts": {"decay.json": "0" * 64}}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(workloads.OperationFailed, match="sha256"):
        workloads._check_manifest(str(tmp_path), "decay")
