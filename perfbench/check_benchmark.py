"""Tests of the benchmark itself: span arithmetic, wrapper removal, output checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spans

run.prepare(Path(run.ROOT / ".perfbench"))

#: Small budgets of the scenario families the workloads use.
TINY = {
    "tiny-link": run.Workload("tiny-link", "design-space-grid", 2_000, "serial", None, {}),
    "tiny-noc": run.Workload("tiny-noc", "noc-load-latency", 1_024, "process", 2, {}),
    "tiny-imager": run.Workload("tiny-imager", "spad-array-imager", 8_192, "serial", None, {}),
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 3), (2, 5), (7, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered_length([], 0, 10) == 0.0


def test_self_time_of_a_synthetic_nested_call(monkeypatch):
    clock = FakeClock()
    module = types.ModuleType("synthetic_layers")

    class Inner:
        def step(self, cost: float) -> None:
            clock.now += cost

    class Outer:
        def run(self) -> None:
            clock.now += 1.0
            Inner().step(2.0)
            clock.now += 3.0
            Inner().step(0.5)
            clock.now += 0.25

    module.Inner, module.Outer = Inner, Outer
    monkeypatch.setitem(sys.modules, "synthetic_layers", module)
    monkeypatch.setitem(spans.LAYERS, "synthetic", (
        spans.Target("synthetic_layers", "Outer", "run", "outer"),
        spans.Target("synthetic_layers", "Inner", "step", "inner"),
    ))
    recorder = spans.Recorder(clock=clock)
    with spans.Instrumentation(recorder, layers=["synthetic"], points=False):
        Outer().run()
    table = spans.summarise(recorder.spans)
    outer = recorder.spans[0]
    assert outer.end - outer.start == pytest.approx(6.75)
    assert table["outer"]["self_s"] == pytest.approx(6.75 - 2.5)
    assert table["inner"] == {"calls": 2, "self_s": pytest.approx(2.5)}
    assert table["inside:outer/inner"]["calls"] == 2
    assert spans.unattributed(recorder.spans, -1.0, 7.0) == pytest.approx(8.0 - 6.75)


def test_self_time_subtracts_overlapping_children_once():
    recorded = [
        spans.Span("parent", 0.0, 10.0),
        spans.Span("child", 1.0, 4.0, parent=0),
        spans.Span("child", 3.0, 6.0, parent=0),
        spans.Span("grandchild", 1.5, 2.0, parent=1),
    ]
    assert spans.self_times(recorded) == pytest.approx([5.0, 2.5, 3.0, 0.5])


def test_generator_spans_cover_only_the_time_inside_the_generator(monkeypatch):
    clock = FakeClock()
    module = types.ModuleType("synthetic_stream")

    class Source:
        def items(self):
            for value in range(3):
                clock.now += 1.0
                yield value

    module.Source = Source
    monkeypatch.setitem(sys.modules, "synthetic_stream", module)
    monkeypatch.setitem(spans.LAYERS, "stream", (spans.Target("synthetic_stream", "Source", "items", "source"),))
    recorder = spans.Recorder(clock=clock)
    with spans.Instrumentation(recorder, layers=["stream"], points=False) as instrumentation:
        source = Source()
        for _ in source.items():
            clock.now += 10.0  # consumer time, outside the generator
    table = spans.summarise(recorder.spans)
    assert table["source"]["self_s"] == pytest.approx(3.0)
    assert list(instrumentation.executors.values()) == [source]


def _entry_points():
    import repro.core.backend
    import repro.kernels
    import repro.noc.bus
    import repro.spad.device
    from repro.core.fastlink import FastOpticalLink
    from repro.scenarios.executors import SerialExecutor

    return {
        "transmit": FastOpticalLink.__dict__["transmit_bits"],
        "map_tasks": SerialExecutor.__dict__["map_tasks"],
        "make_link": repro.core.backend.make_link,
        "get_kernel": repro.kernels.get_kernel,
        "bus_get_kernel": repro.noc.bus.get_kernel,
        "device_get_kernel": repro.spad.device.get_kernel,
    }


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _entry_points()
    with spans.Instrumentation(spans.Recorder()) as instrumentation:
        assert _entry_points()["transmit"] is not before["transmit"]
        assert _entry_points()["device_get_kernel"] is not before["device_get_kernel"]
        run.run_cli_in_process(TINY["tiny-link"], 0, tmp_path, "serial")
    assert _entry_points() == before
    assert instrumentation._patches == []


def test_wrappers_are_removed_when_the_traced_run_raises():
    before = _entry_points()
    with pytest.raises(ZeroDivisionError):
        with spans.Instrumentation(spans.Recorder()):
            1 / 0
    assert _entry_points() == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_gives_the_untraced_digest_and_spans_every_layer(name, tmp_path):
    workload = TINY[name]
    _wall, untraced = run.run_cli_in_process(workload, 3, tmp_path, "serial")
    traced = run.traced_pass(workload, 3, tmp_path, "serial",
                             layers=tuple(spans.LAYERS) + ("kernels",), points=True)
    assert run.report_digest(traced.report) == run.report_digest(untraced)
    metrics = run.layer_metrics(traced.table)
    for metric in ("core.transmit.calls", "simulation.run_batch.chunks", "spad.detect.windows",
                   "tdc.convert.detections", "modulation.encode.self_s"):
        assert metrics[metric] > 0, metric
    if name == "tiny-noc":
        assert metrics["noc.flushes"] > 0 and metrics["noc.symbols_per_flush"] > 0
    if name == "tiny-imager":
        assert metrics["kernels.resolve_windows.items_per_s"] > 0
        assert metrics["photonics.crosstalk.self_s"] > 0


def test_process_pool_pass_times_the_executor_from_the_parent(tmp_path):
    workload = TINY["tiny-noc"]
    _wall, serial = run.run_cli_in_process(workload, 0, tmp_path, "serial")
    pooled = run.traced_pass(workload, 0, tmp_path, "process", layers=("scenarios",), points=False)
    assert run.report_digest(pooled.report) == run.report_digest(serial)
    metrics = run.executor_metrics(pooled.table, pooled.instrumentation)
    assert metrics["scenarios.executor.wait_s"] > 0
    assert metrics["scenarios.executor.retries"] == 0
    assert metrics["scenarios.store.bytes"] > 0


def test_describe_reports_a_tail_percentile_only_with_ten_samples_beyond_it():
    assert set(run.describe([1.0] * 39)) == {"median", "n"}
    summary = run.describe([float(i) for i in range(40)])
    assert summary["n"] == 40 and "p75" in summary
    assert "p90" in run.describe([float(i) for i in range(100)])


def _main(capsys, tmp_path, workload, seed):
    code = run.main(["--workload", workload.name, "--seed", str(seed), "--seconds", "0"],
                    workloads={workload.name: workload}, work=tmp_path)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_reference_seed_passes_and_a_wrong_reference_exits_nonzero(capsys, tmp_path):
    base = TINY["tiny-link"]
    digest = run.report_digest(run.run_in_process(base, 0)[2])
    good = run.Workload(**{**base.__dict__, "reference_digests": {"0": digest}})
    code, line = _main(capsys, tmp_path, good, 0)
    assert code == 0 and line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == {"setup_s", "run_s", "symbols_per_s", "first_point_s", "peak_rss_mb"}

    bad = run.Workload(**{**base.__dict__, "reference_digests": {"0": "0" * 12}})
    code, line = _main(capsys, tmp_path, bad, 0)
    assert code == 1
    assert not line["correct"] and line["failed"] == line["attempted"]


def test_held_out_seed_passes_determinism_checks(capsys, tmp_path):
    workload = TINY["tiny-noc"]
    assert "11" not in workload.reference_digests
    code, line = _main(capsys, tmp_path, workload, 11)
    assert code == 0 and line["correct"]


def test_shipped_references_match_the_declared_workloads():
    workloads = run.load_workloads()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    default = json.loads(run.WORKLOADS_FILE.read_text())["default_seed"]
    for workload in workloads.values():
        assert str(default) in workload.reference_digests
