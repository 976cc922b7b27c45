"""End-to-end benchmark of the repro simulator, with an outside-in layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload link-grid --seed 0 --seconds 30 --trace 0

Workloads, the reasons for them, their predictions and the reference report
digests live in ``perfbench/workloads.json``.  Repeats run until
``--seconds`` have passed.  With ``--trace 0`` each repeat runs a set-up
probe (``perfbench/setup_probe.py``), then the workload as a
``python -m repro run`` process into a fresh empty store, then in-process
through ``ExperimentRunner.run()``.  With ``--trace 1`` each repeat runs a
set-up probe and then the CLI entry point in-process, once untraced and
once traced by ``perfbench/spans.py``, and reports per-layer metrics.

Every report digest must equal the others of the run and the reference for
the seed when there is one.  A mismatch or a failed point counts in
``failed_point_ratio``, makes ``correct`` false and the exit status 1.  The
last line of standard output is the JSON result; a human-readable table
with the host fingerprint comes before it, and the full record, every
sample included, is written under ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS_FILE = HERE / "workloads.json"

#: Extra first-point samples per repeat for workloads with more than one point.
FIRST_POINT_EXTRA = 2
#: Longest any single child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 60.0
#: Percentiles considered for the tail figure, highest first.
PERCENTILES = (99, 95, 90, 75)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, a child that crashed...)."""


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    bits: int
    executor: str
    workers: Optional[int]
    reference_digests: Mapping[str, str]

    def run_args(self, seed: int, store: Path, executor: Optional[str] = None) -> List[str]:
        """``repro run`` arguments for this workload into ``store``."""
        executor = executor or self.executor
        args = ["run", self.scenario, "--bits", str(self.bits), "--seed", str(seed),
                "--store", str(store), "--quiet", "--executor", executor]
        if executor == "process":
            args += ["--workers", str(self.workers)]
        return args


def load_workloads(path: Path = WORKLOADS_FILE) -> Dict[str, Workload]:
    data = json.loads(path.read_text())
    return {
        name: Workload(
            name=name,
            scenario=spec["scenario"],
            bits=int(spec["bits"]),
            executor=spec["executor"],
            workers=spec["workers"],
            reference_digests=dict(spec.get("reference_digests", {})),
        )
        for name, spec in data["workloads"].items()
    }


# -- statistics ------------------------------------------------------------------


def describe(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, sample count and the highest percentile with >=10 samples beyond it."""
    ordered = sorted(samples)
    summary: Dict[str, Any] = {"median": statistics.median(ordered), "n": len(ordered)}
    for percentile in PERCENTILES:
        if len(ordered) * (100 - percentile) / 100 >= 10:
            cut = statistics.quantiles(ordered, n=100, method="inclusive")[percentile - 1]
            summary[f"p{percentile}"] = cut
            break
    return summary


def report_digest(report: Mapping[str, Any]) -> str:
    """SHA-256 prefix of the report's canonical JSON (the artefact id suffix)."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# -- environment -----------------------------------------------------------------


def pinned_environment(work: Path) -> Dict[str, str]:
    """The environment every run sees: no chaos, no kernel override, owned caches."""
    env = dict(os.environ)
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_KERNEL", None)
    env["REPRO_CEXT_CACHE"] = str(work / "cext")
    env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- child processes ---------------------------------------------------------------


def _wait(process: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Reap ``process``; returns its exit code and peak RSS in MiB.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it reaped, so pool workers count.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return process.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            process.kill()
            process.wait()
            raise BenchmarkError(f"child {process.args!r} exceeded {timeout:.0f} s")
        time.sleep(0.001)


def run_setup_probe(workload: Workload, env: Dict[str, str]) -> Tuple[float, Dict[str, Any]]:
    """One fresh-interpreter set-up; returns its wall time and the probe's record."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload.scenario,
            str(workload.bits), workload.executor, str(workload.workers or 0)]
    started = time.perf_counter()
    process = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([process.stdout], [], [], CHILD_TIMEOUT_S)
        line = process.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - started
    finally:
        code, _rss = _wait(process, CHILD_TIMEOUT_S)
        process.stdout.close()
    if code != 0 or not line:
        raise BenchmarkError(f"set-up probe for {workload.name} failed with exit code {code}")
    return elapsed, json.loads(line)


def read_artifact(store: Path) -> Dict[str, Any]:
    """The single report artefact in ``store``, checked against its own id."""
    artefacts = sorted(store.glob("*.json"))
    if len(artefacts) != 1:
        raise BenchmarkError(f"expected one artefact in {store}, found {len(artefacts)}")
    report = json.loads(artefacts[0].read_text())["report"]
    if not artefacts[0].stem.endswith(report_digest(report)):
        raise BenchmarkError(f"artefact {artefacts[0].name} does not match its content")
    return report


def run_cli_process(workload: Workload, seed: int, env: Dict[str, str], work: Path) -> Tuple[float, float, Dict[str, Any]]:
    """``python -m repro run`` into a fresh empty store: wall s, peak RSS MiB, report."""
    store = fresh_dir(work / "store")
    # A fresh user cache too, so no cache outside the store can serve the run.
    env = {**env, "XDG_CACHE_HOME": str(fresh_dir(work / "xdg-cache"))}
    with open(work / "cli.stderr", "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-m", "repro", *workload.run_args(seed, store)],
                                   env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=stderr)
        code, rss = _wait(process, CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
    if code != 0:
        message = (work / "cli.stderr").read_text(errors="replace").strip()
        raise BenchmarkError(f"repro run exited with {code}: {message[-500:]}")
    return elapsed, rss, read_artifact(store)


# -- in-process runs -----------------------------------------------------------------


def _runner(workload: Workload, seed: int):
    from repro.frontdoor import RunRequest

    request = RunRequest.build(workload.scenario, seed=seed, bits=workload.bits)
    workers = workload.workers if workload.executor == "process" else None
    return request.runner(executor=workload.executor, workers=workers)


def run_in_process(workload: Workload, seed: int) -> Tuple[float, float, Dict[str, Any]]:
    """Warm ``ExperimentRunner.run()``: first-point s, wall s, report mapping."""
    runner = _runner(workload, seed)
    first: List[float] = []

    def progress(done: int, _total: int) -> None:
        if done == 1:
            first.append(time.perf_counter())

    started = time.perf_counter()
    report = runner.run(progress=progress)
    elapsed = time.perf_counter() - started
    return first[0] - started, elapsed, report.to_mapping()


def first_point_in_process(workload: Workload, seed: int) -> float:
    """Seconds from opening ``ExperimentRunner.session()`` to its first point.

    The session is closed right after, which cancels the points not yet
    started.
    """
    runner = _runner(workload, seed)
    started = time.perf_counter()
    with runner.session() as session:
        next(iter(session))
        return time.perf_counter() - started


def run_cli_in_process(workload: Workload, seed: int, work: Path, executor: str) -> Tuple[float, Dict[str, Any]]:
    """The ``repro run`` entry point called in this process: wall s and report."""
    from repro import cli

    store = fresh_dir(work / "store")
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(workload.run_args(seed, store, executor=executor))
    elapsed = time.perf_counter() - started
    if code != 0:
        raise BenchmarkError(f"repro run exited with {code}: {sink.getvalue()[-500:]}")
    return elapsed, read_artifact(store)


# -- output check ----------------------------------------------------------------------


@dataclass
class OutputCheck:
    """Every report of a run must match the reference, or the first one seen."""

    expected_points: int
    expected: Optional[str] = None
    reference: bool = False
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def check(self, label: str, report: Mapping[str, Any]) -> str:
        digest = report_digest(report)
        points = len(report.get("points", ()))
        simulated = all(point.get("symbols", 0) > 0 for point in report.get("points", ()))
        if self.expected is None:
            self.expected = digest
        self.attempted += self.expected_points
        if digest == self.expected and points == self.expected_points and simulated:
            return digest
        # A report that differs from the expected one cannot vouch for any point.
        self.failed += self.expected_points
        self.mismatches.append(f"{label}: digest {digest}, {points} point(s), expected {self.expected}")
        return digest

    def crashed(self, label: str, error: Exception) -> None:
        self.attempted += self.expected_points
        self.failed += self.expected_points
        self.mismatches.append(f"{label}: {error}")

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# -- measurement ------------------------------------------------------------------------


def repeats(seconds: float):
    """Repeat numbers 1, 2, ... until ``seconds`` have passed (at least one)."""
    deadline = time.perf_counter() + seconds
    repeat = 0
    while repeat == 0 or time.perf_counter() < deadline:
        repeat += 1
        yield repeat


def measure_end_to_end(workload: Workload, seed: int, seconds: float, env: Dict[str, str],
                       work: Path, check: OutputCheck) -> Dict[str, Any]:
    """End-to-end samples.

    Each repeat runs a set-up probe, a ``repro run`` process and a warm
    in-process run, plus, for workloads of more than one point, a few
    sessions stopped at their first point.
    """
    _wall, first_probe = run_setup_probe(workload, env)  # warms the C kernel cache; not timed
    check.check("warm-up in-process", run_in_process(workload, seed)[2])
    samples: Dict[str, List[float]] = {
        name: [] for name in ("setup_s", "run_s", "peak_rss_mb", "symbols_per_s", "first_point_s")
    }
    for repeat in repeats(seconds):
        samples["setup_s"].append(run_setup_probe(workload, env)[0])
        try:
            wall, rss, report = run_cli_process(workload, seed, env, work)
            check.check(f"cli repeat {repeat}", report)
            samples["run_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
        except BenchmarkError as error:
            check.crashed(f"cli repeat {repeat}", error)
        first, wall, report = run_in_process(workload, seed)
        check.check(f"in-process repeat {repeat}", report)
        samples["first_point_s"].append(first)
        if check.expected_points > 1:
            # Cheap when the first point is a small part of the run: more samples.
            samples["first_point_s"] += [first_point_in_process(workload, seed) for _ in range(FIRST_POINT_EXTRA)]
        samples["symbols_per_s"].append(sum(p["symbols"] for p in report["points"]) / wall)
    return {"samples": samples, "fingerprint": first_probe["fingerprint"]}


def layer_metrics(table: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, from :func:`spans.summarise`."""

    def get(key: str, item: str) -> float:
        return float(table.get(key, {}).get(item, 0.0))

    def rate(key: str) -> float:
        busy = get(key, "self_s")
        return get(key, "items") / busy if busy > 0 else 0.0

    flushes = get("inside:noc.bus/core.transmit", "calls")
    metrics = {
        "core.transmit.self_s": get("core.transmit", "self_s"),
        "core.transmit.calls": get("core.transmit", "calls"),
        "core.make_link.self_s": get("core.make_link", "self_s"),
        "core.make_link.calls": get("core.make_link", "calls"),
        "simulation.trial.self_s": get("simulation.trial", "self_s"),
        "simulation.run_batch.chunks": get("inside:simulation.run_batch/simulation.trial", "calls"),
        "modulation.encode.self_s": get("modulation.encode", "self_s"),
        "modulation.decode.self_s": get("modulation.decode", "self_s"),
        "spad.detect.self_s": get("spad.detect", "self_s"),
        "spad.detect.windows": get("spad.detect", "windows"),
        "tdc.convert.self_s": get("tdc.convert", "self_s"),
        "tdc.convert.detections": get("tdc.convert", "detections"),
        "photonics.crosstalk.self_s": get("photonics.crosstalk", "self_s"),
        "noc.bus.self_s": get("noc.bus", "self_s"),
        "noc.flushes": flushes,
        "noc.symbols_per_flush": get("inside:noc.bus/core.transmit", "symbols") / flushes if flushes else 0.0,
    }
    for kernel in ("scan_windows", "resolve_windows", "arbitrate"):
        metrics[f"kernels.{kernel}.self_s"] = get(f"kernels.{kernel}", "self_s")
        metrics[f"kernels.{kernel}.items_per_s"] = rate(f"kernels.{kernel}")
    return metrics


def executor_metrics(table: Mapping[str, Mapping[str, float]], instrumentation: Any) -> Dict[str, float]:
    """Executor, report and store metrics of one traced pass, timed from the parent."""

    def get(key: str, item: str) -> float:
        return float(table.get(key, {}).get(item, 0.0))

    return {
        "scenarios.executor.wait_s": get("scenarios.executor", "self_s"),
        "scenarios.executor.retries": float(instrumentation.executor_stat("retries")),
        "scenarios.executor.failures": float(instrumentation.executor_stat("failures")),
        "scenarios.report.assemble_s": get("scenarios.report", "self_s"),
        "scenarios.store.save_s": get("scenarios.store", "self_s"),
        "scenarios.store.bytes": get("scenarios.store", "bytes"),
    }


class TracedPass(NamedTuple):
    wall: float
    report: Dict[str, Any]
    table: Dict[str, Dict[str, float]]  # spans.summarise of the pass
    instrumentation: spans.Instrumentation  # already removed
    unattributed: float  # wall seconds no top-level span covers


def traced_pass(workload: Workload, seed: int, work: Path, executor: str,
                layers: Sequence[str], points: bool) -> TracedPass:
    """One in-process ``repro run`` with spans on ``layers``."""
    recorder = spans.Recorder()
    instrumentation = spans.Instrumentation(recorder, layers=layers, points=points)
    with instrumentation:
        started = time.perf_counter()
        wall, report = run_cli_in_process(workload, seed, work, executor)
        ended = time.perf_counter()
    return TracedPass(wall, report, spans.summarise(recorder.spans), instrumentation,
                      spans.unattributed(recorder.spans, started, ended))


def measure_layers(workload: Workload, seed: int, seconds: float, env: Dict[str, str],
                   work: Path, check: OutputCheck) -> Dict[str, Any]:
    """Traced passes for per-layer metrics, alternating with untraced ones.

    Layer spans come from passes that run every point in this process on
    the serial executor.  A workload that runs on a process pool gets one
    more traced pass per repeat on that pool, with only the executor,
    report and store entry points wrapped, so the executor layer is timed
    from the parent as the workload really runs.
    """
    _wall, first_probe = run_setup_probe(workload, env)  # warms the C kernel cache; not timed
    run_cli_in_process(workload, seed, work, "serial")  # warm-up, not timed
    samples: Dict[str, List[float]] = {}
    untraced: List[float] = []
    traced: List[float] = []

    def add(metrics: Mapping[str, float]) -> None:
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)

    for repeat in repeats(seconds):
        probe = run_setup_probe(workload, env)[1]
        add({f"setup.{key}": probe[key] for key in ("import_s", "resolve_s", "kernel_load_s", "pool_start_s")})
        # Alternate which pass goes first, so their order does not bias the overhead.
        for is_traced in (repeat % 2 == 0, repeat % 2 == 1):
            if not is_traced:
                wall, report = run_cli_in_process(workload, seed, work, "serial")
                check.check(f"untraced repeat {repeat}", report)
                untraced.append(wall)
                continue
            layered = traced_pass(workload, seed, work, "serial",
                                  layers=tuple(spans.LAYERS) + ("kernels",), points=True)
            check.check(f"traced repeat {repeat}", layered.report)
            traced.append(layered.wall)
            add(layer_metrics(layered.table))
            add({"trace.unattributed_s": layered.unattributed})
        executor_pass = layered
        if workload.executor != "serial":
            executor_pass = traced_pass(workload, seed, work, workload.executor,
                                        layers=("scenarios",), points=False)
            check.check(f"traced {workload.executor} repeat {repeat}", executor_pass.report)
        add(executor_metrics(executor_pass.table, executor_pass.instrumentation))
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {
        "samples": samples,
        "overhead": overhead,
        "untraced_s": untraced,
        "traced_s": traced,
        "fingerprint": first_probe["fingerprint"],
        "layer_executor": "serial",
    }


# -- command line -------------------------------------------------------------------------------


def load_benchmark_metrics() -> Tuple[Dict[str, str], Dict[str, str]]:
    """Units of the end-to-end and per-layer metrics declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def expected_points(workload: Workload) -> int:
    from repro.frontdoor import resolve_scenario

    return resolve_scenario(name=workload.scenario, bits=workload.bits).point_count()


def prepare(work: Path) -> Dict[str, str]:
    """Check the sources exist and pin this process's environment like the children's."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}; run from a full checkout")
    env = pinned_environment(work)
    for key in ("REPRO_CHAOS", "REPRO_KERNEL"):
        os.environ.pop(key, None)
    for key in ("REPRO_CEXT_CACHE", "XDG_CACHE_HOME"):
        os.environ[key] = env[key]
    sys.path.insert(0, str(SRC))
    return env


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    """Run one workload; returns the full record (samples, result, checks)."""
    env = prepare(work)
    reference = workload.reference_digests.get(str(seed))
    check = OutputCheck(expected_points=expected_points(workload), expected=reference,
                        reference=reference is not None)
    measure_run = measure_layers if trace else measure_end_to_end
    record = measure_run(workload, seed, seconds, env, work, check)
    metrics = {name: statistics.median(values) for name, values in record["samples"].items()}
    if trace:
        metrics["trace.overhead"] = record["overhead"]
    record.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        digest=check.expected,
        reference_checked=check.reference,
        mismatches=check.mismatches,
        attempted=check.attempted,
        failed=check.failed,
        failed_point_ratio=check.failed_ratio,
        metrics=metrics,
    )
    return record


def result_line(record: Mapping[str, Any], units: Mapping[str, str]) -> Dict[str, Any]:
    missing = sorted(set(units) - set(record["metrics"]))
    if missing:
        raise BenchmarkError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": not record["mismatches"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def render(record: Mapping[str, Any], units: Mapping[str, str]) -> str:
    lines = [f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}"]
    samples = record["samples"]
    for name, unit in units.items():
        if name not in samples:  # derived from the medians of other samples
            lines.append(f"  {name:34s} {record['metrics'][name]:.6g} {unit}")
            continue
        summary = describe(samples[name])
        tail = "".join(f", {key} {value:.6g}" for key, value in summary.items() if key.startswith("p"))
        lines.append(f"  {name:34s} {summary['median']:.6g} {unit} (median of {summary['n']}{tail})")
    lines.append(f"  {'failed_point_ratio':34s} {record['failed_point_ratio']:.6g} ratio "
                 f"({record['failed']} of {record['attempted']} points)")
    if record["trace"]:
        lines.append(f"  layer spans traced with every point in-process ({record['layer_executor']} executor)")
    checked = "reference" if record["reference_checked"] else "held-out seed, determinism only"
    lines.append(f"  report digest {record['digest']} ({checked})")
    for mismatch in record["mismatches"]:
        lines.append(f"  MISMATCH {mismatch}")
    lines.append("  host " + json.dumps(record["fingerprint"], sort_keys=True))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None, workloads: Optional[Mapping[str, Workload]] = None,
         work: Path = ROOT / ".perfbench") -> int:
    workloads = workloads if workloads is not None else load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        end_to_end, per_layer = load_benchmark_metrics()
        units = per_layer if args.trace else end_to_end
        record = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace), work)
        line = result_line(record, units)
    except (BenchmarkError, FileNotFoundError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    records = work / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2, sort_keys=True, default=str))
    print(render(record, units))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
