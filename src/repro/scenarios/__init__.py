"""Declarative scenario/experiment layer — how the package is driven.

The paper's figures are *experiments*: sweeps of error rate and throughput
over operating points.  This subsystem makes them first-class:

* :mod:`repro.scenarios.scenario` — the frozen, JSON-round-trippable
  :class:`Scenario` value object (link overrides, sweep axes, metrics, trial
  budget, backend, seed policy).
* :mod:`repro.scenarios.metrics` — the registry of named figures of merit
  evaluated per grid point.
* :mod:`repro.scenarios.library` — named paper scenarios
  (``ber-vs-photons``, ``ber-vs-range``, ``design-space-grid``,
  ``multi-chip-bus``, ``spad-array-imager``, ``crosstalk-vs-pitch``,
  ``ppm-order-sweep``).
* :mod:`repro.scenarios.executors` — pluggable grid-point dispatch:
  :class:`SerialExecutor` (in-process), :class:`ThreadExecutor` (thread
  pool; overlaps only the native kernels' GIL-free calls), :class:`ProcessExecutor`
  (process pool), and the cluster executor (:mod:`repro.cluster`, socket
  fleet) — all bit-identical to each other by construction.
* :mod:`repro.scenarios.faults` — fault tolerance: :class:`RetryPolicy`
  (retries/timeouts/deterministic backoff), :class:`PointFailure` records,
  and the seeded :class:`ChaosSchedule`/:class:`ChaosExecutor` fault-
  injection harness.
* :mod:`repro.scenarios.session` — :class:`ExperimentSession`, the streaming
  execution shape: points are yielded as they complete.
* :mod:`repro.scenarios.runner` — :class:`ExperimentRunner`, which compiles a
  scenario into picklable point tasks, dispatches them through an executor,
  and returns a structured :class:`ExperimentReport`.
* :mod:`repro.scenarios.store` — :class:`ReportStore`, content-addressed JSON
  artefacts of experiment reports (save/load/latest/compare).
* :mod:`repro.scenarios.smoke` — tiny-budget execution of the whole library.

Everything here is also drivable without writing Python:
``python -m repro run ber-vs-photons`` (see :mod:`repro.cli`).

Quickstart
----------

>>> from repro.scenarios import ExperimentRunner, get_scenario
>>> scenario = get_scenario("ber-vs-photons").with_budget(512)
>>> report = ExperimentRunner(scenario, seed=1).run()
>>> len(report.points)
6
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".scenario": ("Scenario", "SPECIAL_PARAMETERS"),
        ".metrics": ("PointOutcome", "register_metric", "resolve_metric", "available_metrics"),
        ".library": ("register_scenario", "named_scenarios", "get_scenario"),
        ".executors": (
            "Executor",
            "PointTask",
            "SerialExecutor",
            "ThreadExecutor",
            "ProcessExecutor",
            "available_executors",
            "resolve_executor",
            "evaluate_point",
            "make_point_tasks",
            "WorkerCountError",
        ),
        ".faults": (
            "RetryPolicy",
            "PointFailure",
            "PointTimeoutError",
            "WorkerLostError",
            "ChaosSchedule",
            "ChaosExecutor",
        ),
        ".session": ("ExperimentSession",),
        ".runner": ("ExperimentPoint", "ExperimentReport", "ExperimentRunner", "run_scenario"),
        ".store": (
            "ReportStore",
            "RunCheckpoint",
            "CorruptArtifactError",
            "artifact_id",
            "run_digest",
        ),
        ".smoke": ("SmokeFailure", "run_smoke"),
    },
)
