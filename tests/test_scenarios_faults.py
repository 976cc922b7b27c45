"""Fault-tolerance tests: retries, failure policy, and the chaos harness.

The contract under test is the strongest one the fabric makes: *every*
recovery path — retried crashes, killed hung workers, rebuilt pools,
corrupted results — produces a report **bit-identical** to a fault-free
serial run, because point evaluation is a pure function of its pre-seeded
task.  Fault injection is deterministic (seeded :class:`ChaosSchedule`), so
these tests are exact, not flaky-by-design.

The process-pool recovery tests are marked ``chaos`` and also run as a
standalone CI job (``pytest -m chaos``) under a hard timeout.
"""

import os
import time
from collections import namedtuple

import pytest

from repro.scenarios import (
    ChaosExecutor,
    ChaosSchedule,
    ExperimentReport,
    ExperimentRunner,
    PointFailure,
    ProcessExecutor,
    RetryPolicy,
    Scenario,
    SerialExecutor,
    get_scenario,
    resolve_executor,
    run_scenario,
)
from repro.scenarios.faults import (
    CHAOS_ENV,
    AttemptScheduler,
    InjectedCorruption,
    InjectedWorkerCrash,
    PointTimeoutError,
    active_chaos,
)
from repro.scenarios.executors import make_point_tasks
from repro.simulation.randomness import split_seed


def small_scenario(seed_policy: str = "per-point") -> Scenario:
    return Scenario(
        name=f"faults-{seed_policy}",
        description="3-point sweep exercised by the fault-tolerance tests",
        sweep_axes={"mean_detected_photons": (5.0, 20.0, 40.0)},
        metrics=("ber", "detection_rate"),
        bits_per_point=128,
        seed_policy=seed_policy,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=True)
        for name in ("timeout", "backoff", "backoff_factor", "max_backoff"):
            with pytest.raises(ValueError, match=name):
                RetryPolicy(**{name: float("nan")})

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff=1.0, backoff_factor=2.0, max_backoff=3.0)
        for attempt in (1, 2, 3, 4):
            first = policy.delay(seed=42, attempt=attempt)
            assert first == policy.delay(seed=42, attempt=attempt)
            base = min(1.0 * 2.0 ** (attempt - 1), 3.0)
            assert 0.5 * base <= first < base
        # Different seeds jitter differently (with overwhelming probability
        # for any fixed pair — this one is part of the frozen contract).
        assert policy.delay(seed=1, attempt=1) != policy.delay(seed=2, attempt=1)

    def test_no_backoff_means_no_delay(self):
        assert RetryPolicy(max_attempts=3).delay(seed=9, attempt=2) == 0.0


class TestPointFailure:
    def test_round_trips_through_its_mapping(self):
        failure = PointFailure(
            index=2, parameters={"x": 1.5}, error_type="RuntimeError",
            message="boom", attempts=3, elapsed=0.25,
        )
        assert PointFailure.from_mapping(failure.to_mapping()) == failure

    def test_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ValueError, match="unknown point-failure key"):
            PointFailure.from_mapping({"index": 0, "bogus": 1})
        with pytest.raises(ValueError, match="lacks key"):
            PointFailure.from_mapping({"index": 0})


class TestAttemptScheduler:
    def test_an_exhausted_chunk_closes_its_whole_point(self):
        # Chunks a and b belong to point 0, c to point 1.  b is requeued
        # (its worker was lost) while a fails its last attempt: b's queued
        # attempt is dropped with the point, and b's late events are ignored.
        Chunk = namedtuple("Chunk", "index seed parameters")
        a, b, c = Chunk(0, 1, {"x": 0}), Chunk(0, 2, {"x": 0}), Chunk(1, 3, {"x": 1})
        stats = {"retries": 0, "failures": 0}
        scheduler = AttemptScheduler(RetryPolicy(max_attempts=2), "continue", stats, [a, b, c])
        assert [scheduler.next_ready(0.0) for _ in range(3)] == [(a, 1), (b, 1), (c, 1)]
        for chunk in (a, b, c):
            scheduler.dispatched(chunk, 0.0)
        assert scheduler.failed(a, 1, RuntimeError("a1"), 0.0) is None
        assert scheduler.next_ready(0.0) == (a, 2)
        scheduler.requeued(b, 1)
        failure = scheduler.failed(a, 2, RuntimeError("a2"), 0.5)
        assert failure == PointFailure(
            index=0, parameters={"x": 0}, error_type="RuntimeError",
            message="a2", attempts=2, elapsed=0.5,
        )
        assert scheduler.next_ready(float("inf")) is None
        assert scheduler.failed(b, 1, RuntimeError("b1"), 1.0) is None
        scheduler.requeued(b, 1)
        assert scheduler.next_ready(float("inf")) is None
        scheduler.completed(c.index)
        assert scheduler.closed == {0, 1}
        assert stats == {"retries": 1, "failures": 1}


class TestChaosSchedule:
    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            ChaosSchedule(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum to <= 1"):
            ChaosSchedule(crash_rate=0.6, delay_rate=0.6)
        with pytest.raises(ValueError, match="max_faulty_attempts"):
            ChaosSchedule(max_faulty_attempts=-1)

    def test_faults_are_deterministic_and_bounded_in_attempts(self):
        schedule = ChaosSchedule(
            seed=7, crash_rate=0.3, delay_rate=0.3, corrupt_rate=0.3,
            max_faulty_attempts=2,
        )
        draws = [schedule.fault_for(task_seed=s, attempt=1) for s in range(50)]
        assert draws == [schedule.fault_for(task_seed=s, attempt=1) for s in range(50)]
        # With 90% total fault rate over 50 seeds, every kind shows up.
        assert {"crash", "delay", "corrupt"} <= set(d for d in draws if d)
        # Attempts past the bound are always clean: convergence guarantee.
        assert all(
            schedule.fault_for(task_seed=s, attempt=3) is None for s in range(50)
        )

    def test_mapping_and_env_round_trip(self, monkeypatch):
        schedule = ChaosSchedule(seed=3, crash_rate=0.2, delay_rate=0.1, corrupt_rate=0.05)
        assert ChaosSchedule.from_mapping(schedule.to_mapping()) == schedule
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        assert active_chaos() is None
        import json

        monkeypatch.setenv(CHAOS_ENV, json.dumps(schedule.to_mapping()))
        assert active_chaos() == schedule
        monkeypatch.setenv(CHAOS_ENV, "{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            active_chaos()

    def test_chaos_executor_scopes_the_env_to_the_stream(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        schedule = ChaosSchedule(seed=1, crash_rate=0.0)
        tasks = ExperimentRunner(small_scenario(), seed=1).point_tasks()
        stream = ChaosExecutor(SerialExecutor(), schedule).map_tasks(tasks)
        next(stream)
        assert active_chaos() == schedule  # live while the stream is open
        stream.close()
        assert CHAOS_ENV not in os.environ  # restored on close

    def test_chaos_executor_rejects_non_executors(self):
        with pytest.raises(TypeError, match="not an executor"):
            ChaosExecutor(42, ChaosSchedule())


class TestSerialRecovery:
    def test_crash_and_corrupt_retries_are_bit_identical(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        schedule = ChaosSchedule(
            seed=9, crash_rate=0.4, corrupt_rate=0.3, max_faulty_attempts=2
        )
        serial = SerialExecutor(retry=RetryPolicy(max_attempts=4))
        chaotic = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(serial, schedule)
        ).run()
        assert chaotic.to_mapping() == clean.to_mapping()
        assert serial.stats["retries"] > 0  # faults actually fired
        assert serial.stats["failures"] == 0

    def test_post_hoc_timeout_discards_slow_attempts(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        # Every first attempt sleeps past the budget; attempt 2 is clean.
        schedule = ChaosSchedule(
            seed=0, delay_rate=1.0, delay_seconds=0.15, max_faulty_attempts=1
        )
        serial = SerialExecutor(retry=RetryPolicy(max_attempts=2, timeout=0.05))
        chaotic = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(serial, schedule)
        ).run()
        assert chaotic.to_mapping() == clean.to_mapping()
        assert serial.stats["retries"] == len(clean.points)

    def test_exhausted_point_fails_fast_with_the_original_error(self):
        schedule = ChaosSchedule(seed=1, crash_rate=1.0, max_faulty_attempts=99)
        serial = SerialExecutor(retry=RetryPolicy(max_attempts=2))
        runner = ExperimentRunner(
            small_scenario(), seed=3, executor=ChaosExecutor(serial, schedule)
        )
        with pytest.raises(InjectedWorkerCrash):
            runner.run()

    def test_no_retry_policy_keeps_historical_semantics(self):
        # Without a policy the first error propagates immediately.
        schedule = ChaosSchedule(seed=1, corrupt_rate=1.0, max_faulty_attempts=99)
        runner = ExperimentRunner(
            small_scenario(), seed=3,
            executor=ChaosExecutor(SerialExecutor(), schedule),
        )
        with pytest.raises(InjectedCorruption):
            runner.run()


class TestContinuePolicy:
    def test_exhausted_points_become_structured_failures(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        # One specific point is doomed: pick the schedule so at least one
        # (but not every) point crashes beyond the retry budget.
        schedule = ChaosSchedule(seed=4, crash_rate=0.4, max_faulty_attempts=99)
        serial = SerialExecutor(
            retry=RetryPolicy(max_attempts=2), failure_policy="continue"
        )
        runner = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(serial, schedule)
        )
        session = runner.session()
        report = session.report()
        assert 0 < len(report.failures) < len(clean.points)
        assert len(report.points) + len(report.failures) == len(clean.points)
        assert session.failed_points == list(report.failures)
        for failure in report.failures:
            assert failure.error_type == "InjectedWorkerCrash"
            assert failure.attempts == 2
        # The surviving points are bit-identical to the clean run's.
        survivors = {
            tuple(sorted(p.parameters.items())): p.to_mapping() for p in clean.points
        }
        for point in report.points:
            assert point.to_mapping() == survivors[tuple(sorted(point.parameters.items()))]
        # Failures round-trip through the report mapping (artefact shape).
        mapping = report.to_mapping()
        assert "failures" in mapping
        assert ExperimentReport.from_mapping(mapping) == report
        assert "FAILED" in report.summary()

    def test_clean_reports_keep_their_historical_mapping_shape(self):
        report = ExperimentRunner(small_scenario(), seed=3).run()
        assert report.failures == ()
        assert "failures" not in report.to_mapping()

    def test_metric_failure_degrades_to_a_point_failure_under_continue(self):
        scenario = small_scenario()
        runner = ExperimentRunner(
            scenario, seed=3, executor=SerialExecutor(failure_policy="continue")
        )
        original = runner.build_point

        def explode(parameters, outcome):
            if parameters["mean_detected_photons"] == 20.0:
                raise ValueError("synthetic metric failure")
            return original(parameters, outcome)

        runner.build_point = explode
        report = runner.session().report()
        assert len(report.points) == 2
        (failure,) = report.failures
        assert failure.error_type == "ValueError"
        assert "synthetic metric failure" in failure.message

    def test_validate_failure_policy(self):
        with pytest.raises(ValueError, match="failure_policy"):
            SerialExecutor(failure_policy="retry-forever")
        with pytest.raises(ValueError, match="failure_policy"):
            ProcessExecutor(failure_policy="ignore")


class TestResolveExecutorForwarding:
    def test_retry_and_policy_reach_named_executors(self):
        policy = RetryPolicy(max_attempts=3)
        serial = resolve_executor("serial", retry=policy, failure_policy="continue")
        assert serial.retry is policy and serial.failure_policy == "continue"
        process = resolve_executor("process", workers=2, retry=policy)
        assert process.retry is policy and process.workers == 2

    def test_retry_and_policy_apply_to_instances_and_wrappers(self):
        policy = RetryPolicy(max_attempts=2)
        inner = ProcessExecutor(workers=2)
        wrapped = ChaosExecutor(inner, ChaosSchedule(seed=1))
        resolved = resolve_executor(wrapped, retry=policy, failure_policy="continue")
        assert resolved is wrapped
        assert inner.retry is policy and inner.failure_policy == "continue"

    def test_runner_forwards_the_knobs(self):
        runner = ExperimentRunner(
            small_scenario(), retry=RetryPolicy(max_attempts=2),
            failure_policy="continue",
        )
        assert runner.executor.retry.max_attempts == 2
        assert runner.executor.failure_policy == "continue"


@pytest.mark.chaos
class TestProcessRecovery:
    """Pool-level recovery: dead workers, hung workers, poisoned results."""

    def test_worker_crash_rebuilds_the_pool_bit_identically(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        schedule = ChaosSchedule(seed=9, crash_rate=0.4, max_faulty_attempts=2)
        pool = ProcessExecutor(workers=2, retry=RetryPolicy(max_attempts=4))
        chaotic = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(pool, schedule)
        ).run()
        assert chaotic.to_mapping() == clean.to_mapping()
        assert pool.stats["pool_rebuilds"] > 0  # a worker really died

    def test_hung_worker_is_killed_and_the_point_retried(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        # Every first attempt hangs well past the budget; retries are clean.
        schedule = ChaosSchedule(
            seed=0, delay_rate=1.0, delay_seconds=5.0, max_faulty_attempts=1
        )
        pool = ProcessExecutor(workers=2, retry=RetryPolicy(max_attempts=2, timeout=0.3))
        chaotic = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(pool, schedule)
        ).run()
        assert chaotic.to_mapping() == clean.to_mapping()
        assert pool.stats["pool_rebuilds"] > 0  # hung workers were killed
        assert pool.stats["retries"] >= len(clean.points)

    def test_corrupt_results_are_retried_bit_identically(self):
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        schedule = ChaosSchedule(seed=11, corrupt_rate=0.5, max_faulty_attempts=2)
        pool = ProcessExecutor(workers=2, retry=RetryPolicy(max_attempts=4))
        chaotic = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(pool, schedule)
        ).run()
        assert chaotic.to_mapping() == clean.to_mapping()

    def test_exhausted_timeout_surfaces_as_point_timeout_error(self):
        schedule = ChaosSchedule(
            seed=0, delay_rate=1.0, delay_seconds=5.0, max_faulty_attempts=99
        )
        pool = ProcessExecutor(workers=2, retry=RetryPolicy(max_attempts=1, timeout=0.3))
        runner = ExperimentRunner(
            small_scenario(), seed=3, executor=ChaosExecutor(pool, schedule)
        )
        with pytest.raises(PointTimeoutError):
            runner.run()

    def test_continue_policy_over_a_broken_pool(self):
        # Crashing points exhaust their budget yet the rest of the grid lands.
        scenario = small_scenario()
        clean = ExperimentRunner(scenario, seed=3).run()
        schedule = ChaosSchedule(seed=4, crash_rate=0.4, max_faulty_attempts=99)
        pool = ProcessExecutor(
            workers=2, retry=RetryPolicy(max_attempts=2), failure_policy="continue"
        )
        report = ExperimentRunner(
            scenario, seed=3, executor=ChaosExecutor(pool, schedule)
        ).run()
        assert len(report.points) + len(report.failures) == len(clean.points)
        assert report.failures  # the doomed point really failed
        survivors = {
            tuple(sorted(p.parameters.items())): p.to_mapping() for p in clean.points
        }
        for point in report.points:
            assert point.to_mapping() == survivors[tuple(sorted(point.parameters.items()))]

    def test_fail_fast_error_does_not_wait_for_a_hung_worker(self):
        # Point 0's first attempt sleeps 30 s; point 1's is corrupt and ends
        # the fail_fast run.  The error must reach the caller without
        # waiting for the sleeping worker.
        schedule = ChaosSchedule(
            seed=0, delay_rate=0.5, corrupt_rate=0.5, delay_seconds=30.0,
            max_faulty_attempts=1,
        )
        tasks = make_point_tasks(
            get_scenario("ber-vs-photons"), seed=0, backend="batch", chunk_symbols=8192
        )[:2]
        faults = [
            schedule.fault_for(split_seed(task.seed, f"chaos-point:{task.index}"), 1)
            for task in tasks
        ]
        assert faults == ["delay", "corrupt"]
        pool = ProcessExecutor(workers=2, retry=RetryPolicy(max_attempts=1, timeout=5.0))
        started = time.monotonic()
        with pytest.raises(InjectedCorruption):
            list(ChaosExecutor(pool, schedule).map_tasks(tasks))
        assert time.monotonic() - started < 10.0

    def test_keyboard_interrupt_terminates_workers_and_propagates(self):
        pool = ProcessExecutor(workers=2)
        tasks = ExperimentRunner(small_scenario(), seed=1).point_tasks()
        stream = pool.map_tasks(tasks)
        next(stream)
        with pytest.raises(KeyboardInterrupt):
            stream.throw(KeyboardInterrupt)
        # The executor stays usable for a fresh run afterwards.
        outcomes = dict(pool.map_tasks(tasks))
        assert sorted(outcomes) == [task.index for task in tasks]


@pytest.mark.chaos
class TestAcceptanceBitIdentical:
    """The issue's acceptance bar: chaos-run named scenarios, both seed
    policies, fail_fast + retry — bit-identical to fault-free serial runs."""

    SCHEDULE = ChaosSchedule(
        seed=23, crash_rate=0.3, corrupt_rate=0.3, max_faulty_attempts=2
    )

    @pytest.mark.parametrize("name", ("ber-vs-photons", "design-space-grid"))
    @pytest.mark.parametrize("seed_policy", ("per-point", "shared"))
    def test_named_scenario_under_chaos(self, name, seed_policy):
        mapping = get_scenario(name).with_budget(64).to_mapping()
        mapping["seed_policy"] = seed_policy
        scenario = Scenario.from_mapping(mapping)
        clean = run_scenario(scenario, seed=5)
        chaotic = run_scenario(
            scenario,
            seed=5,
            executor=ChaosExecutor(ProcessExecutor(workers=2), self.SCHEDULE),
            retry=RetryPolicy(max_attempts=4),
            failure_policy="fail_fast",
        )
        assert chaotic.to_mapping() == clean.to_mapping()
