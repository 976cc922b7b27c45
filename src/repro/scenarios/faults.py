"""Fault tolerance for the execution fabric: retries, failures, chaos.

Grid-point evaluation is a *pure function* of its :class:`PointTask` — the
point seed is derived in the parent before any point runs, and
``evaluate_point`` touches no mutable state — so re-executing a task after a
crash, hang or lost result is always safe: the retried attempt produces a
**bit-identical** outcome.  This module packages that observation into the
four pieces the executors build on:

* :class:`RetryPolicy` — how many attempts a point gets, the per-task
  timeout, and an exponential backoff whose jitter is *deterministic*
  (derived from the task seed via
  :func:`~repro.simulation.randomness.split_seed`), so retry schedules are
  reproducible run to run.
* :class:`PointFailure` — the structured record a point leaves in the report
  when every attempt is exhausted under the ``"continue"`` failure policy
  (exception type, message, attempts, elapsed wall time), instead of
  aborting the whole run.
* :class:`AttemptScheduler` — the one retry state machine: the serial,
  thread, process and cluster executors feed it dispatch/failure events and
  take the next ``(task, attempt)``, the backoff wait and the give-up
  decision from it, keeping only their transport code.
* :class:`ChaosSchedule` / :class:`ChaosExecutor` — deterministic fault
  injection: crashes, delays and corrupted results are injected from a
  seeded schedule keyed on ``(task seed, attempt)``, either by wrapping any
  executor in :class:`ChaosExecutor` or by exporting the schedule through
  the ``REPRO_CHAOS`` environment variable (which worker subprocesses
  inherit).  Attempts past ``max_faulty_attempts`` are never faulted, so a
  retry budget larger than that bound is *guaranteed* to converge — the
  chaos test suite proves every recovery path yields reports bit-identical
  to a fault-free serial run.

>>> policy = RetryPolicy(max_attempts=3, backoff=0.5)
>>> policy.delay(seed=7, attempt=1) == policy.delay(seed=7, attempt=1)
True
>>> schedule = ChaosSchedule(seed=1, crash_rate=0.5, max_faulty_attempts=2)
>>> schedule.fault_for(task_seed=42, attempt=3) is None  # past the bound
True
>>> schedule.fault_for(task_seed=42, attempt=1) == schedule.fault_for(42, 1)
True
"""

from __future__ import annotations

import heapq
import itertools
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.simulation.randomness import split_seed

#: Environment variable carrying a JSON :meth:`ChaosSchedule.to_mapping` —
#: the subprocess hook: worker processes (and ``python -m repro`` runs under
#: test) read it at every attempt, so faults inject identically whether the
#: evaluation happens in-process or across a process boundary.
CHAOS_ENV = "REPRO_CHAOS"

#: Valid failure policies: ``"fail_fast"`` aborts the run on the first
#: exhausted point; ``"continue"`` records a :class:`PointFailure` in the
#: report and keeps going (metrics skip the failed point).
FAILURE_POLICIES: Tuple[str, ...] = ("fail_fast", "continue")


def validate_failure_policy(policy: str) -> str:
    if policy not in FAILURE_POLICIES:
        raise ValueError(
            f"failure_policy must be one of {FAILURE_POLICIES}, got {policy!r}"
        )
    return policy


class PointTimeoutError(RuntimeError):
    """A point evaluation exceeded its :attr:`RetryPolicy.timeout`."""


class WorkerLostError(RuntimeError):
    """A worker died (or vanished) while its task was in flight.

    The distributed analogue of ``BrokenProcessPool``: the
    :class:`~repro.cluster.executor.ClusterExecutor` raises it against the
    in-flight chunk of a worker whose connection dropped or whose heartbeats
    stopped, charging that chunk one attempt before requeueing it on a
    surviving worker — the same semantics the process pool applies to a dead
    pool member.
    """


class ClusterTaskError(RuntimeError):
    """A worker-side evaluation error re-raised coordinator-side.

    Only the exception's type name and message cross the cluster wire; the
    original class is preserved on :attr:`error_type` and, with the bare
    :attr:`message`, in ``PointFailure`` records, so reports look identical
    to an in-process failure.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


class InjectedWorkerCrash(RuntimeError):
    """A :class:`ChaosSchedule` crash fault, raised on the in-process path.

    In a worker *process* the same fault calls ``os._exit`` instead, so the
    parent sees a broken pool — the real failure mode being rehearsed.
    """


class InjectedCorruption(RuntimeError):
    """A :class:`ChaosSchedule` corrupt-result fault (a poisoned pickle)."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the executors treat a failing or hung point evaluation.

    Attributes
    ----------
    max_attempts:
        Total attempts a point gets (1 = no retry).
    timeout:
        Per-attempt wall-clock budget in seconds, or ``None`` for no limit.
        :class:`~repro.scenarios.executors.ProcessExecutor` *enforces* it —
        a worker still running past the deadline is killed and its task
        requeued; :class:`~repro.scenarios.executors.SerialExecutor` cannot
        pre-empt the evaluation, so it applies the budget after the fact
        (an overlong attempt is discarded and retried).
    backoff:
        Base delay in seconds before retry ``n`` (0 = retry immediately).
        The delay grows as ``backoff * backoff_factor**(attempt-1)``, capped
        at ``max_backoff``.
    backoff_factor:
        Exponential growth factor (>= 1).
    max_backoff:
        Upper bound on any single delay, in seconds.

    The jitter applied on top of the exponential curve is **deterministic**:
    it is derived from ``split_seed(task_seed, f"retry:{attempt}")``, so two
    runs of the same experiment back off identically — reproducibility
    extends to the retry schedule itself.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = 30.0

    def __post_init__(self) -> None:
        # A bool is not taken for an int, and every float check is written
        # so that NaN fails it.
        if type(self.max_attempts) is not int or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be a positive int, got {self.max_attempts!r}")
        if self.timeout is not None and not self.timeout > 0:
            raise ValueError(f"timeout must be positive (or None), got {self.timeout!r}")
        if not self.backoff >= 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff!r}")
        if not self.backoff_factor >= 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor!r}")
        if not self.max_backoff >= 0:
            raise ValueError(f"max_backoff must be non-negative, got {self.max_backoff!r}")

    def delay(self, seed: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching ``attempt + 1``.

        Exponential in the attempt number, with a deterministic jitter in
        ``[0.5, 1.0)`` of the base value derived from the task seed — no
        wall-clock or global RNG state is consulted.
        """
        if self.backoff <= 0:
            return 0.0
        base = min(self.backoff * self.backoff_factor ** (attempt - 1), self.max_backoff)
        fraction = split_seed(seed, f"retry:{attempt}") % 1_000_000 / 1_000_000.0
        return base * (0.5 + 0.5 * fraction)


@dataclass(frozen=True)
class PointFailure:
    """One grid point that exhausted every attempt (``"continue"`` policy).

    Carries enough structure to diagnose the failure without a debugger —
    the point's swept parameters, the final exception type and message, how
    many attempts were made and the elapsed wall time — and serialises into
    the report artefact next to the successful points.
    """

    index: int
    parameters: Mapping[str, Any]
    error_type: str
    message: str
    attempts: int
    elapsed: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", dict(self.parameters))

    def to_mapping(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "parameters": dict(self.parameters),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "PointFailure":
        data = dict(mapping)
        known = {"index", "parameters", "error_type", "message", "attempts", "elapsed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown point-failure key(s): {', '.join(unknown)}")
        missing = sorted(known - set(data))
        if missing:
            raise ValueError(f"point-failure mapping lacks key(s): {', '.join(missing)}")
        return cls(**data)


class AttemptScheduler:
    """The retry state machine every executor drives.

    Transport-agnostic and pure: it never reads the clock and never sleeps;
    every event carries the caller's ``now``.  It owns the queue of ready
    ``(task, attempt)`` pairs, the backoff heap, attempt counting, each
    point's first-dispatch time, the ``retries``/``failures`` counters (in the
    ``stats`` mapping it is given) and the give-up decision.  A task is
    anything with ``index``, ``seed`` and ``parameters`` — a
    :class:`~repro.scenarios.executors.PointTask` or a cluster chunk of one.
    Points are keyed by ``task.index``, so the chunks of one point share a
    clock and a fate.

    Events and the scheduler's answer to each:

    * :meth:`dispatched` — start the point's clock (first dispatch only);
    * :meth:`failed` with attempts left — count a retry and queue
      ``attempt + 1`` once ``policy.delay(task.seed, attempt)`` has passed;
    * :meth:`failed` on the last attempt — count a failure, :meth:`drop` the
      point, then return its :class:`PointFailure` (``"continue"``) or
      re-raise the error (``"fail_fast"``);
    * :meth:`requeued` — queue the same attempt again, uncharged;
    * :meth:`completed` — close the point;
    * :meth:`drop` — close the point and discard what it has queued.

    Events for a closed point are ignored.  :meth:`next_ready` hands out the
    next ``(task, attempt)`` whose backoff has expired (a retry without backoff
    is ready at once), and :meth:`wait_time` says how long until the next
    one does.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy],
        failure_policy: str,
        stats: Dict[str, int],
        tasks: Iterable[Any] = (),
    ) -> None:
        self.policy = retry or RetryPolicy(max_attempts=1)
        self.failure_policy = failure_policy
        self.stats = stats
        #: Indices of the points that completed, were exhausted or dropped.
        self.closed: Set[int] = set()
        self._ready: "deque[Tuple[Any, int]]" = deque((task, 1) for task in tasks)
        #: Retries as (ready_at, tiebreak, task, attempt), a heap on ready_at.
        self._delayed: List[Tuple[float, int, Any, int]] = []
        self._tiebreak = itertools.count()
        self._first_dispatch: Dict[int, float] = {}

    def next_ready(self, now: float) -> Optional[Tuple[Any, int]]:
        """The next ``(task, attempt)`` to dispatch, or ``None``."""
        while self._delayed and self._delayed[0][0] <= now:
            _ready_at, _tie, task, attempt = heapq.heappop(self._delayed)
            self._ready.append((task, attempt))
        return self._ready.popleft() if self._ready else None

    def wait_time(self, now: float) -> Optional[float]:
        """Seconds until the next backoff expires; ``None`` if none is running."""
        return max(0.0, self._delayed[0][0] - now) if self._delayed else None

    def dispatched(self, task: Any, now: float) -> None:
        self._first_dispatch.setdefault(task.index, now)

    def requeued(self, task: Any, attempt: int) -> None:
        if task.index not in self.closed:
            self._ready.append((task, attempt))

    def completed(self, index: int) -> None:
        self.closed.add(index)

    def drop(self, index: int) -> None:
        self.closed.add(index)
        self._ready = deque(entry for entry in self._ready if entry[0].index != index)
        self._delayed = [entry for entry in self._delayed if entry[2].index != index]
        heapq.heapify(self._delayed)

    def failed(
        self, task: Any, attempt: int, error: BaseException, now: float
    ) -> Optional[PointFailure]:
        """Charge ``attempt`` to its point: ``None`` if a retry was queued."""
        if task.index in self.closed:
            return None
        if attempt < self.policy.max_attempts:
            self.stats["retries"] += 1
            ready_at = now + self.policy.delay(task.seed, attempt)
            heapq.heappush(self._delayed, (ready_at, next(self._tiebreak), task, attempt + 1))
            return None
        self.stats["failures"] += 1
        self.drop(task.index)
        if self.failure_policy != "continue":
            raise error
        if isinstance(error, ClusterTaskError):
            error_type, message = error.error_type, error.message
        else:
            error_type, message = type(error).__name__, str(error)
        return PointFailure(
            index=task.index,
            parameters=task.parameters,
            error_type=error_type,
            message=message,
            attempts=self.policy.max_attempts,
            elapsed=now - self._first_dispatch.get(task.index, now),
        )


#: Fault kinds a :class:`ChaosSchedule` injects.
FAULT_KINDS: Tuple[str, ...] = ("crash", "delay", "corrupt")


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded, deterministic schedule of injected faults.

    For every ``(task seed, attempt)`` pair the schedule decides — by
    hashing, never by sampling shared RNG state — whether that attempt
    crashes the worker, sleeps past the retry timeout, or returns a
    corrupted result.  The decision is a pure function of the schedule, so
    a chaos run is exactly reproducible, and because attempts beyond
    ``max_faulty_attempts`` are never faulted, any retry budget larger than
    that bound converges to the fault-free result.
    """

    seed: int = 0
    crash_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.25
    corrupt_rate: float = 0.0
    max_faulty_attempts: int = 2

    def __post_init__(self) -> None:
        for name in ("crash_rate", "delay_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")
        total = self.crash_rate + self.delay_rate + self.corrupt_rate
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be non-negative, got {self.delay_seconds!r}")
        if self.max_faulty_attempts < 0:
            raise ValueError(
                f"max_faulty_attempts must be non-negative, got {self.max_faulty_attempts!r}"
            )

    def fault_for(self, task_seed: int, attempt: int) -> Optional[str]:
        """The fault injected into this ``(task, attempt)``, or ``None``.

        Deterministic: the same pair always yields the same decision, and
        attempts past ``max_faulty_attempts`` are always clean.
        """
        if attempt > self.max_faulty_attempts:
            return None
        draw = split_seed(self.seed, f"chaos:{task_seed}:{attempt}") % 1_000_000 / 1_000_000.0
        if draw < self.crash_rate:
            return "crash"
        if draw < self.crash_rate + self.delay_rate:
            return "delay"
        if draw < self.crash_rate + self.delay_rate + self.corrupt_rate:
            return "corrupt"
        return None

    # -- serialisation (for the REPRO_CHAOS environment hook) -------------------
    def to_mapping(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "delay_rate": self.delay_rate,
            "delay_seconds": self.delay_seconds,
            "corrupt_rate": self.corrupt_rate,
            "max_faulty_attempts": self.max_faulty_attempts,
        }

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ChaosSchedule":
        data = dict(mapping)
        known = {f.name for f in __import__("dataclasses").fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown chaos-schedule key(s): {', '.join(unknown)}")
        return cls(**data)


def active_chaos() -> Optional[ChaosSchedule]:
    """The schedule exported through ``REPRO_CHAOS``, or ``None``.

    Read at every attempt, in the parent and in worker processes alike (a
    worker inherits the environment of the parent that created its pool),
    so one hook covers both executors and subprocess CLI tests.
    """
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    try:
        mapping = json.loads(raw)
    except json.JSONDecodeError as error:
        raise ValueError(f"{CHAOS_ENV} is not valid JSON: {error}") from error
    if not isinstance(mapping, dict):
        raise ValueError(f"{CHAOS_ENV} must hold a JSON object")
    return ChaosSchedule.from_mapping(mapping)


def inject_fault(schedule: ChaosSchedule, task_seed: int, attempt: int) -> None:
    """Apply the schedule's fault for this attempt, if any.

    ``crash`` raises :class:`InjectedWorkerCrash` in the parent process but
    calls ``os._exit`` inside a worker process — the pool sees a genuinely
    dead worker, exactly like a segfault or OOM kill.  ``delay`` sleeps
    (tripping per-task timeouts); ``corrupt`` raises
    :class:`InjectedCorruption` (a poisoned result crossing the boundary).
    """
    fault = schedule.fault_for(task_seed, attempt)
    if fault is None:
        return
    if fault == "crash":
        if multiprocessing.parent_process() is not None:
            os._exit(113)  # hard death inside a pool worker: no traceback, no result
        raise InjectedWorkerCrash(
            f"chaos: injected worker crash (task seed {task_seed}, attempt {attempt})"
        )
    if fault == "delay":
        time.sleep(schedule.delay_seconds)
        return
    raise InjectedCorruption(
        f"chaos: injected corrupted result (task seed {task_seed}, attempt {attempt})"
    )


class ChaosExecutor:
    """Wrap any executor so its point evaluations run under a fault schedule.

    The schedule is exported through :data:`CHAOS_ENV` for the duration of
    the stream, which is what makes one wrapper serve both executors: the
    serial path reads it in-process at each attempt, and a process pool's
    workers inherit it when the pool is created (which happens while the
    stream — and hence the environment override — is live).

    ``retry`` and ``failure_policy`` proxy to the wrapped executor, so the
    runner can configure a chaos-wrapped executor exactly like a bare one.
    """

    def __init__(self, inner: Any, schedule: ChaosSchedule) -> None:
        if not hasattr(inner, "map_tasks"):
            raise TypeError(f"not an executor: {inner!r}")
        self.inner = inner
        self.schedule = schedule

    @property
    def retry(self) -> Optional[RetryPolicy]:
        return getattr(self.inner, "retry", None)

    @retry.setter
    def retry(self, policy: Optional[RetryPolicy]) -> None:
        self.inner.retry = policy

    @property
    def failure_policy(self) -> str:
        return getattr(self.inner, "failure_policy", "fail_fast")

    @failure_policy.setter
    def failure_policy(self, policy: str) -> None:
        self.inner.failure_policy = validate_failure_policy(policy)

    @property
    def stats(self) -> Dict[str, int]:
        return getattr(self.inner, "stats", {})

    def map_tasks(self, tasks: Sequence[Any]) -> Iterator[Tuple[int, Any]]:
        previous = os.environ.get(CHAOS_ENV)
        os.environ[CHAOS_ENV] = json.dumps(self.schedule.to_mapping(), sort_keys=True)
        try:
            yield from self.inner.map_tasks(tasks)
        finally:
            if previous is None:
                os.environ.pop(CHAOS_ENV, None)
            else:
                os.environ[CHAOS_ENV] = previous

    def __repr__(self) -> str:
        return f"ChaosExecutor({self.inner!r}, {self.schedule!r})"
