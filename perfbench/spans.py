"""Outside-in span tracing of the simulator's layers, for the benchmark.

The program is not modified: :class:`Instrumentation` replaces the public
entry points of each layer (functions in their modules and in every
``repro`` module that imported them by name, methods on their classes, and
the callables on the ``Kernel`` that ``repro.kernels.get_kernel`` returns)
with wrappers that record a :class:`Span` per call, and puts the originals
back on :meth:`Instrumentation.remove`.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).  Spans are kept in memory by a
:class:`Recorder` and summarised per layer by :func:`summarise`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Counter = Callable[[tuple, dict, Any], Dict[str, float]]


@dataclass
class Span:
    """One timed call: name, host-time interval, parent span and counts."""

    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    counts: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Collects nested spans on one thread, in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._clock = clock

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self._clock()


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered_length(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def unattributed(spans: Sequence[Span], start: float, end: float) -> float:
    """Time in ``[start, end]`` that no top-level span covers."""
    tops = [(span.start, span.end) for span in spans if span.parent is None]
    return (end - start) - covered_length(tops, start, end)


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and summed counts.

    Each span is also added to an ``inside:<outer>/<inner>`` entry for every
    distinct ancestor name ``outer``, which is how a ratio such as transmit
    calls per bus run is measured where the work happens.
    """
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}

    def add(key: str, span: Span, self_s: float) -> None:
        entry = table.setdefault(key, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for name, value in span.counts.items():
            entry[name] = entry.get(name, 0) + value

    for index, span in enumerate(spans):
        add(span.name, span, selfs[index])
        seen = set()
        parent = span.parent
        while parent is not None:
            outer = spans[parent].name
            if outer != span.name and outer not in seen:
                seen.add(outer)
                add(f"inside:{outer}/{span.name}", span, selfs[index])
            parent = spans[parent].parent
    return table


# -- wrapping ------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap.

    ``owner`` names a class in ``module`` (``None`` for a module-level
    function); ``span`` is the span name recorded per call; ``count``
    optionally derives counts from ``(args, kwargs, result)``.
    """

    module: str
    owner: Optional[str]
    attr: str
    span: str
    count: Optional[Counter] = None


def _sized(key: str, index: int, name: str) -> Counter:
    """Counts ``key`` as the size of the array argument ``name`` (position ``index``)."""

    def count(args: tuple, kwargs: dict, _result: Any) -> Dict[str, float]:
        value = kwargs[name] if name in kwargs else args[index]
        return {key: int(getattr(value, "size", 0))}

    return count


def _symbols_sent(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, float]:
    return {"symbols": int(result.symbols_sent)}


def _file_bytes(_args: tuple, _kwargs: dict, result: Any) -> Dict[str, float]:
    return {"bytes": os.path.getsize(result)}


#: Layer entry points, by layer; kernels are wrapped through ``get_kernel``.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "core": (
        Target("repro.core.fastlink", "FastOpticalLink", "transmit_bits", "core.transmit", _symbols_sent),
        Target("repro.core.multilink", "MultichannelOpticalLink", "transmit_bits", "core.transmit", _symbols_sent),
        Target("repro.core.backend", None, "make_link", "core.make_link"),
    ),
    "simulation": (
        Target("repro.simulation.montecarlo", "LinkBatchTrial", "__call__", "simulation.trial"),
        Target("repro.simulation.montecarlo", "NocTrafficTrial", "__call__", "simulation.trial"),
        Target("repro.simulation.montecarlo", "MonteCarloRunner", "run_batch", "simulation.run_batch"),
    ),
    "modulation": (
        Target("repro.modulation.ppm", "PpmCodec", "encode_bits_to_values", "modulation.encode"),
        Target("repro.modulation.ppm", "PpmCodec", "pulse_times_for_values", "modulation.encode"),
        Target("repro.modulation.ppm", "PpmCodec", "decode_times", "modulation.decode"),
    ),
    "spad": (
        Target("repro.spad.device", "SpadDevice", "detect_in_windows", "spad.detect",
               _sized("windows", 2, "photon_offsets")),
        Target("repro.spad.array", None, "detect_in_windows_multichannel", "spad.detect",
               _sized("windows", 2, "photon_offsets")),
    ),
    "tdc": (
        Target("repro.tdc.converter", "TimeToDigitalConverter", "convert_array", "tdc.convert",
               _sized("detections", 1, "arrival_times")),
    ),
    "photonics": (
        Target("repro.photonics.crosstalk", "CrosstalkModel", "coupling_profile", "photonics.crosstalk"),
        Target("repro.photonics.crosstalk", "CrosstalkModel", "crosstalk_matrix", "photonics.crosstalk"),
    ),
    "noc": (
        Target("repro.noc.bus", "OpticalBus", "run", "noc.bus"),
    ),
    "scenarios": (
        Target("repro.scenarios.executors", "SerialExecutor", "map_tasks", "scenarios.executor"),
        Target("repro.scenarios.executors", "ThreadExecutor", "map_tasks", "scenarios.executor"),
        Target("repro.scenarios.executors", "ProcessExecutor", "map_tasks", "scenarios.executor"),
        Target("repro.scenarios.runner", "ExperimentRunner", "build_point", "scenarios.report"),
        Target("repro.scenarios.runner", "ExperimentRunner", "assemble_report", "scenarios.report"),
        Target("repro.scenarios.store", "ReportStore", "save", "scenarios.store", _file_bytes),
    ),
}

#: Kernel callables and the counter of the items each call processes.
KERNEL_ITEMS: Dict[str, Counter] = {
    "scan_windows": _sized("items", 0, "photon_rel"),
    "resolve_windows": _sized("items", 0, "primary"),
    "arbitrate": _sized("items", 0, "arrivals"),
}

#: Point evaluation inside the parent process (serial executor): the part of
#: the executor span that is work, not waiting.
POINT_TARGET = Target("repro.scenarios.executors", None, "evaluate_task_attempt", "scenarios.point")


class Instrumentation:
    """Installs span wrappers on the chosen layers; removes them again.

    Use as a context manager.  ``layers`` picks keys of :data:`LAYERS`
    (plus ``"kernels"``); ``points=True`` also times point evaluation in the
    parent, which only makes sense when points run in-process.  Executor
    instances seen by the ``map_tasks`` wrappers are kept in
    :attr:`executors`, so their retry and failure counters can be read after
    the run.
    """

    def __init__(
        self,
        recorder: Recorder,
        layers: Iterable[str] = tuple(LAYERS) + ("kernels",),
        points: bool = True,
    ) -> None:
        self.recorder = recorder
        self.layers = tuple(layers)
        self.points = points
        self.executors: Dict[int, Any] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, original: Callable, name: str, count: Optional[Counter]) -> Callable:
        recorder = self.recorder
        if inspect.isgeneratorfunction(original):
            # Only executors' map_tasks are generators: keep the instance.
            executors = self.executors

            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                if args:
                    executors[id(args[0])] = args[0]
                inner = original(*args, **kwargs)
                try:
                    while True:
                        index = recorder.open(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            recorder.close(index)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(index)
            if count is not None:
                recorder.spans[index].counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, module: Any, attr: str, value: Any) -> None:
        """Patch a module function where it is defined and where it was imported."""
        original = getattr(module, attr)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if (name == "repro" or name.startswith("repro.")) and loaded.__dict__.get(attr) is original:
                self._patch(loaded, attr, value)

    def _install_target(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if target.owner is None:
            original = getattr(module, target.attr)
            self._patch_everywhere(module, target.attr, self._wrap(original, target.span, target.count))
            return
        owner = getattr(module, target.owner)
        original = owner.__dict__[target.attr]
        self._patch(owner, target.attr, self._wrap(original, target.span, target.count))

    def _install_kernels(self) -> None:
        kernels = importlib.import_module("repro.kernels")
        get_kernel = kernels.get_kernel
        wrapped: Dict[str, Any] = {}

        @functools.wraps(get_kernel)
        def traced_get_kernel(*args, **kwargs):
            kernel = get_kernel(*args, **kwargs)
            if kernel.name not in wrapped:
                changes = {
                    attr: self._wrap(getattr(kernel, attr), f"kernels.{attr}", count)
                    for attr, count in KERNEL_ITEMS.items()
                    if getattr(kernel, attr) is not None
                }
                wrapped[kernel.name] = dataclasses.replace(kernel, **changes)
            return wrapped[kernel.name]

        self._patch_everywhere(kernels, "get_kernel", traced_get_kernel)

    def install(self) -> "Instrumentation":
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        try:
            for layer in self.layers:
                if layer == "kernels":
                    self._install_kernels()
                    continue
                for target in LAYERS[layer]:
                    self._install_target(target)
            if self.points:
                self._install_target(POINT_TARGET)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def executor_stat(self, key: str) -> int:
        return sum(int(getattr(ex, "stats", {}).get(key, 0)) for ex in self.executors.values())
