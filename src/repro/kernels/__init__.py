"""Pluggable compute kernels for the simulator's sequential hot loops.

Two loops of the simulator resist NumPy vectorisation because each iteration
depends on detector state carried from the previous one: the dead-time winner
scan of :meth:`~repro.spad.device.SpadDevice.detect_in_windows` and the
per-channel window resolution behind
:func:`~repro.spad.array.detect_in_windows_multichannel`.  This package makes
those loops *pluggable*: callers resolve a :class:`Kernel` by name and the
engine dispatches through it, with the ``"python"`` reference defining
semantics and the native tier locked bit-identical to it by
``tests/test_kernels.py`` and ``scripts/regression_check.py``.

Kernels
-------
``"python"``
    The loops as they shipped — extracted to :mod:`repro.kernels.reference`.
    Always available; the semantic ground truth.
``"cext"``
    ctypes-bound C ports of the scan and resolver, compiled on first use with
    the host toolchain (:mod:`repro.kernels.cext`).  Registered only when a C
    compiler is available and the build succeeds.
``"auto"``
    Not a kernel but a resolution rule: the fastest available tier,
    preferring ``cext`` > ``python``.

The bus's round-robin arbitration is not a kernel: every tier runs the same
per-slot :meth:`~repro.noc.arbitration.RoundRobinArbiter.grant` loop.

Selection order: an explicit ``kernel=`` argument (threaded through
``make_link``, ``Scenario``, the CLI ``--kernel`` flag and the service) beats
the ``REPRO_KERNEL`` environment variable, which beats the ``"auto"``
default.  Naming an unavailable kernel falls back to ``"python"`` with a
one-time :class:`RuntimeWarning` that carries the reason (for ``"cext"``,
why the build failed) — runs degrade, they don't die.

The ``cext`` tier releases the GIL while a chunk is inside a kernel, so
:class:`~repro.scenarios.executors.ThreadExecutor` overlaps grid points
without pickling or IPC.  The overlap is small, because most of a chunk is
NumPy glue that holds the GIL: on ``design-space-grid --bits 400000`` (2
workers, 2-core x86-64 host) thread takes 0.469 s against serial's 0.537 s
(1.15x), where a process pool reaches 1.63x.

This package is a leaf — it imports NumPy and nothing from the rest of
:mod:`repro`, so any layer (including ``Scenario`` validation) can import it
without cycles.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Optional, Tuple

from . import reference as _reference

__all__ = [
    "KERNEL_NAMES",
    "Kernel",
    "available_kernels",
    "get_kernel",
]

#: Every name ``get_kernel`` accepts (``"auto"`` resolves, the rest select).
KERNEL_NAMES: Tuple[str, ...] = ("auto", "python", "cext")

#: ``"auto"`` preference order, fastest first.
_AUTO_ORDER: Tuple[str, ...] = ("cext", "python")


@dataclass(frozen=True)
class Kernel:
    """One named set of hot-loop implementations.

    ``scan_windows`` is always present (every kernel can run the device
    scan).  ``resolve_windows`` is ``None`` when the kernel has no native
    resolver — the array layer then keeps its in-module Python fast path.
    """

    name: str
    scan_windows: Callable = field(repr=False)
    resolve_windows: Optional[Callable] = field(default=None, repr=False)
    # Always None (the bus arbitrates with its own grant loop); kept because
    # perfbench/spans.py reads this slot on every kernel.
    arbitrate: Optional[Callable] = field(default=None, repr=False)


@lru_cache(maxsize=1)
def _registry() -> Tuple[Dict[str, Kernel], Dict[str, str]]:
    """The usable kernels by name, and why each missing tier is missing."""
    kernels = {"python": Kernel(name="python", scan_windows=_reference.scan_windows)}
    missing: Dict[str, str] = {}
    from . import cext as _cext

    try:
        native = _cext.load()
    except _cext.BuildError as error:
        missing["cext"] = str(error)
    else:
        kernels["cext"] = Kernel(
            name="cext",
            scan_windows=native.scan_windows,
            resolve_windows=native.resolve_windows,
        )
    return kernels, missing


def available_kernels() -> Tuple[str, ...]:
    """Names of the kernels usable in this environment, in registry order."""
    return tuple(_registry()[0])


@lru_cache(maxsize=None)
def _warn_unavailable(requested: str) -> None:
    kernels, missing = _registry()
    warnings.warn(
        f"kernel {requested!r} is not available in this environment "
        f"({missing[requested]}; "
        f"available: {', '.join(kernels)}); "
        "falling back to the 'python' reference kernel",
        RuntimeWarning,
        stacklevel=3,
    )


def get_kernel(name: Optional[str] = None) -> Kernel:
    """Resolve a kernel by name, environment, or ``"auto"`` preference.

    ``name=None`` defers to ``$REPRO_KERNEL``, and absent that to
    ``"auto"`` — which picks the fastest registered tier.  Unknown names
    raise :class:`ValueError`; a known-but-unavailable name (``"cext"``
    on a host whose build failed) falls back to ``"python"`` with a
    one-time :class:`RuntimeWarning` giving the reason.
    """
    requested = name or os.environ.get("REPRO_KERNEL") or "auto"
    if requested not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {requested!r}; expected one of {', '.join(KERNEL_NAMES)}"
        )
    registry = _registry()[0]
    if requested == "auto":
        for candidate in _AUTO_ORDER:
            if candidate in registry:
                return registry[candidate]
    kernel = registry.get(requested)
    if kernel is None:
        _warn_unavailable(requested)
        return registry["python"]
    return kernel
