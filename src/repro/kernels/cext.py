"""The ``"cext"`` compute kernels — self-compiling C ports bound via ctypes.

The native tier: when a C compiler is on the host (``cc`` / ``gcc`` /
``$CC``) the embedded source below is compiled once into a shared library
cached by source digest in a per-user directory (see :func:`_cache_dir`),
and loaded through :mod:`ctypes` only when that directory and the library
are owned by the current user and writable by no one else.  No build backend,
no wheels, no install step.  On hosts where the build fails, or where the
cache fails that ownership check, :func:`load` raises :class:`BuildError`
with the reason, the kernel is not registered and
:func:`repro.kernels.get_kernel` falls back to the ``"python"`` reference.

Bit-identity with the Python reference is a *compiler-flag* contract: the
build pins ``-ffp-contract=off -fno-fast-math`` (no FMA contraction, strict
IEEE-754 ordering), and the loop bodies are single adds/multiplies/compares
on doubles — the exact operations CPython floats perform.  The equivalence is
locked by ``tests/test_kernels.py``.

ctypes releases the GIL for the duration of every foreign call, so these
kernels parallelise under :class:`~repro.scenarios.executors.ThreadExecutor`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path
from typing import Tuple

import numpy as np

from .reference import check_segment_bounds, check_start_state

_SOURCE = r"""
#include <math.h>

void repro_scan_windows(
    long long segments,
    const long long *segment_bounds, /* (segments + 1) CSR over the windows */
    const double *photon_rel,
    const unsigned char *photon_valid,
    const double *dark_rel,
    const long long *dark_bounds,
    const unsigned char *trap_filled,
    const double *trap_release,
    double dead_time,
    double gate_recovery,
    double duration,
    double base,
    double *state,              /* [last_fire, pending] per segment:
                                   in the start state, out the final one */
    double *out_times,
    signed char *out_origins)
{
    long long segment;
    for (segment = 0; segment < segments; ++segment) {
        long long first = segment_bounds[segment];
        double last_fire = state[2 * segment];
        double pending = state[2 * segment + 1];
        long long index;
        for (index = first; index < segment_bounds[segment + 1]; ++index) {
            double window_start = base + (double)(index - first) * duration;
            double window_end = window_start + duration;
            double ready = (window_start - last_fire >= gate_recovery)
                ? window_start : last_fire + dead_time;
            double best = INFINITY;
            int origin = -1;
            long long j;
            if (photon_valid[index]) {
                double t = window_start + photon_rel[index];
                if (t >= ready) { best = t; origin = 0; }
            }
            for (j = dark_bounds[index]; j < dark_bounds[index + 1]; ++j) {
                double t = window_start + dark_rel[j];
                if (t >= ready && t < best) { best = t; origin = 1; }
            }
            if (window_start <= pending && pending < window_end
                    && pending >= ready && pending < best) {
                best = pending;
                origin = 2;
            }
            if (pending < window_end) pending = INFINITY;
            if (origin >= 0) {
                out_times[index] = best;
                out_origins[index] = (signed char)origin;
                last_fire = best;
                pending = trap_filled[index] ? best + trap_release[index] : INFINITY;
            } else {
                out_times[index] = NAN;
                out_origins[index] = -1;
            }
        }
        state[2 * segment] = last_fire;
        state[2 * segment + 1] = pending;
    }
}

void repro_resolve_windows(
    long long windows,
    long long channels,
    long long n_secondary,
    const double *primary,            /* (S, C) row-major */
    const double *secondary,          /* (K, S, C) row-major */
    const double *dark_rel,
    const long long *dark_bounds,     /* (S*C + 1) CSR */
    const double *background_rel,
    const long long *background_bounds,
    const unsigned char *trap_filled, /* (S, C) */
    const double *trap_release,       /* (S, C) */
    double dead_time,
    double gate_recovery,
    double duration,
    double base,
    double *out_times,
    signed char *out_origins)
{
    long long plane = windows * channels;
    long long c;
    for (c = 0; c < channels; ++c) {
        double last_fire = -INFINITY;
        double pending = INFINITY;
        long long s;
        for (s = 0; s < windows; ++s) {
            double ws = base + (double)s * duration;
            double we = ws + duration;
            double ready = (ws - last_fire >= gate_recovery)
                ? ws : last_fire + dead_time;
            double best = INFINITY;
            int origin = -1;
            long long flat = s * channels + c;
            long long j;
            int consumed;
            double t = primary[flat];
            if (isfinite(t) && t >= ready) { best = t; origin = 0; }
            for (j = 0; j < n_secondary; ++j) {
                t = secondary[j * plane + flat];
                if (t >= ready && t < best) { best = t; origin = 3; }
            }
            for (j = dark_bounds[flat]; j < dark_bounds[flat + 1]; ++j) {
                t = ws + dark_rel[j];
                if (t >= ready && t < best) { best = t; origin = 1; }
            }
            for (j = background_bounds[flat]; j < background_bounds[flat + 1]; ++j) {
                t = ws + background_rel[j];
                if (t >= ready && t < best) { best = t; origin = 3; }
            }
            if (pending >= ws && pending < we && pending >= ready && pending < best) {
                best = pending;
                origin = 2;
            }
            consumed = pending < we;
            if (origin >= 0) {
                out_times[flat] = best;
                out_origins[flat] = (signed char)origin;
                last_fire = best;
                pending = trap_filled[flat] ? best + trap_release[flat] : INFINITY;
            } else {
                out_times[flat] = NAN;
                out_origins[flat] = -1;
                if (consumed) pending = INFINITY;
            }
        }
    }
}
"""

#: IEEE-754-preserving build: optimise, but never contract into FMAs or
#: reassociate float expressions — the bit-identity contract depends on it.
_CFLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8 = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_I8 = np.ctypeslib.ndpointer(dtype=np.int8, flags="C_CONTIGUOUS")


def _cache_dir() -> Path:
    """Where built libraries live: ``$REPRO_CEXT_CACHE``, else a per-user cache.

    The default is ``$XDG_CACHE_HOME/repro-kernels`` (``~/.cache`` when the
    variable is unset), or ``<tmp>/repro-kernels-<uid>`` on a host without a
    home directory — never a directory other users share.
    """
    configured = os.environ.get("REPRO_CEXT_CACHE")
    if configured:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg and os.path.isabs(xdg):
        return Path(xdg) / "repro-kernels"
    home = os.path.expanduser("~")
    if home != "~":
        return Path(home) / ".cache" / "repro-kernels"
    return Path(tempfile.gettempdir()) / f"repro-kernels-{os.getuid()}"


class BuildError(RuntimeError):
    """The native kernels cannot be built or loaded on this host."""


def _compiler() -> str:
    configured = os.environ.get("CC")
    if configured:
        if shutil.which(configured) is None:
            raise BuildError(f"compiler {configured!r} from $CC not found")
        return configured
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise BuildError("no C compiler found (cc, gcc or $CC)")
    return compiler


def library_name() -> str:
    """File name of the built library: keyed by the source and flags digest."""
    digest = hashlib.sha256((" ".join(_CFLAGS) + _SOURCE).encode()).hexdigest()[:16]
    return f"repro_kernels_{digest}.so"


def _check_private(path: Path) -> None:
    """:class:`BuildError` unless ``path`` is ours and no one else can write it.

    A library is code every repro process runs: loading one from a place
    another user can write would run their code, so the cache directory and
    the library must be owned by the current user and not group- or
    world-writable.
    """
    if not hasattr(os, "getuid"):
        raise BuildError("no file-ownership check on this platform")
    try:
        status = path.stat()
    except OSError as error:
        raise BuildError(f"cannot inspect {path}: {error}") from error
    if status.st_uid != os.getuid():
        raise BuildError(
            f"refusing {path}: owned by uid {status.st_uid}, not the current user "
            f"(uid {os.getuid()})"
        )
    if status.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise BuildError(
            f"refusing {path}: group- or world-writable "
            f"(mode {stat.S_IMODE(status.st_mode):o})"
        )


def _build_library() -> Path:
    """Compile (or reuse) the kernel library; :class:`BuildError` says why not."""
    compiler = _compiler()
    cache = _cache_dir()
    library = cache / library_name()
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError as error:
        raise BuildError(f"cannot create the kernel cache {cache}: {error}") from error
    _check_private(cache)
    if library.exists():
        _check_private(library)
        return library
    try:
        # Build in a scratch dir inside the cache so the final os.replace is
        # an atomic same-filesystem rename (concurrent builders race safely).
        scratch = Path(tempfile.mkdtemp(dir=cache))
    except OSError as error:
        raise BuildError(f"cannot write to the kernel cache {cache}: {error}") from error
    try:
        source = scratch / "repro_kernels.c"
        source.write_text(_SOURCE)
        built = scratch / library.name
        result = subprocess.run(
            [compiler, *_CFLAGS, str(source), "-o", str(built)],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            stderr = result.stderr.decode(errors="replace").strip()
            detail = f": {stderr[-500:]}" if stderr else ""
            raise BuildError(f"{compiler} exited with status {result.returncode}{detail}")
        built.chmod(0o700)
        os.replace(built, library)
        return library
    except (OSError, subprocess.SubprocessError) as error:
        raise BuildError(f"{compiler} failed: {error}") from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class CExtKernels:
    """Python-calling-convention wrappers over the compiled library."""

    def __init__(self, library: ctypes.CDLL) -> None:
        self._scan = library.repro_scan_windows
        self._scan.restype = None
        self._scan.argtypes = [
            ctypes.c_longlong, _I64,
            _F64, _U8, _F64, _I64, _U8, _F64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _F64, _F64, _I8,
        ]
        self._resolve = library.repro_resolve_windows
        self._resolve.restype = None
        self._resolve.argtypes = [
            ctypes.c_longlong, ctypes.c_longlong, ctypes.c_longlong,
            _F64, _F64, _F64, _I64, _F64, _I64, _U8, _F64,
            ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _F64, _I8,
        ]

    def scan_windows(
        self,
        photon_rel,
        photon_valid,
        dark_rel,
        dark_bounds,
        trap_filled,
        trap_release,
        dead_time,
        gate_recovery,
        duration,
        base,
        last_fire,
        pending,
        segment_bounds,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Native dead-time scan (see :func:`repro.kernels.reference.scan_windows`)."""
        count = int(np.asarray(photon_rel).shape[0])
        bounds = check_segment_bounds(segment_bounds, count)
        segments = len(bounds) - 1
        state = np.array(
            list(zip(*check_start_state(last_fire, pending, segments))), dtype=np.float64
        )
        out_times = np.empty(count, dtype=np.float64)
        out_origins = np.empty(count, dtype=np.int8)
        self._scan(
            segments,
            np.array(bounds, dtype=np.int64),
            np.ascontiguousarray(photon_rel, dtype=np.float64),
            np.ascontiguousarray(photon_valid, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(dark_rel, dtype=np.float64),
            np.ascontiguousarray(dark_bounds, dtype=np.int64),
            np.ascontiguousarray(trap_filled, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(trap_release, dtype=np.float64),
            float(dead_time),
            float(gate_recovery),
            float(duration),
            float(base),
            state,
            out_times,
            out_origins,
        )
        return out_times, out_origins, state[:, 0].copy(), state[:, 1].copy()

    def resolve_windows(
        self,
        primary,
        secondary,
        dark_rel,
        dark_bounds,
        background_rel,
        background_bounds,
        trap_filled,
        trap_release,
        dead_time,
        gate_recovery,
        duration,
        base,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Native multichannel resolution (see :func:`repro.kernels.reference.resolve_windows`)."""
        primary = np.ascontiguousarray(primary, dtype=np.float64)
        windows, channels = primary.shape
        secondary = np.ascontiguousarray(secondary, dtype=np.float64)
        out_times = np.empty((windows, channels), dtype=np.float64)
        out_origins = np.empty((windows, channels), dtype=np.int8)
        self._resolve(
            int(windows),
            int(channels),
            int(secondary.shape[0]),
            primary,
            secondary,
            np.ascontiguousarray(dark_rel, dtype=np.float64),
            np.ascontiguousarray(dark_bounds, dtype=np.int64),
            np.ascontiguousarray(background_rel, dtype=np.float64),
            np.ascontiguousarray(background_bounds, dtype=np.int64),
            np.ascontiguousarray(trap_filled, dtype=np.bool_).view(np.uint8),
            np.ascontiguousarray(trap_release, dtype=np.float64),
            float(dead_time),
            float(gate_recovery),
            float(duration),
            float(base),
            out_times,
            out_origins,
        )
        return out_times, out_origins


def load() -> CExtKernels:
    """Build/load the native kernels; :class:`BuildError` when the host can't."""
    library_path = _build_library()
    try:
        return CExtKernels(ctypes.CDLL(str(library_path)))
    except OSError as error:
        raise BuildError(f"cannot load {library_path}: {error}") from error
