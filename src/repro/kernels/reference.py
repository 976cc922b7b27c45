"""The ``"python"`` compute kernels — today's loops, extracted verbatim.

These are the *semantics-defining* implementations of the two sequential hot
loops the kernel layer accelerates: the dead-time winner scan of
:meth:`~repro.spad.device.SpadDevice.detect_in_windows` and the per-channel
window resolution of :func:`~repro.spad.array.detect_in_windows_multichannel`.
The native ``"cext"`` kernel must match them **bit for bit** on the same
pre-drawn inputs (locked by ``tests/test_kernels.py``); any behaviour change
lands here first and propagates outward.

Sentinel convention at the kernel boundary
------------------------------------------
The device's optional state crosses into kernels as floats: a ``None``
``last_fire`` becomes ``-inf`` (armed since forever) and a ``None`` pending
afterpulse becomes ``+inf`` (never).  With that encoding every ``is not
None`` guard of the original loop reduces to the plain float comparison that
follows it (``pending < window_end`` is false for ``+inf``;
``window_start - (-inf) >= gate_recovery`` is true), so the float-only loop
below is line-for-line the scan that used to live in ``device.py``.

This module is a leaf: it imports NumPy and nothing from :mod:`repro`, so the
registry (and :class:`~repro.scenarios.scenario.Scenario` validation) can
import it without cycles.  Origin codes are therefore literals here — ``0``
photon, ``1`` dark count, ``2`` afterpulse, ``3`` crosstalk, ``-1`` missed —
matching :data:`repro.spad.device.ORIGIN_BY_CODE`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

_INF = float("inf")
_NAN = float("nan")


def check_segment_bounds(segment_bounds, count: int) -> List[int]:
    """Validate CSR segment boundaries over ``count`` windows, as a list of ints.

    ``segment_bounds[j]:segment_bounds[j + 1]`` is segment ``j``'s window
    range: the sequence starts at 0, ends at ``count`` and never decreases
    (empty segments are allowed).
    """
    bounds = np.asarray(segment_bounds, dtype=np.int64)
    listed = bounds.tolist()
    if (
        bounds.ndim != 1
        or len(listed) < 2
        or listed[0] != 0
        or listed[-1] != count
        or any(stop < start for start, stop in zip(listed, listed[1:]))
    ):
        raise ValueError(
            f"segment_bounds must rise from 0 to {count} (one entry per segment, plus one)"
        )
    return listed


def check_start_state(last_fire, pending, segments: int) -> Tuple[List[float], List[float]]:
    """Validate a scan's per-segment start state, as two lists of floats."""
    last_fire = np.asarray(last_fire, dtype=np.float64)
    pending = np.asarray(pending, dtype=np.float64)
    if last_fire.shape != (segments,) or pending.shape != (segments,):
        raise ValueError("need one start state (last_fire, pending) per segment")
    return last_fire.tolist(), pending.tolist()


def scan_windows(
    photon_rel: np.ndarray,
    photon_valid: np.ndarray,
    dark_rel: np.ndarray,
    dark_bounds: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
    dead_time: float,
    gate_recovery: float,
    duration: float,
    base: float,
    last_fire: np.ndarray,
    pending: np.ndarray,
    segment_bounds: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sequential dead-time winner scan over consecutive segments of windows.

    Inputs are the pre-drawn per-window randomness of the single-channel
    batch pass (photon candidate offsets + validity, CSR-indexed dark-count
    offsets, afterpulse trap draws).  ``segment_bounds`` (CSR, see
    :func:`check_segment_bounds`) splits the windows into independent
    segments, one per device: segment ``j`` starts from ``last_fire[j]`` /
    ``pending[j]`` (the device state, encoded per the module sentinel
    convention), and its window ``i`` starts at ``base + i * duration``
    counted from its own first window, so a segment scans exactly as it
    would alone.  Returns ``(times, origins, last_fire, pending)`` — absolute
    detection times (``NaN`` = missed), int8 origin codes, and every
    segment's final state as float64 arrays, same encoding.
    """
    count = int(photon_rel.shape[0])
    bounds = check_segment_bounds(segment_bounds, count)
    # Python-list views: ~3x faster to index than NumPy scalars in a Python
    # loop, and list floats are exactly the C doubles of the arrays.
    photon_rel_l = photon_rel.tolist()
    photon_valid_l = photon_valid.tolist()
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    trap_filled_l = trap_filled.tolist()
    trap_release_l = trap_release.tolist()
    final_fire, final_pending = check_start_state(last_fire, pending, len(bounds) - 1)
    out_times = []
    out_origins = []
    for segment in range(len(bounds) - 1):
        first = bounds[segment]
        last_fire = final_fire[segment]
        pending = final_pending[segment]
        for index in range(first, bounds[segment + 1]):
            window_start = base + (index - first) * duration
            window_end = window_start + duration
            if window_start - last_fire >= gate_recovery:
                ready = window_start
            else:
                ready = last_fire + dead_time
            best = _INF
            origin = -1
            if photon_valid_l[index]:
                time = window_start + photon_rel_l[index]
                if time >= ready:
                    best = time
                    origin = 0
            for position in range(dark_bounds_l[index], dark_bounds_l[index + 1]):
                time = window_start + dark_rel_l[position]
                if time >= ready and time < best:
                    best = time
                    origin = 1
            if (
                window_start <= pending < window_end
                and pending >= ready
                and pending < best
            ):
                best = pending
                origin = 2
            if pending < window_end:
                pending = _INF
            if origin >= 0:
                out_times.append(best)
                out_origins.append(origin)
                last_fire = best
                if trap_filled_l[index]:
                    pending = best + trap_release_l[index]
                else:
                    pending = _INF
            else:
                out_times.append(_NAN)
                out_origins.append(-1)
        final_fire[segment] = last_fire
        final_pending[segment] = pending
    return (
        np.asarray(out_times, dtype=float),
        np.asarray(out_origins, dtype=np.int8),
        np.asarray(final_fire, dtype=float),
        np.asarray(final_pending, dtype=float),
    )


def resolve_windows(
    primary: np.ndarray,
    secondary: np.ndarray,
    dark_rel: np.ndarray,
    dark_bounds: np.ndarray,
    background_rel: np.ndarray,
    background_bounds: np.ndarray,
    trap_filled: np.ndarray,
    trap_release: np.ndarray,
    dead_time: float,
    gate_recovery: float,
    duration: float,
    base: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel window resolution of the multichannel array pass.

    ``primary`` is ``(S, C)`` absolute candidate times (``inf`` = none),
    ``secondary`` the interference candidates stacked to ``(K, S, C)``, dark
    and background events CSR-indexed over the flat ``(S*C,)`` window/channel
    grid.  Channels are independent pixels, so the scan runs channel-major;
    the candidate precedence (primary, secondaries in order, darks,
    background, pending afterpulse — later sources win only strictly earlier)
    is exactly that of ``_resolve_windows_reference`` in
    :mod:`repro.spad.array`, which stays the semantic ground truth.

    This Python port exists as the like-for-like reference for the native
    kernels; the production ``"python"`` resolver remains the
    speculate-then-correct fast path in :mod:`repro.spad.array`.
    """
    windows, channels = primary.shape
    n_secondary = int(secondary.shape[0])
    out_times = np.full((windows, channels), _NAN)
    out_origins = np.full((windows, channels), -1, dtype=np.int8)
    dark_rel_l = dark_rel.tolist()
    dark_bounds_l = dark_bounds.tolist()
    background_rel_l = background_rel.tolist()
    background_bounds_l = background_bounds.tolist()
    for c in range(channels):
        last_fire = -_INF
        pending = _INF
        for s in range(windows):
            ws = base + s * duration
            we = ws + duration
            if ws - last_fire >= gate_recovery:
                ready = ws
            else:
                ready = last_fire + dead_time
            best = _INF
            origin = -1
            t = primary[s, c]
            if np.isfinite(t) and t >= ready:
                best = t
                origin = 0
            for k in range(n_secondary):
                t = secondary[k, s, c]
                if t >= ready and t < best:
                    best = t
                    origin = 3
            flat = s * channels + c
            for j in range(dark_bounds_l[flat], dark_bounds_l[flat + 1]):
                t_abs = ws + dark_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 1
            for j in range(background_bounds_l[flat], background_bounds_l[flat + 1]):
                t_abs = ws + background_rel_l[j]
                if t_abs >= ready and t_abs < best:
                    best = t_abs
                    origin = 3
            if pending >= ws and pending < we and pending >= ready and pending < best:
                best = pending
                origin = 2
            consumed = pending < we
            if origin >= 0:
                out_times[s, c] = best
                out_origins[s, c] = origin
                last_fire = best
                if trap_filled[s, c]:
                    pending = best + trap_release[s, c]
                else:
                    pending = _INF
            elif consumed:
                pending = _INF
    return out_times, out_origins
