"""Vectorised batch transmission engine — the link simulator's fast path.

:class:`FastOpticalLink` is a drop-in replacement for
:class:`~repro.core.link.OpticalLink` that simulates all S symbols of a
payload at once instead of one per Python-interpreter iteration.  The paper's
headline figures (BER vs. range, the TP/DC surfaces) are statistical estimates
needing 10^5–10^7 simulated PPM symbols per operating point; at that scale the
scalar path is interpreter-bound, not model-bound.

Scalar-vs-batch contract
------------------------
The batch engine is *statistically equivalent* to the scalar path — same
physical models, same distributions, same decision rules — but not draw-for-
draw identical: randomness is consumed in bulk array draws (one per physical
process) rather than interleaved per event, so the two paths produce different
(equally valid) sample paths from the same seed.  Each path is individually
deterministic given its seed.

The pipeline is NumPy end to end, and one pass of it carries any number of
independent *segments* — one payload per link (the ``segments`` of
:meth:`FastOpticalLink.transmit_bits`; a plain call is the one-segment case):

1. PPM encoding packs the concatenated payloads into one symbol-value array
   and one pulse-time array (``PpmCodec.encode_bits_to_values`` /
   ``pulse_times_for_values``).
2. :meth:`SpadDevice.detect_in_windows` pre-draws photon detection
   Bernoullis, jitter, Poisson dark-count arrivals and afterpulse trap
   releases as arrays — each segment from its own link's generator, the
   same draws as one call per link — then resolves the winner of each
   window.  Only this winner resolution runs as a sequential scan, because
   dead time and afterpulsing genuinely couple consecutive windows: whether
   window ``i`` re-arms at its start — and which trap release is pending —
   depends on *when* window ``i-1`` fired, which is itself a stochastic
   outcome.  One kernel scan covers every segment, starting each from its
   own detector's state.
3. :meth:`TimeToDigitalConverter.convert_array` quantises every detection
   with ``np.searchsorted`` against each link's own (mismatched) delay
   line; the coarse split on the shared counter runs once.
4. ``PpmCodec.decode_times`` maps the measured times back to slot values and
   the bit matrix is unpacked in one shot.

Window start times are counted from each window's own segment, with the
scan's arithmetic, so every segment decodes exactly as it would alone.

Bits stay one compact ``uint8`` array from the validated payload
(:func:`~repro.modulation.symbols.as_bit_array`) to the error count; no step
converts them to or from Python lists.  The result is the same
:class:`~repro.core.link.TransmissionResult` the scalar path returns, at a
≥10× (typically 30–100×) symbols/sec advantage on 10^5-symbol workloads
(see ``benchmarks/bench_fastpath_speedup.py``).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import LinkConfig
from repro.core.link import OpticalLink, TransmissionResult
from repro.modulation.symbols import as_bit_array, ints_to_bit_matrix
from repro.photonics.channel import OpticalChannel
from repro.spad.device import ORIGIN_BY_CODE, ImportanceSettings


class FastOpticalLink(OpticalLink):
    """Drop-in :class:`OpticalLink` whose transmit path is the batch engine.

    Construction, configuration, seeding and the returned
    :class:`TransmissionResult` are identical to the scalar link; only
    :meth:`transmit_bits` is overridden.  Use the scalar class when you need
    draw-for-draw reproduction of legacy results, the fast class everywhere
    throughput matters.

    ``importance`` switches the detection core to the importance-sampled
    rare-event path (:class:`~repro.spad.device.ImportanceSettings`): the
    returned result then carries per-symbol likelihood weights in
    ``symbol_weights`` and its *weighted* error statistics are unbiased
    estimates of the naive path's.
    """

    def __init__(
        self,
        config: LinkConfig = LinkConfig(),
        channel: Optional[OpticalChannel] = None,
        seed: int = 0,
        importance: Optional[ImportanceSettings] = None,
        kernel: Optional[str] = None,
    ) -> None:
        super().__init__(config=config, channel=channel, seed=seed)
        self.importance = importance
        self.kernel = kernel

    def transmit_bits(
        self,
        bits: Sequence[int],
        segments: Sequence[Tuple["FastOpticalLink", Sequence[int]]] = (),
    ) -> TransmissionResult:
        """Send a payload over the link, simulating every symbol in one batch.

        Same contract as :meth:`OpticalLink.transmit_bits`: the payload is
        padded with zeros to a whole number of symbols and error statistics
        cover the original bit positions.

        ``segments`` sends further payloads over other links in the same
        pass, one ``(link, bits)`` pair each.  Every payload is padded to
        whole symbols and every link's detector starts from reset, exactly as
        in ``link.transmit_bits(bits)``; every random draw comes from that
        link's own generators, so each segment's symbols, detections and
        decoded bits are those of the separate call.  The result covers the
        concatenation: ``transmitted_bits`` and ``received_bits`` are the
        payloads back to back (padding dropped), and symbol, error and
        detection counts and elapsed time are summed over the segments.  The
        links must share the PPM slot grid (``ppm_bits``, symbol duration),
        the SPAD quenching and the TDC coarse counter, or :class:`ValueError`
        is raised; photon budgets, seeds and delay-line mismatch are per link.
        Importance-sampled links transmit alone.  The detection scan runs on
        this link's kernel (every kernel is bit-identical).
        """
        links = [self, *(link for link, _ in segments)]
        if any(link.codec.grid != self.codec.grid for link in links):
            raise ValueError(
                "segmented links disagree on the PPM slot grid (ppm_bits, symbol duration)"
            )
        if any(link.tdc.coarse != self.tdc.coarse for link in links):
            raise ValueError("segmented links disagree on the TDC coarse counter")
        if segments and any(link.importance is not None for link in links):
            raise ValueError("importance-sampled links transmit one segment at a time")
        bit_arrays = [as_bit_array(bits), *(as_bit_array(payload) for _, payload in segments)]
        if any(payload.size == 0 for payload in bit_arrays):
            raise ValueError("bits must be non-empty")
        k = self.config.ppm_bits
        padded = [
            np.pad(payload, (0, -payload.size % k)) if payload.size % k else payload
            for payload in bit_arrays
        ]
        symbol_bounds = [0, *accumulate(payload.size // k for payload in padded)]

        values = self.codec.encode_bits_to_values(np.concatenate(padded))
        symbol_count = int(values.size)
        symbol_duration = self.config.symbol_duration

        # The receiver's windows are assumed aligned to the (symbol-invariant)
        # propagation delay by clock recovery, so pulse times are window-
        # relative slot centres; the channel only enters through attenuation.
        pulse_offsets = self.codec.pulse_times_for_values(values)

        for link in links:
            link.spad.reset()
        symbol_weights = None
        detection = self.spad.detect_in_windows(
            symbol_duration,
            pulse_offsets,
            self.mean_photons_at_detector(),
            importance=self.importance,
            kernel=self.kernel,
            segments=[
                (link.spad, start, link.mean_photons_at_detector())
                for link, start in zip(links[1:], symbol_bounds[1:])
            ],
        )
        if self.importance is not None:
            times, origins, symbol_weights = detection
        else:
            times, origins = detection

        detected = origins >= 0
        decoded = np.zeros(symbol_count, dtype=np.int64)
        if np.any(detected):
            index = np.flatnonzero(detected)
            detection_bounds = np.searchsorted(index, symbol_bounds)
            # Window starts count from each window's own segment, as in the scan.
            local = index - np.repeat(symbol_bounds[:-1], np.diff(detection_bounds))
            relative = times[detected] - local.astype(float) * symbol_duration
            relative = np.clip(relative, 0.0, self.tdc.usable_range * 0.999999)
            conversion = self.tdc.convert_array(
                relative,
                segments=[
                    (link.tdc, start)
                    for link, start in zip(links[1:], detection_bounds[1:].tolist())
                ],
            )
            measured = np.clip(conversion.measured_times, 0.0, symbol_duration * 0.999999)
            decoded[detected] = self.codec.decode_times(measured)

        received_bits = ints_to_bit_matrix(decoded, k).ravel()
        transmitted_bits = np.concatenate(bit_arrays)
        if received_bits.size != transmitted_bits.size:
            received_bits = np.concatenate(
                [
                    received_bits[start * k : start * k + payload.size]
                    for start, payload in zip(symbol_bounds, bit_arrays)
                ]
            )

        counts = {origin.value: 0 for origin in ORIGIN_BY_CODE.values()}
        counts["missed"] = int(np.count_nonzero(~detected))
        codes, code_counts = np.unique(origins[detected], return_counts=True)
        for code, code_count in zip(codes, code_counts):
            counts[ORIGIN_BY_CODE[int(code)].value] = int(code_count)

        return TransmissionResult(
            transmitted_bits=transmitted_bits,
            received_bits=received_bits,
            symbols_sent=symbol_count,
            symbol_errors=int(np.count_nonzero(decoded != values)),
            detection_counts=counts,
            elapsed_time=symbol_count * symbol_duration,
            symbol_weights=symbol_weights,
            symbol_origins=origins if self.importance is not None else None,
        )
