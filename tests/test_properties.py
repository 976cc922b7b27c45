"""Property-based tests (hypothesis) on the core data structures and invariants."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.units import PS
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.kernels import available_kernels, get_kernel, reference
from repro.core.throughput import (
    bits_per_symbol,
    detection_cycle,
    measurement_window,
    throughput,
)
from repro.modulation.error_correction import HammingSecDed
from repro.modulation.ppm import PpmCodec
from repro.modulation.scrambler import MultiplicativeScrambler
from repro.modulation.symbols import SlotGrid, bits_to_int, int_to_bits
from repro.scenarios.faults import (
    FAILURE_POLICIES,
    AttemptScheduler,
    PointFailure,
    RetryPolicy,
)
from repro.tdc.coarse_counter import CoarseCounter
from repro.tdc.nonlinearity import compute_dnl_inl
from repro.tdc.thermometer import binary_to_thermometer, majority_filter, thermometer_to_binary


# --------------------------------------------------------------------------- bits
@given(value=st.integers(min_value=0, max_value=2 ** 16 - 1), width=st.integers(16, 24))
def test_bit_roundtrip(value, width):
    assert bits_to_int(int_to_bits(value, width)) == value


@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=32))
def test_bits_to_int_bounded(bits):
    assert 0 <= bits_to_int(bits) < 2 ** len(bits)


# --------------------------------------------------------------------- thermometer
@given(value=st.integers(0, 64), length=st.just(64))
def test_thermometer_roundtrip(value, length):
    assert thermometer_to_binary(binary_to_thermometer(value, length)) == value


@given(value=st.integers(0, 32))
def test_majority_filter_idempotent_on_clean_codes(value):
    code = binary_to_thermometer(value, 32)
    assert np.array_equal(majority_filter(code), code)


# ----------------------------------------------------------------------------- PPM
@given(bits=st.lists(st.integers(0, 1), min_size=4, max_size=40).filter(lambda b: len(b) % 4 == 0))
def test_ppm_encode_decode_roundtrip(bits):
    codec = PpmCodec(SlotGrid(bits_per_symbol=4, slot_duration=1e-9, guard_time=8e-9))
    symbols = codec.encode_bits(bits)
    decoded = codec.decode_stream([symbol.pulse_time for symbol in symbols])
    assert decoded == list(bits)


@given(value=st.integers(0, 255))
def test_ppm_pulse_time_within_data_window(value):
    grid = SlotGrid(bits_per_symbol=8, slot_duration=0.5e-9, guard_time=4e-9)
    codec = PpmCodec(grid)
    symbol = codec.encode_value(value)
    assert 0 <= symbol.pulse_time < grid.data_window


# ------------------------------------------------------------ link bit path
@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["scalar", "batch", "multichannel"]),
    ppm_bits=st.integers(2, 6),
    data=st.data(),
)
def test_link_bit_path_contract(backend, ppm_bits, data):
    length = data.draw(st.integers(1, 64).filter(lambda n: n % ppm_bits), label="length")
    payload = data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length))
    # A dim link, so the payloads actually take bit errors.
    config = LinkConfig(ppm_bits=ppm_bits, mean_detected_photons=1.5)
    extra = {"channels": 3} if backend == "multichannel" else {}
    results = [
        make_link(config, backend=backend, seed=11, **extra).transmit_bits(bits)
        for bits in (payload, np.array(payload, dtype=np.int64))
    ]
    for result in results:
        assert result.transmitted_bits.dtype == result.received_bits.dtype == np.uint8
        np.testing.assert_array_equal(result.transmitted_bits, payload)
        assert len(result.received_bits) == len(payload)
        received = result.received_bits.tolist()
        assert result.bit_errors == sum(a != b for a, b in zip(payload, received))
    from_list, from_array = results
    np.testing.assert_array_equal(from_list.received_bits, from_array.received_bits)
    assert from_list.symbol_errors == from_array.symbol_errors
    assert from_list.detection_counts == from_array.detection_counts


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["scalar", "batch", "multichannel"]),
    ppm_bits=st.integers(1, 6),
    photons=st.sampled_from([0.0, 0.5, 3.0, 200.0]),
    slot_ps=st.sampled_from([250.0, 500.0, 2000.0]),
    dead_time_ns=st.sampled_from([4.0, 32.0, 100.0]),
    guard_ns=st.sampled_from([0.0, 16.0]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_detection_counts_conserve_symbols(
    backend, ppm_bits, photons, slot_ps, dead_time_ns, guard_ns, seed, data
):
    # Every symbol window ends in exactly one origin (photon, dark count,
    # afterpulse, crosstalk) or a miss, on every backend and kernel.
    payload = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=80), label="payload")
    config = LinkConfig(
        ppm_bits=ppm_bits,
        mean_detected_photons=photons,
        slot_duration=slot_ps * PS,
        spad_dead_time=dead_time_ns * 1e-9,
        extra_guard=guard_ns * 1e-9,
    )
    options = {}
    if backend == "multichannel":
        options["channels"] = data.draw(st.integers(1, 4), label="channels")
    # The scalar backend has no kernel slot: it runs once.
    kernels = [None] if backend == "scalar" else [k for k in ("python", "cext") if k in available_kernels()]
    for kernel in kernels:
        if kernel is not None:
            options["kernel"] = kernel
        result = make_link(config, backend=backend, seed=seed, **options).transmit_bits(payload)
        assert all(count >= 0 for count in result.detection_counts.values())
        assert sum(result.detection_counts.values()) == result.symbols_sent, kernel


# ----------------------------------------------------------------- scrambler / FEC
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=200), state=st.integers(0, 127))
def test_scrambler_roundtrip(bits, state):
    scrambler = MultiplicativeScrambler()
    assert scrambler.descramble(scrambler.scramble(bits, state), state) == bits


@given(
    data=st.lists(st.integers(0, 1), min_size=8, max_size=8),
    error_position=st.integers(0, 12),
)
def test_hamming_corrects_any_single_error(data, error_position):
    code = HammingSecDed()
    codeword = code.encode_block(data)
    codeword[error_position] ^= 1
    assert code.decode_block(codeword).data_bits == data


# ------------------------------------------------------------------ paper equations
@given(
    n=st.sampled_from([4, 8, 16, 32, 64, 96, 128, 256]),
    c=st.integers(0, 8),
    delta=st.floats(min_value=10e-12, max_value=200e-12),
)
def test_throughput_equation_invariants(n, c, delta):
    mw = measurement_window(n, c, delta)
    dc = detection_cycle(n, c, delta)
    tp = throughput(n, c, delta)
    # MW always exceeds DC by exactly one fine range.
    assert mw - dc == pytest.approx(n * delta)
    # Throughput times the window recovers the bits per symbol.
    assert tp * mw == pytest.approx(bits_per_symbol(n, c))
    # All quantities are positive.
    assert mw > 0 and dc > 0 and tp > 0


@given(
    n=st.sampled_from([8, 16, 32, 64]),
    c=st.integers(0, 6),
    delta=st.floats(min_value=20e-12, max_value=100e-12),
)
def test_throughput_decreases_when_range_extended(n, c, delta):
    assert throughput(n, c + 1, delta) <= throughput(n, c, delta) + 1e-9


# -------------------------------------------------------------------- coarse counter
@given(
    arrival=st.floats(min_value=0.0, max_value=75e-9),
    bits=st.integers(1, 5),
)
def test_coarse_split_reconstruct_roundtrip(arrival, bits):
    counter = CoarseCounter(clock_frequency=200e6, bits=bits)
    if arrival >= counter.full_range:
        return
    # Arrivals within float noise of a clock edge are legitimately ambiguous
    # (they may be attributed to either adjacent period); skip that measure-zero set.
    phase = arrival % counter.period
    if min(phase, counter.period - phase) < 1e-12:
        return
    code, residual = counter.split(arrival)
    assert 0 <= code < counter.modulus
    assert 0 < residual <= counter.period
    assert counter.reconstruct(code, residual) == pytest.approx(arrival, abs=1e-15)


# ----------------------------------------------------------------------- DNL / INL
@given(counts=st.lists(st.integers(0, 1000), min_size=2, max_size=200).filter(lambda c: sum(c) > 0))
def test_dnl_properties(counts):
    dnl, inl = compute_dnl_inl(counts)
    # DNL averages to zero by construction and is bounded below by -1.
    assert np.mean(dnl) == pytest.approx(0.0, abs=1e-9)
    assert np.all(dnl >= -1.0)
    # INL is the cumulative sum of DNL.
    assert inl[-1] == pytest.approx(np.sum(dnl))


# ------------------------------------------------------------- segmented scan
SCAN_DURATION = 2e-8
SCAN_DEAD_TIME = 1.1e-8
SCAN_GATE_RECOVERY = 2e-9


def _segment_inputs(rng, windows):
    """Pre-drawn scan inputs of one segment (every origin branch reachable)."""
    counts = rng.integers(0, 3, windows)
    dark_bounds = np.zeros(windows + 1, dtype=np.int64)
    np.cumsum(counts, out=dark_bounds[1:])
    dark_rel = rng.uniform(0.0, SCAN_DURATION, int(dark_bounds[-1]))
    for window in range(windows):
        cell = slice(int(dark_bounds[window]), int(dark_bounds[window + 1]))
        dark_rel[cell] = np.sort(dark_rel[cell])
    return (
        rng.uniform(0.0, SCAN_DURATION, windows),
        rng.random(windows) < 0.7,
        dark_rel,
        dark_bounds,
        rng.random(windows) < 0.4,
        rng.uniform(0.0, 4.0 * SCAN_DURATION, windows),
    )


def _scan(kernel, inputs, base, last_fire, pending, segment_bounds):
    return kernel(
        *inputs, SCAN_DEAD_TIME, SCAN_GATE_RECOVERY, SCAN_DURATION, base, last_fire, pending,
        segment_bounds,
    )


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 30), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    base=st.sampled_from([0.0, 3.7e-7]),
)
def test_segmented_scan_is_separate_scans_back_to_back(sizes, seed, base):
    rng = np.random.default_rng(seed)
    segments = [_segment_inputs(rng, size) for size in sizes]
    # Every segment starts from its own state: fresh, or a recent fire and/or
    # a pending afterpulse.
    last_fire = np.where(
        rng.random(len(sizes)) < 0.5, base - rng.uniform(0.0, SCAN_DURATION, len(sizes)), -np.inf
    )
    pending = np.where(
        rng.random(len(sizes)) < 0.5, base + rng.uniform(0.0, 2 * SCAN_DURATION, len(sizes)), np.inf
    )
    bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    joint = [np.concatenate([seg[i] for seg in segments]) for i in range(6)]
    dark_counts = np.concatenate([np.diff(seg[3]) for seg in segments])
    joint[3] = np.concatenate(([0], np.cumsum(dark_counts))).astype(np.int64)

    alone = [
        _scan(reference.scan_windows, seg, base, [fire], [trap], [0, size])
        for seg, fire, trap, size in zip(segments, last_fire, pending, sizes)
    ]
    expected_times = np.concatenate([out[0] for out in alone])
    expected_origins = np.concatenate([out[1] for out in alone])
    expected_state = [(out[2][0], out[3][0]) for out in alone]

    for name in available_kernels():
        times, origins, fires, pendings = _scan(
            get_kernel(name).scan_windows, joint, base, last_fire, pending, bounds
        )
        assert np.array_equal(times, expected_times, equal_nan=True), name
        assert np.array_equal(origins, expected_origins), name
        assert list(zip(fires.tolist(), pendings.tolist())) == expected_state, name


# ---------------------------------------------------------- attempt scheduler
#: A point, or one chunk of a point: the scheduler keys its state on ``index``.
_Task = namedtuple("_Task", "index seed parameters chunk")


@pytest.mark.chaos
@settings(max_examples=150, deadline=None)
@given(
    points=st.lists(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3), min_size=1, max_size=4
    ),
    max_attempts=st.integers(1, 4),
    backoff=st.sampled_from([0.0, 0.5]),
    failure_policy=st.sampled_from(FAILURE_POLICIES),
    data=st.data(),
)
def test_attempt_scheduler_under_random_fault_schedules(
    points, max_attempts, backoff, failure_policy, data
):
    """Drive the scheduler with a random schedule of attempt outcomes.

    Each point has one to three chunks (one chunk seed each), as a cluster
    point does.  The test keeps its own model of the schedule: which attempt
    of each chunk is due when.  Every attempt whose time has come is
    dispatched at once, so an attempt handed out too early or too late shows
    as a mismatch with the model.  A chunk that exhausts its attempts closes
    its point: the point's other queued chunks are dropped, and events for
    its chunks still in flight are ignored.
    """
    policy = RetryPolicy(max_attempts=max_attempts, backoff=backoff)
    tasks = [
        _Task(index, seed, {"x": index}, chunk)
        for index, seeds in enumerate(points)
        for chunk, seed in enumerate(seeds)
    ]
    stats = {"retries": 0, "failures": 0}
    scheduler = AttemptScheduler(policy, failure_policy, stats, tasks)
    # (index, chunk) -> (attempt, due time) of every chunk waiting to run.
    due = {(task.index, task.chunk): (1, 0.0) for task in tasks}
    charged = {(task.index, task.chunk): 0 for task in tasks}
    first_dispatch, resolved, finished, in_flight = {}, {}, set(), []
    expected = {"retries": 0, "failures": 0}
    now, raised = 0.0, None
    for step in range(400):
        while (entry := scheduler.next_ready(now)) is not None:
            task, attempt = entry
            key = (task.index, task.chunk)
            assert task.index not in resolved
            assert due.pop(key) == (attempt, now)
            assert attempt == charged[key] + 1 <= max_attempts
            first_dispatch.setdefault(task.index, now)
            scheduler.dispatched(task, now)
            in_flight.append(entry)
        assert all(at > now for _attempt, at in due.values())
        if len(resolved) == len(points):
            break
        # Random events first, then completions only, so every run drains.
        events = ("complete", "fail", "requeue", "advance") if step < 60 else ("complete",)
        event = data.draw(st.sampled_from(events))
        if event == "advance" or not in_flight:
            wait = scheduler.wait_time(now)
            if due:
                following = min(at for _attempt, at in due.values())
                assert wait == pytest.approx(following - now)
                now = following
            else:
                assert wait is None
                now += 0.25
            continue
        task, attempt = in_flight.pop(data.draw(st.integers(0, len(in_flight) - 1)))
        key = (task.index, task.chunk)
        if event == "complete":
            if task.index in resolved:
                continue  # a late chunk of a closed point: dropped on arrival
            finished.add(key)
            if all((task.index, chunk) in finished for chunk in range(len(points[task.index]))):
                scheduler.completed(task.index)
                resolved[task.index] = "completed"
        elif event == "requeue":
            scheduler.requeued(task, attempt)
            if task.index not in resolved:
                due[key] = (attempt, now)
        else:
            error = RuntimeError(f"point {task.index} chunk {task.chunk} attempt {attempt}")
            failure = None
            try:
                failure = scheduler.failed(task, attempt, error, now)
            except RuntimeError as caught:
                raised = caught
            if task.index in resolved:
                assert failure is None and raised is None
                continue
            charged[key] += 1
            if attempt < max_attempts:
                assert failure is None and raised is None
                expected["retries"] += 1
                due[key] = (attempt + 1, now + policy.delay(task.seed, attempt))
                continue
            expected["failures"] += 1
            for other in [other for other in due if other[0] == task.index]:
                del due[other]
            if failure_policy == "fail_fast":
                assert raised is error
                break
            assert failure == PointFailure(
                index=task.index,
                parameters=task.parameters,
                error_type="RuntimeError",
                message=str(error),
                attempts=max_attempts,
                elapsed=now - first_dispatch[task.index],
            )
            resolved[task.index] = failure
    assert stats == expected
    if raised is None:
        assert sorted(resolved) == list(range(len(points)))
        assert not due
        assert all(task.index in resolved for task, _attempt in in_flight)
        assert scheduler.next_ready(float("inf")) is None
