"""The vertical optical bus.

A shared, time-slotted optical medium spanning the die stack: in each symbol
slot the arbiter grants one transmitter, whose micro-LED pulse is seen by the
SPAD of every other die (broadcast by construction).  The bus model is
behavioural — PPM transmission through the link model of each span with the
correct stack attenuation, plus queueing/latency statistics.

**Traffic is held as columns.**  Every offered packet is one row of the bus's
traffic store: source, destination, sequence-number and arrival-slot columns,
and the packet's serialized bits zero-padded to whole PPM symbols, back to
back in one flat ``uint8`` buffer with per-row offsets (a CSR layout, so
ragged payloads fit).  :meth:`OpticalBus.offer` appends one validated
:class:`~repro.noc.packet.Packet`; :meth:`OpticalBus.offer_columns` appends a
whole batch of column arrays without building a ``Packet``, checked in
vectorised form and failing with the error the row's ``Packet`` would raise.
The arbiter queues row indices.

**The slot loop is batch-first.**  Arbitration accumulates an **epoch** of
granted rows with their slot spans, and the whole epoch's unicast traffic is
flushed as **one** segmented transmission (the ``segments`` of the batch
engine's ``transmit_bits``): each ``(source, destination)`` group is one
segment on its own link, built once through the backend registry
(:func:`repro.core.backend.make_link`) and cached for the life of the bus,
with its own detector reset, seed and TDC delay line, while encoding, the
dead-time scan, TDC conversion and decoding run once over the concatenation.
The segment payloads are fancy-indexed out of the padded buffer, and
per-packet bit errors are differences of one cumulative sum over the epoch's
bit mismatches.  Broadcast packets are one ``(S, C)`` pass per source on the
``"multichannel"`` backend, with per-receiver stack attenuations as channel
gains.

**Outcomes are arrays too.**  Each flush records its packets' rows, slot
spans, bit errors, delivered bits and delivered flags as arrays, plus a
``(rows, C)`` per-receiver error block for broadcasts.  :attr:`OpticalBus.outcomes`
is a :class:`BusOutcomes` view of those records that builds a
:class:`PacketOutcome` only when one is indexed.  ``total_latency`` reaches
reports through ``mean_latency``, so its float summation order is part of
their digests: it is accumulated in record order as the last element of
``np.cumsum([total, l1, l2, ...])``, which is the sequential ``+=`` bit for
bit (a pairwise ``np.sum`` is not).

Arbitration — and therefore every slot assignment and latency — is identical
whatever the backend; only the error statistics are stochastic, and those are
*statistically* equivalent between the scalar slot-by-slot loop
(``backend="scalar"``) and the batched path, per the backend contract
(locked by ``tests/test_noc_batching.py``).

Per-link seeds follow the central seed-derivation policy
(:func:`repro.simulation.randomness.split_seed`), so distinct
``(source, destination)`` links can never share a random stream.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import backend_capabilities, make_link, resolve_backend
from repro.core.config import LinkConfig
from repro.kernels import get_kernel
from repro.modulation.symbols import as_bit_array
from repro.noc.arbitration import RoundRobinArbiter
from repro.noc.broadcast import per_receiver_bit_errors, tile_symbols_for_receivers
from repro.noc.packet import Packet
from repro.noc.topology import StackTopology
from repro.simulation.randomness import split_seed

#: Destination address of a broadcast packet (see :attr:`Packet.is_broadcast`).
BROADCAST = (1 << Packet.ADDRESS_BITS) - 1


@dataclass
class BusStatistics:
    """Aggregate statistics of a bus simulation.

    The ratio properties return ``float("nan")`` — not an exception — when
    their denominator is zero (no packets offered, nothing delivered, the bus
    never ran): a zero-offered-load grid point of a load sweep is a valid
    measurement whose ratios are simply undefined.
    """

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_corrupted: int = 0
    bits_delivered: int = 0
    bit_errors: int = 0
    total_latency: float = 0.0
    busy_slots: int = 0
    total_slots: int = 0

    @property
    def delivery_ratio(self) -> float:
        if self.packets_offered == 0:
            return float("nan")
        return self.packets_delivered / self.packets_offered

    @property
    def mean_latency(self) -> float:
        if self.packets_delivered == 0:
            return float("nan")
        return self.total_latency / self.packets_delivered

    @property
    def utilisation(self) -> float:
        if self.total_slots == 0:
            return float("nan")
        return self.busy_slots / self.total_slots

    @property
    def bit_error_rate(self) -> float:
        if self.bits_delivered == 0:
            return float("nan")
        return self.bit_errors / self.bits_delivered

    def merge(self, other: "BusStatistics") -> None:
        """Accumulate another run's counters into this one (epoch aggregation)."""
        self.packets_offered += other.packets_offered
        self.packets_delivered += other.packets_delivered
        self.packets_corrupted += other.packets_corrupted
        self.bits_delivered += other.bits_delivered
        self.bit_errors += other.bit_errors
        self.total_latency += other.total_latency
        self.busy_slots += other.busy_slots
        self.total_slots += other.total_slots


@dataclass(frozen=True)
class PacketOutcome:
    """Per-packet outcome of one bus run.

    ``latency`` counts seconds from the packet's arrival slot to the end of
    its transfer (queueing + serialization); ``receiver_errors`` carries the
    per-receiver bit-error split for broadcast packets (empty for unicast).
    """

    packet: Packet
    source: int
    destination: int
    arrival_slot: int
    start_slot: int
    end_slot: int
    bit_errors: int
    delivered: bool
    latency: float
    receiver_errors: Mapping[int, int] = field(default_factory=dict)


class _ColumnLog:
    """Array columns appended in batches and joined on demand."""

    def __init__(self, *empty: np.ndarray) -> None:
        self._parts: List[Tuple[np.ndarray, ...]] = [empty]

    def append(self, *columns: np.ndarray) -> None:
        self._parts.append(columns)

    def columns(self) -> Tuple[np.ndarray, ...]:
        if len(self._parts) > 1:
            self._parts = [tuple(np.concatenate(column) for column in zip(*self._parts))]
        return self._parts[0]


class _TrafficStore:
    """The offered packets as columns: one row per packet, in offer order.

    After :meth:`join`, ``source``, ``destination``, ``sequence``,
    ``arrival`` and ``total_bits`` (header + payload) are per-row ``int64``
    columns, and row ``r``'s bits, zero-padded to whole PPM symbols, are
    ``padded[offsets[r]:offsets[r + 1]]``.
    """

    def __init__(self) -> None:
        int_column = np.empty(0, dtype=np.int64)
        self._log = _ColumnLog(*(int_column,) * 6, np.empty(0, dtype=np.uint8))
        self.rows = 0
        self._stale = True

    def append(self, source, destination, sequence, arrival, total_bits, padded_lengths, padded):
        """Append rows (one entry per row in every column; ``padded`` back to back)."""
        columns = [
            np.asarray(column, dtype=np.int64)
            for column in (source, destination, sequence, arrival, total_bits, padded_lengths)
        ]
        self._log.append(*columns, padded)
        self.rows += columns[0].size
        self._stale = True

    def join(self) -> None:
        """Bring the columns up to date with every appended row."""
        if not self._stale:
            return
        (
            self.source,
            self.destination,
            self.sequence,
            self.arrival,
            self.total_bits,
            padded_lengths,
            self.padded,
        ) = self._log.columns()
        self.offsets = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(padded_lengths, out=self.offsets[1:])
        self._stale = False

    def padded_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The padded bits of ``rows`` back to back, and where each row starts."""
        lengths = self.offsets[rows + 1] - self.offsets[rows]
        starts = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        index = np.arange(int(lengths.sum())) + np.repeat(self.offsets[rows] - starts, lengths)
        return self.padded[index], starts

    def bits(self, row: int) -> np.ndarray:
        """Row ``row``'s serialized bits, unpadded."""
        start = self.offsets[row]
        return self.padded[start : start + self.total_bits[row]]

    def packet(self, row: int) -> Packet:
        return Packet(
            source=int(self.source[row]),
            destination=int(self.destination[row]),
            payload=self.bits(row)[Packet.header_bit_count() :].tolist(),
            sequence=int(self.sequence[row]),
        )


class BusOutcomes(SequenceABC):
    """The recorded packet outcomes of a bus, as columns in record order.

    One record per packet the bus has transmitted, or burnt as
    undeliverable: epoch by epoch, each epoch group by group in first-grant
    order and in grant order within a group (an undeliverable packet is
    recorded when it is granted).  Every attribute is an array with one
    entry per record, except the broadcast block: ``receiver_errors`` has one
    row per broadcast record (their record positions are
    ``broadcast_records``) and one column per receiver, the stack's nodes
    without the source in node order.  Indexing builds the
    :class:`PacketOutcome` of one record.
    """

    def __init__(self, bus: "OpticalBus") -> None:
        store = bus._store
        store.join()
        (
            self._rows,
            self.start_slot,
            self.end_slot,
            self.bit_errors,
            self.bits_delivered,
            self.delivered,
        ) = bus._records.columns()
        self.source = store.source[self._rows]
        self.destination = store.destination[self._rows]
        self.sequence = store.sequence[self._rows]
        self.arrival_slot = store.arrival[self._rows]
        self.latency = (self.end_slot - self.arrival_slot) * bus._symbol_duration
        self.broadcast_records, self.receiver_errors = bus._receiver_errors.columns()
        self._bus = bus

    def __len__(self) -> int:
        return self._rows.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        index = range(len(self))[index]
        receiver_errors: Dict[int, int] = {}
        position = int(np.searchsorted(self.broadcast_records, index))
        if position < self.broadcast_records.size and self.broadcast_records[position] == index:
            receivers = self._bus._broadcast_receivers(int(self.source[index]))
            receiver_errors = dict(zip(receivers, self.receiver_errors[position].tolist()))
        return PacketOutcome(
            packet=self._bus._store.packet(int(self._rows[index])),
            source=int(self.source[index]),
            destination=int(self.destination[index]),
            arrival_slot=int(self.arrival_slot[index]),
            start_slot=int(self.start_slot[index]),
            end_slot=int(self.end_slot[index]),
            bit_errors=int(self.bit_errors[index]),
            delivered=bool(self.delivered[index]),
            latency=float(self.latency[index]),
            receiver_errors=receiver_errors,
        )


class OpticalBus:
    """A slotted, arbiter-controlled optical bus over a die stack.

    Parameters
    ----------
    topology:
        The die stack and node layout.
    config:
        PPM link configuration shared by every node pair (the attenuation of
        the specific span is applied per transfer through the channel model).
    emitted_photons:
        Mean photons per pulse at the source; the per-span stack transmission
        is applied before the packet is pushed through the link.
    seed:
        Root seed; per-link seeds are derived from it with
        :func:`~repro.simulation.randomness.split_seed`.
    backend:
        Registered link backend the bus transmits through (``None`` selects
        the default batch engine).  On the batch engine each epoch's unicast
        groups share one segmented transmission (other batch-capable
        backends transmit one group at a time); the ``"scalar"`` backend
        replays the legacy packet-at-a-time slot loop.
    epoch_packets:
        Grants accumulated per epoch before a flush.  Any positive value
        yields the same arbitration (hence the same slots and latencies);
        larger epochs amortise more link work per transmission.
    kernel:
        Compute-kernel name (see :func:`repro.kernels.get_kernel`; ``None``
        defers to ``$REPRO_KERNEL`` / ``"auto"``), validated here on every
        backend.  It flows into the links of kernel-capable backends;
        arbitration is the same per-slot grant loop whatever the kernel.
    """

    def __init__(
        self,
        topology: StackTopology,
        config: LinkConfig = LinkConfig(),
        emitted_photons: float = 2000.0,
        seed: int = 0,
        backend: Optional[str] = None,
        epoch_packets: int = 64,
        kernel: Optional[str] = None,
    ) -> None:
        if emitted_photons <= 0:
            raise ValueError("emitted_photons must be positive")
        if epoch_packets <= 0:
            raise ValueError("epoch_packets must be positive")
        self.topology = topology
        self.config = config
        self.emitted_photons = emitted_photons
        self._seed = seed
        self.backend = resolve_backend(backend)
        self.epoch_packets = epoch_packets
        get_kernel(kernel)  # unknown names raise here, whatever the backend
        self.kernel = kernel
        capabilities = backend_capabilities(self.backend)
        self._batched = capabilities.supports_batch
        # The kernel only reaches backends that accept it.
        self._link_kernel = kernel if capabilities.supports_kernel else None
        self._symbol_duration = config.symbol_duration
        self.arbiter = RoundRobinArbiter(topology.node_count)
        self.statistics = BusStatistics()
        self._store = _TrafficStore()
        empty = np.empty(0, dtype=np.int64)
        # Record log: row, start slot, end slot, bit errors, bits delivered,
        # delivered flag; broadcasts add (record position, receiver errors).
        self._records = _ColumnLog(*(empty,) * 5, np.empty(0, dtype=bool))
        receivers = max(topology.node_count - 1, 0)
        self._receiver_errors = _ColumnLog(empty, np.empty((0, receivers), dtype=np.int64))
        self._recorded = 0
        self._slot = 0  # persistent slot clock: run() continues, never rewinds
        self._links: Dict[Tuple[int, int], object] = {}
        self._broadcast_links: Dict[int, object] = {}
        self._broadcast_scalar_links: Dict[Tuple[int, int], object] = {}

    # -- link management ---------------------------------------------------------
    def link_seed(self, source: int, destination) -> int:
        """Derived seed of one span's link — the central seed policy.

        Distinct ``(source, destination)`` labels map to independent streams
        with overwhelming probability; no ``seed + node`` arithmetic, which
        could collide across links (``seed+7919*a+b == seed+7919*c+d`` has
        off-diagonal solutions).
        """
        return split_seed(self._seed, f"noc:link:{source}->{destination}")

    def _link_for(self, source: int, destination: int):
        """The (cached) PPM link model between two nodes, with span attenuation."""
        key = (source, destination)
        if key not in self._links:
            transmission = self.topology.channel_transmission(source, destination)
            config = self.config.with_detected_photons(self.emitted_photons * transmission)
            self._links[key] = make_link(
                config,
                backend=self.backend,
                seed=self.link_seed(source, destination),
                kernel=self._link_kernel,
            )
        return self._links[key]

    def _broadcast_receivers(self, source: int) -> List[int]:
        return [node for node in range(self.topology.node_count) if node != source]

    def _broadcast_link_for(self, source: int):
        """One multichannel link carrying a source's broadcasts to every die.

        Channel ``c`` is receiver ``c`` of :meth:`_broadcast_receivers`, at
        its own span attenuation (``channel_gains``) — the whole broadcast
        column is a single ``(S, C)`` pass.
        """
        if source not in self._broadcast_links:
            receivers = self._broadcast_receivers(source)
            gains = [
                self.topology.channel_transmission(source, node) for node in receivers
            ]
            self._broadcast_links[source] = make_link(
                self.config.with_detected_photons(self.emitted_photons),
                backend="multichannel",
                channels=len(receivers),
                channel_gains=gains,
                seed=self.link_seed(source, "broadcast"),
                kernel=self.kernel,
            )
        return self._broadcast_links[source]

    def _broadcast_scalar_link_for(self, source: int, node: int):
        """Per-receiver link of the scalar broadcast path (one die at a time)."""
        key = (source, node)
        if key not in self._broadcast_scalar_links:
            transmission = self.topology.channel_transmission(source, node)
            config = self.config.with_detected_photons(self.emitted_photons * transmission)
            self._broadcast_scalar_links[key] = make_link(
                config,
                backend=self.backend,
                seed=self.link_seed(source, f"broadcast:{node}"),
                kernel=self._link_kernel,
            )
        return self._broadcast_scalar_links[key]

    def span_transmission(self, source: int, destination: int) -> float:
        """Optical transmission of the span between two nodes."""
        return self.topology.channel_transmission(source, destination)

    # -- traffic -------------------------------------------------------------------
    def offer(self, packet: Packet, arrival_slot: int = 0) -> None:
        """Queue a packet at its source node, arriving at ``arrival_slot``.

        Per-node offers must come in arrival order (the arbiter's queues are
        FIFO per node).
        """
        if packet.source >= self.topology.node_count:
            raise ValueError("packet source is not a node of this topology")
        self.arbiter.request(packet.source, self._store.rows, arrival=arrival_slot)
        padded = packet.padded_bits(self.config.ppm_bits)
        self._store.append(
            [packet.source],
            [packet.destination],
            [packet.sequence],
            [arrival_slot],
            [packet.total_bits],
            [padded.size],
            padded,
        )
        self.statistics.packets_offered += 1

    def offer_columns(
        self,
        sources: Sequence[int],
        destinations: Sequence[int],
        payloads,
        sequences: Sequence[int],
        arrival_slots: Sequence[int],
    ) -> None:
        """Queue a batch of packets given as columns, one row per packet.

        Row ``i`` is the packet ``Packet(source=sources[i],
        destination=destinations[i], payload=payloads[i],
        sequence=sequences[i])`` offered at ``arrival_slots[i]``, and the
        batch behaves as :meth:`offer` called row by row, in order — but no
        ``Packet`` is built: the rows are checked in vectorised form, and
        headers and padding are built for the whole batch at once.
        ``payloads`` is a 2-D bit matrix (one payload per row) or a sequence
        of 1-D bit sequences of any lengths.  A batch with an invalid row
        raises the :class:`ValueError` of the first one, exactly as its
        ``Packet`` or :meth:`offer` would, and queues nothing.
        """
        columns = [np.asarray(column) for column in (sources, destinations, sequences, arrival_slots)]
        count = columns[0].size
        if any(column.shape != (count,) for column in columns) or len(payloads) != count:
            raise ValueError("packet columns must be one-dimensional and of equal length")
        if count == 0:
            return
        source, destination, sequence, arrival = columns
        address_limit = 1 << Packet.ADDRESS_BITS
        invalid = (
            (source < 0)
            | (source >= min(self.topology.node_count, address_limit))
            | (destination < 0)
            | (destination >= address_limit)
            | (sequence < 0)
            | (sequence >= 1 << Packet.SEQUENCE_BITS)
        ).any()
        matrix = isinstance(payloads, np.ndarray) and payloads.ndim == 2
        try:
            if matrix:
                bit_rows = as_bit_array(payloads, "payload bits")
                invalid |= bit_rows.shape[1] == 0
            else:
                bit_rows = [as_bit_array(payload, "payload bits") for payload in payloads]
                invalid |= any(row.ndim != 1 or row.size == 0 for row in bit_rows)
        except ValueError:
            invalid = True
        if invalid:
            # Rare path: replay the rows one by one so the first invalid row
            # raises exactly what its Packet, or offer(), would.
            for row in zip(*(column.tolist() for column in columns[:3]), payloads):
                packet = Packet(source=row[0], destination=row[1], sequence=row[2], payload=row[3])
                if packet.source >= self.topology.node_count:
                    raise ValueError("packet source is not a node of this topology")
        headers = Packet.encode_headers(source, destination, sequence)
        header_bits = headers.shape[1]
        k = self.config.ppm_bits
        if matrix:
            total = header_bits + bit_rows.shape[1]
            total_bits = np.full(count, total)
            padded = np.zeros((count, -(-total // k) * k), dtype=np.uint8)
            padded[:, :header_bits] = headers
            padded[:, header_bits:total] = bit_rows
            padded_lengths = np.full(count, padded.shape[1])
        else:
            total_bits = header_bits + np.array([row.size for row in bit_rows])
            padded_lengths = -(-total_bits // k) * k
            offsets = np.concatenate(([0], np.cumsum(padded_lengths)))
            padded = np.zeros(offsets[-1], dtype=np.uint8)
            for start, header, row in zip(offsets.tolist(), headers, bit_rows):
                padded[start : start + header_bits] = header
                padded[start + header_bits : start + header_bits + row.size] = row
        first = self._store.rows
        self.arbiter.request_many(
            source.tolist(), range(first, first + count), arrival.tolist()
        )
        self._store.append(
            source, destination, sequence, arrival, total_bits, padded_lengths, padded.ravel()
        )
        self.statistics.packets_offered += count

    def symbol_slots_per_packet(self, packet: Packet) -> int:
        """Number of PPM symbols needed to carry a packet."""
        return packet.symbol_count(self.config.ppm_bits)

    @property
    def outcomes(self) -> BusOutcomes:
        """Every packet outcome recorded so far, in record order (a columnar view)."""
        return BusOutcomes(self)

    def run(self, max_slots: int = 10_000) -> BusStatistics:
        """Drain the queued packets through the bus.

        The slot loop is two-phase.  **Arbitration** walks slots granting
        packets (idle slots skip to the next arrival), fixing every packet's
        slot span — this phase is identical for every backend, so latencies
        are too.  **Flushing** transmits each epoch: all its unicast
        ``(source, destination)`` groups in one segmented pass on batch
        backends, packet at a time on the scalar reference.  Packets still
        queued when ``max_slots`` runs out stay pending; a later ``run``
        *continues* the slot clock where this one stopped (waiting time
        spans runs), it never rewinds to slot 0.
        """
        if max_slots <= 0:
            raise ValueError("max_slots must be positive")
        store = self._store
        store.join()
        symbols = ((store.offsets[1:] - store.offsets[:-1]) // self.config.ppm_bits).tolist()
        undeliverable = set(
            np.flatnonzero(
                (store.destination >= self.topology.node_count) & (store.destination != BROADCAST)
            ).tolist()
        )
        grant = self.arbiter.grant
        slot = self._slot
        horizon = slot + max_slots
        rows: List[int] = []
        starts: List[int] = []
        while slot < horizon:
            granted = grant(slot)
            if granted is None:
                next_arrival = self.arbiter.next_arrival()
                if next_arrival is None or next_arrival >= horizon:
                    break
                slot = max(slot + 1, next_arrival)
                continue
            row = granted[1]
            if row in undeliverable:
                # Undeliverable unicast address: the slot is burnt and the
                # packet is recorded as corrupted (one outcome per offered
                # packet, like every other path).
                zero = np.zeros(1, dtype=np.int64)
                self._record(np.array([row]), np.array([slot]), np.array([slot + 1]), zero, zero)
                slot += 1
                continue
            rows.append(row)
            starts.append(slot)
            slot += symbols[row]
            if len(rows) >= self.epoch_packets:
                self._flush_epoch(rows, starts)
                rows, starts = [], []
        self._flush_epoch(rows, starts)
        self.statistics.total_slots += max(slot - self._slot, 1)
        self._slot = slot
        return self.statistics

    # -- epoch flushing ----------------------------------------------------------
    def _flush_epoch(self, rows: List[int], starts: List[int]) -> None:
        """Transmit one epoch of granted rows and record every packet's outcome.

        All unicast ``(source, destination)`` groups of the epoch share one
        transmission pass (:meth:`_unicast_errors`); each broadcast group is
        one ``(S, C)`` pass.  Every link draws from its own generator, so
        outcomes do not depend on the order groups are transmitted in; they
        are recorded group by group, in the order each group was first
        granted.
        """
        if not rows:
            return
        store = self._store
        rows = np.array(rows)
        starts = np.array(starts)
        ends = starts + (store.offsets[rows + 1] - store.offsets[rows]) // self.config.ppm_bits
        self.statistics.busy_slots += int((ends - starts).sum())
        groups: Dict[Tuple[int, int], List[int]] = {}
        keys = zip(store.source[rows].tolist(), store.destination[rows].tolist())
        for position, key in enumerate(keys):
            groups.setdefault(key, []).append(position)
        unicast = [(key, positions) for key, positions in groups.items() if key[1] != BROADCAST]
        errors = self._unicast_errors([(key, rows[positions]) for key, positions in unicast])
        # Consecutive unicast groups are recorded together; a broadcast group
        # is recorded in its place between them.
        pending: List[int] = []
        done = 0
        for (source, destination), positions in groups.items():
            if destination != BROADCAST:
                pending += positions
                continue
            if pending:
                self._record_unicast(rows[pending], starts[pending], ends[pending], errors[done : done + len(pending)])
                done += len(pending)
                pending = []
            self._flush_broadcast(source, rows[positions], starts[positions], ends[positions])
        if pending:
            self._record_unicast(rows[pending], starts[pending], ends[pending], errors[done:])

    def _unicast_errors(self, groups: List[Tuple[Tuple[int, int], np.ndarray]]) -> np.ndarray:
        """Bit errors of every unicast packet of the epoch, in group order.

        The batch engine sends the whole epoch as one segmented transmission:
        one segment per group, carrying its packets' padded bits on that
        group's link (the ``segments`` of the first link's
        ``transmit_bits``); links of other batch backends transmit group by
        group.  Per-packet counts are differences of one cumulative sum over
        the mismatches.  The scalar backend replays the packet-at-a-time slot
        loop, the draw-for-draw reference.
        """
        store = self._store
        links = [self._link_for(source, destination) for (source, destination), _ in groups]
        if not self._batched:
            return np.array(
                [
                    link.transmit_bits(store.bits(row)).bit_errors
                    for link, (_, rows) in zip(links, groups)
                    for row in rows.tolist()
                ],
                dtype=np.int64,
            )
        if not links:
            return np.empty(0, dtype=np.int64)
        ordered = np.concatenate([rows for _, rows in groups])
        payload, starts = store.padded_rows(ordered)
        group_starts = np.cumsum([rows.size for _, rows in groups[:-1]], dtype=np.int64)
        payloads = np.split(payload, starts[group_starts])
        if self.backend == "batch":
            segments = list(zip(links[1:], payloads[1:]))
            results = [links[0].transmit_bits(payloads[0], segments=segments)]
        else:
            results = [link.transmit_bits(bits) for link, bits in zip(links, payloads)]
        mismatches = np.concatenate(
            [result.transmitted_bits != result.received_bits for result in results]
        )
        cumulative = np.zeros(mismatches.size + 1, dtype=np.int64)
        np.cumsum(mismatches, out=cumulative[1:])
        return cumulative[starts + store.total_bits[ordered]] - cumulative[starts]

    def _flush_broadcast(
        self, source: int, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> None:
        store = self._store
        receivers = self._broadcast_receivers(source)
        if not receivers:
            # A single-node "stack" has nobody to broadcast to; still one
            # (corrupted) outcome per offered packet.
            zero = np.zeros(rows.size, dtype=np.int64)
            self._record(rows, starts, ends, zero, zero)
            return
        k = self.config.ppm_bits
        channels = len(receivers)
        bits = store.total_bits[rows]
        if self._batched:
            # One (S, C) pass for the whole epoch group: the packets' symbols
            # tiled across the C receiver channels by the shared broadcast
            # layout (repro.noc.broadcast defines it once).
            payload, _ = store.padded_rows(rows)
            link = self._broadcast_link_for(source)
            result = link.transmit_bits(tile_symbols_for_receivers(payload, k, channels))
            mismatches = (result.transmitted_bits != result.received_bits).reshape(
                -1, channels, k
            )
            errors = per_receiver_bit_errors(mismatches, channels, bits)
        else:
            errors = np.array(
                [
                    [
                        self._broadcast_scalar_link_for(source, node)
                        .transmit_bits(store.bits(row))
                        .bit_errors
                        for node in receivers
                    ]
                    for row in rows.tolist()
                ],
                dtype=np.int64,
            )
        totals = errors.sum(axis=1)
        self._record(rows, starts, ends, totals, bits * channels, totals == 0, errors)

    # -- statistics --------------------------------------------------------------
    def _record_unicast(
        self, rows: np.ndarray, starts: np.ndarray, ends: np.ndarray, errors: np.ndarray
    ) -> None:
        self._record(rows, starts, ends, errors, self._store.total_bits[rows], errors == 0)

    def _record(
        self,
        rows: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        bit_errors: np.ndarray,
        bits_delivered: np.ndarray,
        delivered: Optional[np.ndarray] = None,
        receiver_errors: Optional[np.ndarray] = None,
    ) -> None:
        """Append outcomes to the record log and fold them into the statistics.

        ``delivered`` defaults to all-false (corrupted or undeliverable).
        """
        if delivered is None:
            delivered = np.zeros(rows.size, dtype=bool)
        statistics = self.statistics
        statistics.bits_delivered += int(bits_delivered.sum())
        statistics.bit_errors += int(bit_errors.sum())
        count = int(np.count_nonzero(delivered))
        statistics.packets_delivered += count
        statistics.packets_corrupted += rows.size - count
        if count:
            arrivals = self._store.arrival[rows[delivered]]
            latency = (ends[delivered] - arrivals) * self._symbol_duration
            # Sequential, in record order: the digest depends on the order.
            statistics.total_latency = float(
                np.cumsum(np.concatenate(([statistics.total_latency], latency)))[-1]
            )
        if receiver_errors is not None:
            positions = np.arange(self._recorded, self._recorded + rows.size)
            self._receiver_errors.append(positions, receiver_errors)
        self._records.append(rows, starts, ends, bit_errors, bits_delivered, delivered)
        self._recorded += rows.size

    # -- figures of merit -------------------------------------------------------------
    def raw_slot_rate(self) -> float:
        """Symbol slots per second."""
        return 1.0 / self.config.symbol_duration

    def aggregate_bandwidth(self) -> float:
        """Peak payload bandwidth of the shared bus [bit/s]."""
        return self.config.raw_bit_rate

    def per_node_bandwidth(self) -> float:
        """Fair-share bandwidth per node under uniform load [bit/s]."""
        return self.aggregate_bandwidth() / self.topology.node_count
