"""Packets carried by the optical bus."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.modulation.symbols import as_bit_array, bits_to_int


@dataclass(frozen=True)
class Packet:
    """A fixed-header packet: destination, source, payload bits.

    The header uses 8 bits per address field, so a stack can hold up to 256
    addressable dies — comfortably above the paper's "hundreds of dies".
    """

    source: int
    destination: int
    payload: Sequence[int]
    sequence: int = 0

    ADDRESS_BITS = 8
    SEQUENCE_BITS = 16

    def __post_init__(self) -> None:
        limit = 1 << self.ADDRESS_BITS
        if not 0 <= self.source < limit:
            raise ValueError(f"source must be within [0, {limit})")
        if not 0 <= self.destination < limit:
            raise ValueError(f"destination must be within [0, {limit})")
        if not 0 <= self.sequence < (1 << self.SEQUENCE_BITS):
            raise ValueError("sequence number out of range")
        if len(self.payload) == 0:
            raise ValueError("payload must be non-empty")
        # Validated and serialized once; not a field, so equality and
        # hashing still see only the four declared fields.
        header = self.encode_headers([self.source], [self.destination], [self.sequence])
        bits = np.concatenate([header[0], as_bit_array(self.payload, "payload bits")])
        object.__setattr__(self, "_bits", bits)

    @classmethod
    def encode_headers(cls, sources, destinations, sequences) -> np.ndarray:
        """Header bits of many packets at once, one ``uint8`` row per packet.

        Destination, source and sequence number, big-endian, unpacked from
        bytes: the layout :meth:`deserialize` reads back.  The fields must be
        integers (:class:`TypeError` otherwise); their ranges are the
        caller's to check, as :meth:`__post_init__` does.
        """
        fields = [np.asarray(field) for field in (destinations, sources, sequences)]
        if any(field.dtype.kind not in "biu" for field in fields):
            raise TypeError("packet header fields must be integers")
        destination, source, sequence = (field.astype(np.uint64) for field in fields)
        header = (
            (destination << np.uint64(cls.ADDRESS_BITS + cls.SEQUENCE_BITS))
            | (source << np.uint64(cls.SEQUENCE_BITS))
            | sequence
        )
        octets = header.astype(">u8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets[:, 8 - cls.header_bit_count() // 8 :], axis=1)

    @property
    def is_broadcast(self) -> bool:
        """Destination 255 is the broadcast address."""
        return self.destination == (1 << self.ADDRESS_BITS) - 1

    @classmethod
    def header_bit_count(cls) -> int:
        """Serialized header size (two address fields + sequence number)."""
        return 2 * cls.ADDRESS_BITS + cls.SEQUENCE_BITS

    @property
    def header_bits(self) -> int:
        return self.header_bit_count()

    @property
    def total_bits(self) -> int:
        return self._bits.size

    def serialize(self) -> List[int]:
        """Header followed by payload as a flat bit list."""
        return self._bits.tolist()

    def symbol_count(self, ppm_bits: int) -> int:
        """Number of ``ppm_bits``-wide PPM symbols the serialized packet occupies."""
        if ppm_bits <= 0:
            raise ValueError("ppm_bits must be positive")
        return -(-self.total_bits // ppm_bits)

    def padded_bits(self, ppm_bits: int) -> np.ndarray:
        """Serialized bits zero-padded to a whole number of PPM symbols, as ``uint8``.

        The symbol-aligned form the batched bus concatenates: padding each
        packet *before* concatenation keeps every packet's symbol boundaries
        where a packet-at-a-time transmission would put them, so per-packet
        error statistics stay comparable between the scalar slot loop and one
        epoch-sized transmission.
        """
        pad = self.symbol_count(ppm_bits) * ppm_bits - self.total_bits
        return np.concatenate([self._bits, np.zeros(pad, dtype=np.uint8)])

    @classmethod
    def deserialize(cls, bits: Sequence[int]) -> "Packet":
        """Parse a serialized packet (the payload is everything after the header)."""
        header = 2 * cls.ADDRESS_BITS + cls.SEQUENCE_BITS
        if len(bits) <= header:
            raise ValueError("bit stream too short to contain a packet")
        destination = bits_to_int(list(bits[: cls.ADDRESS_BITS]))
        source = bits_to_int(list(bits[cls.ADDRESS_BITS : 2 * cls.ADDRESS_BITS]))
        sequence = bits_to_int(list(bits[2 * cls.ADDRESS_BITS : header]))
        payload = list(bits[header:])
        return cls(source=source, destination=destination, payload=payload, sequence=sequence)

    @classmethod
    def broadcast_packet(cls, source: int, payload: Sequence[int], sequence: int = 0) -> "Packet":
        """Construct a packet addressed to every die."""
        return cls(
            source=source,
            destination=(1 << cls.ADDRESS_BITS) - 1,
            payload=payload,
            sequence=sequence,
        )
