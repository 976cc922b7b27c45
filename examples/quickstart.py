"""Quickstart: send a byte stream over one SPAD/PPM optical channel.

Run with ``python examples/quickstart.py``.

The example builds the default link of the paper's system — a 16-PPM channel
(4 bits per optical pulse) with 500 ps slots, a 32 ns actively-quenched SPAD
and a red micro-LED — through the link-backend registry (``make_link``),
transmits a short message, and prints the decoded text together with the link
statistics and the analytic error budget.  It then runs one of the named
declarative scenarios through the ``repro.scenarios`` experiment layer, which
is how the paper's figures are reproduced at scale.
"""

import numpy as np

from repro.core import LinkConfig, make_link
from repro.core.error_model import symbol_error_budget
from repro.scenarios import ExperimentRunner, get_scenario


def text_to_bits(text: str) -> list:
    bits = []
    for byte in text.encode("utf-8"):
        bits.extend((byte >> shift) & 1 for shift in range(7, -1, -1))
    return bits


def bits_to_text(bits: np.ndarray) -> str:
    whole_bytes = len(bits) // 8 * 8
    return np.packbits(bits[:whole_bytes]).tobytes().decode("utf-8", errors="replace")


def main() -> None:
    config = LinkConfig(ppm_bits=4)
    # make_link is the package's front door: backends are selected by name
    # ("batch" is the vectorised default, "scalar" the symbol-by-symbol
    # reference) so no caller hard-codes a link class.
    link = make_link(config, backend="batch", seed=2026)

    message = "hello from the optical through-chip bus!"
    payload = text_to_bits(message)
    result = link.transmit_bits(payload)

    print("=== quickstart: one SPAD/PPM optical channel ===")
    print(f"PPM order          : 2^{config.ppm_bits} slots, {config.slot_duration * 1e12:.0f} ps each")
    print(f"symbol range R     : {config.symbol_duration * 1e9:.1f} ns "
          f"(data {config.data_window * 1e9:.1f} ns + guard {config.guard_time * 1e9:.1f} ns)")
    print(f"raw throughput     : {config.raw_bit_rate / 1e6:.1f} Mbit/s per channel")
    print(f"detection prob.    : {link.detection_probability_per_pulse():.4f} per pulse")
    print()
    print(f"sent               : {message!r}")
    print(f"received           : {bits_to_text(result.received_bits)!r}")
    print(f"link statistics    : {result.summary()}")
    print(f"detection breakdown: {result.detection_counts}")
    print()

    budget = symbol_error_budget(config)
    print("analytic per-symbol error budget:")
    print(f"  missed detection     : {budget.missed_detection:.2e}")
    print(f"  dark-count pre-empt  : {budget.dark_count_preemption:.2e}")
    print(f"  afterpulse pre-empt  : {budget.afterpulse_preemption:.2e}")
    print(f"  jitter mis-slotting  : {budget.jitter_misslot:.2e}")
    print(f"  dominant mechanism   : {budget.dominant_mechanism()}")
    print(f"  implied BER          : {budget.bit_error_rate(config.ppm_bits):.2e}")

    # Experiments are declarative: a named Scenario compiled onto the batch
    # Monte-Carlo machinery by ExperimentRunner (here at a reduced budget so
    # the quickstart stays quick).
    print()
    print("=== declarative scenario: the BER waterfall ===")
    scenario = get_scenario("ber-vs-photons").with_budget(4_000)
    report = ExperimentRunner(scenario, seed=7).run()
    print(report.summary())


if __name__ == "__main__":
    main()
