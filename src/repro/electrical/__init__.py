"""Electrical interconnect baselines.

The paper positions the optical link against the conventional alternatives:
wire-bonded I/O pads (limited by bonding inductance and driver power),
flip-chip / through-silicon vias, and the wireless capacitive and inductive
coupling links of refs [2] and [3] (effective but pairwise-only).  These
first-order electrical models provide the power, area and bandwidth numbers
used by the comparison benchmark (TXT-PADS) and by the examples.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".bonding_wire": ("BondWire",),
        ".pad": ("IoPad", "PadConfig"),
        ".tsv": ("ThroughSiliconVia",),
        ".inductive": ("InductiveCouplingLink",),
        ".capacitive": ("CapacitiveCouplingLink",),
        ".comparison": ("InterconnectSummary", "compare_interconnects"),
    },
)
