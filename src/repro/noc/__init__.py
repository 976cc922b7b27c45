"""Multi-chip interconnect substrate.

The paper's system-level promise is an "entirely optical through-chip bus that
could service hundreds of thinned stacked dies", supporting broadcast, optical
clock distribution and both vertical and horizontal buses.  This subpackage
provides the system-level pieces needed to exercise that promise: die-stack
topologies, packets, a time-slotted vertical optical bus with arbitration, a
broadcast primitive and a simple router for combined vertical/horizontal
(intra-chip) traffic.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".packet": ("Packet",),
        ".topology": ("NodeAddress", "StackTopology"),
        ".arbitration": ("RoundRobinArbiter", "TdmaSchedule"),
        ".bus": ("OpticalBus", "BusStatistics", "PacketOutcome"),
        ".broadcast": ("broadcast", "BroadcastResult"),
        ".router": ("OpticalRouter", "Route"),
    },
)
