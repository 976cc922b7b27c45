"""Optical source and channel substrate.

Models the transmitter half of the paper's link (GaN micro-LED with an
integrated CMOS driver) and the optical path between dies: through-silicon
propagation across thinned stacked dies, micro-optics coupling, Fresnel
interface losses and crosstalk between neighbouring channels.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".silicon": ("SiliconAbsorption", "silicon_absorption_coefficient"),
        ".led": ("MicroLed", "MicroLedConfig"),
        ".driver": ("LedDriver", "LedDriverConfig"),
        ".microoptics": ("MicroLens", "coupling_efficiency"),
        ".stack": ("DieLayer", "DieStack"),
        ".channel": ("OpticalChannel", "ChannelBudget"),
        ".crosstalk": ("CrosstalkModel",),
        ".photon_stream": ("PhotonPulse", "poisson_photon_count", "pulse_arrival_times"),
    },
)
