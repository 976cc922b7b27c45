"""Modulation and coding substrate.

Pulse-position modulation (PPM) is the paper's chosen line code: K bits are
encoded as the position of a single optical pulse within 2^K time slots of a
range R, which lets the link amortise the SPAD's long detection cycle over
several bits per detected photon.  The subpackage also provides the framing
needed to delimit symbols, alternative line codes used as ablation baselines
(on-off keying, differential PPM), a self-synchronising scrambler and an
optional Hamming SEC-DED error-correction layer.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".symbols": ("SlotGrid", "bits_to_int", "int_to_bits"),
        ".ppm": ("PpmCodec", "PpmSymbol"),
        ".framing": ("Frame", "FrameSync", "Preamble"),
        ".line_coding": ("OnOffKeyingCodec", "DifferentialPpmCodec"),
        ".scrambler": ("MultiplicativeScrambler",),
        ".error_correction": ("HammingSecDed",),
    },
)
