"""Monte-Carlo drivers and the central seed-derivation policy.

The stochastic parts of the link model (photon arrivals, SPAD avalanches,
afterpulsing, TDC sampling) are drawn in vectorised batches by the link
backends; this package runs those batches as trials —
:class:`MonteCarloRunner` chunks a budget into
:func:`link_batch_trial`/:class:`NocTrafficTrial` calls — and owns the seed
policy (:func:`split_seed`, :class:`RandomSource`) every layer derives its
streams from.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".randomness": ("RandomSource", "split_seed"),
        ".montecarlo": (
            "MonteCarloRunner",
            "MonteCarloResult",
            "NocTrafficTrial",
            "TRAFFIC_PATTERNS",
            "link_batch_trial",
            "link_symbol_error_trial",
        ),
    },
)
