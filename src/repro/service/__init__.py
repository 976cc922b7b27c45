"""``repro serve`` — the simulator as a high-traffic artefact server.

The expensive object in this package is the *simulation*; its cache key —
the digest of ``(scenario, backend, seed, chunk_symbols)`` — exists before
any simulation runs.  This subsystem puts a daemon in front of that fact:

* :mod:`repro.service.app` — :class:`ExperimentService`, a stdlib-asyncio
  HTTP/1.1 server (no new dependencies), plus the :func:`serve_app`
  convenience and the typed :class:`ServiceBindError`;
* :mod:`repro.service.routes` — the endpoint table: ``POST /runs``,
  ``GET /runs/{id}``, ``GET /runs/{id}/events`` (SSE), ``GET /scenarios``,
  ``GET /probe``, ``GET /artifacts[/{key}]``, ``GET /compare``,
  ``GET /stats``;
* :mod:`repro.service.registry` — :class:`RunRegistry`: completed requests
  are O(1) cache hits on the :class:`~repro.scenarios.store.ReportStore`
  run index, identical in-flight requests coalesce onto one running
  simulation, and any number of SSE subscribers fan out from it;
* :mod:`repro.service.sse` — the server-sent-events wire format;
* :mod:`repro.service.client` — :class:`ServiceClient`, an ``http.client``
  consumer of all of the above.

The CLI verb is ``python -m repro serve``; the scenario-resolution and
cache-key policy is shared with the rest of the CLI through
:mod:`repro.frontdoor`, so a run executed in the shell is a cache hit over
HTTP and vice versa.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".app": ("ExperimentService", "ServiceBindError", "serve_app"),
        ".client": ("ServiceClient", "ServiceError"),
        ".registry": ("RunRegistry", "RunHandle"),
        ".sse": ("encode_event", "decode_lines"),
    },
)
