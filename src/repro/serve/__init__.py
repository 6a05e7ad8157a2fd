"""repro.serve — the observable model-serving layer (``repro serve``).

The paper's pitch is that a fitted model answers "what is CPI at this
design point" in microseconds instead of simulator-hours; this package
turns that answer into a long-lived service.  A dependency-free asyncio
HTTP server (:mod:`repro.serve.http`) fronts a transport-independent
application (:mod:`repro.serve.app`) that loads calibrated models from
the registry (:mod:`repro.models.registry`), serves single and batched
predictions through the model's one vectorised
:meth:`~repro.models.base.Model.predict` — a batch is bitwise-identical
to sequential single-point calls — with
:meth:`~repro.models.base.Model.predict_with_provenance` uncertainty
bands and extrapolation flags per point, and reports itself through
:mod:`repro.obs.live`: streaming request traces, windowed metrics,
a JSONL access log and a per-session ledger record.

Endpoints: ``POST /predict``, ``GET /models``, ``GET /healthz``,
``GET /metrics``, ``GET /version``.

Blocking I/O in event-loop code (``async def`` and protocol callbacks)
is forbidden here by lint rule OBS004;
file writes go through the :mod:`repro.obs.live` sinks, and model
loading happens synchronously at startup.
"""

from repro.serve.app import ModelService, ServingApp
from repro.serve.http import run_server, serve_forever

__all__ = [
    "ModelService",
    "ServingApp",
    "run_server",
    "serve_forever",
]
