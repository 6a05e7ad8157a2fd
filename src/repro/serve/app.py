"""Transport-independent serving application behind ``repro serve``.

:class:`ServingApp` is the whole service minus the network: it loads
content-verified models from a :class:`~repro.models.registry
.ModelRegistry`, routes ``(method, path, body)`` triples to endpoint
handlers, and records every request into its own
:class:`~repro.obs.metrics.MetricsRegistry`, the active span trace and an
optional :class:`~repro.obs.live.AccessLog`.  The asyncio HTTP layer
(:mod:`repro.serve.http`) is a thin shell over :meth:`ServingApp.handle`;
tests drive :meth:`handle` directly, so every endpoint is exercised
without opening a socket.

Prediction goes through the model's one vectorised
:meth:`~repro.models.base.Model.predict` (wrapped by
:meth:`~repro.models.base.Model.predict_with_provenance` unless the request
asks for ``"provenance": false``), whose contract is that a 10k-point
batch returns CPI bitwise-identical to 10k sequential single-point calls —
so a client batching requests never changes the numbers, only the
latency.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import obs
from repro.models.io import model_family
from repro.models.registry import ModelRegistry, RegistryEntry, content_hash
from repro.obs.live import AccessLog, MetricsWindow

#: Maximum accepted points per /predict request (guards accidental
#: multi-GB JSON payloads, far above the 10k acceptance batch).
MAX_BATCH_POINTS = 100_000


class ModelService:
    """One loaded, hash-verified model ready to serve predictions."""

    def __init__(self, entry: RegistryEntry, model: Any,
                 parameter_names: Optional[List[str]],
                 metadata: Mapping[str, Any]):
        self.entry = entry
        self.model = model
        self.parameter_names = list(parameter_names or [])
        self.metadata = dict(metadata)
        dimension = getattr(model, "dimension", None)
        if dimension is None and self.parameter_names:
            dimension = len(self.parameter_names)
        self.dimension: Optional[int] = dimension

    @property
    def calibrated(self) -> bool:
        """Whether the model carries an uncertainty calibration."""
        return self.model.uncertainty is not None

    def describe(self) -> Dict[str, Any]:
        """The /models record: index entry plus serving-relevant extras."""
        record = self.entry.as_record()
        record["calibrated"] = self.calibrated
        record["dimension"] = self.dimension
        record["parameter_names"] = self.parameter_names
        return record


class ServingApp:
    """Routes requests to loaded models and observes itself doing it.

    Parameters
    ----------
    registry:
        The model registry to serve from.
    benchmark, family:
        Optional filters: serve only matching registrations.
    access_log:
        Optional :class:`~repro.obs.live.AccessLog`; one record per
        handled request.
    max_requests:
        When set, :attr:`done` turns true after that many requests —
        the HTTP layer's deterministic-shutdown hook for CI smoke runs.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        benchmark: Optional[str] = None,
        family: Optional[str] = None,
        access_log: Optional[AccessLog] = None,
        max_requests: Optional[int] = None,
    ):
        self.registry = registry
        self.benchmark = benchmark
        self.family = family
        self.access_log = access_log
        self.max_requests = max_requests
        self.metrics = obs.MetricsRegistry()
        self.window = MetricsWindow(self.metrics)
        self.services: List[ModelService] = []
        self._request_seq = 0
        self.started = obs.monotonic()

    # -- startup -------------------------------------------------------------

    def load_models(self) -> List[ModelService]:
        """Load the latest registration of each lineage, hash-verified.

        :meth:`ModelRegistry.load` re-verifies every artifact's content
        address, so a tampered or truncated model file fails here, at
        startup, rather than mid-request.  Returns the loaded services
        (most recent registration last = the default model).
        """
        latest: Dict[tuple, RegistryEntry] = {}
        for entry in self.registry.entries(benchmark=self.benchmark,
                                           family=self.family):
            latest[entry.lineage()] = entry
        ordered = sorted(latest.values(), key=lambda e: (e.created or "",
                                                         e.version, e.sha))
        self.services = []
        for entry in ordered:
            model, names, metadata = self.registry.load(entry)
            self.services.append(ModelService(entry, model, names, metadata))
        self._record("set_gauge", "models_loaded", len(self.services))
        return self.services

    def _record(self, kind: str, name: str, value: float = 1.0) -> None:
        """Record into the app's registry and mirror to any active trace."""
        getattr(self.metrics, kind)(name, value)
        getattr(obs, kind)(name, value)

    # -- request plumbing ----------------------------------------------------

    @property
    def requests_served(self) -> int:
        """Total requests handled so far (any status)."""
        return int(self.metrics.counters.get("requests_total", 0))

    @property
    def done(self) -> bool:
        """Whether a ``max_requests`` budget has been exhausted."""
        return (self.max_requests is not None
                and self.requests_served >= self.max_requests)

    def handle(self, method: str, path: str,
               body: Optional[bytes] = None) -> Tuple[int, Dict[str, Any]]:
        """Serve one request: ``(method, path, body) -> (status, payload)``.

        The single entry point for every transport: times the request on
        the observability clock, wraps it in a ``serve/request`` span
        carrying the request id, updates counters and the latency
        histogram, and appends the access-log record.  Never raises —
        unexpected handler errors become structured 500s and a
        :func:`repro.obs.record_failure` event.
        """
        self._request_seq += 1
        request_id = f"req-{self._request_seq:06d}"
        start = obs.monotonic()
        with obs.span("serve/request", request=request_id,
                      method=method, path=path):
            try:
                status, payload = self._route(method, path, body)
            except Exception as exc:
                obs.record_failure("serve", exc, request=request_id,
                                   path=path)
                status = 500
                payload = {"error": f"internal error: {exc}"}
        latency = obs.monotonic() - start
        self._record("inc", "requests_total")
        if status >= 400:
            self._record("inc", "request_errors")
        self._record("observe", "serve/latency_s", latency)
        payload.setdefault("request_id", request_id)
        if self.access_log is not None:
            self.access_log.log(
                request=request_id,
                method=method,
                path=path,
                status=status,
                latency_s=round(latency, 9),
                points=payload.get("count", 0),
            )
        return status, payload

    def _route(self, method: str, path: str,
               body: Optional[bytes]) -> Tuple[int, Dict[str, Any]]:
        path = path.split("?", 1)[0]
        routes = {
            "/predict": ("POST", self._predict),
            "/models": ("GET", self._models),
            "/healthz": ("GET", self._healthz),
            "/metrics": ("GET", self._metrics),
            "/version": ("GET", self._version),
        }
        if path not in routes:
            return 404, {"error": f"unknown path {path!r}"}
        expected, endpoint = routes[path]
        if method != expected:
            return 405, {"error": f"{path} requires {expected}"}
        if expected == "POST":
            return endpoint(body)
        return endpoint()

    # -- endpoints -----------------------------------------------------------

    def _resolve(self, selector: Optional[str]) -> Optional[ModelService]:
        """Pick the serving model: explicit selector or the default.

        The default is the most recently registered loaded model; a
        selector matches a SHA prefix first, then a benchmark name —
        the same resolution order as ``repro models show``.
        """
        if selector is None:
            return self.services[-1] if self.services else None
        for service in reversed(self.services):
            if service.entry.sha.startswith(selector):
                return service
        for service in reversed(self.services):
            if service.entry.benchmark == selector:
                return service
        return None

    def _predict(self, body: Optional[bytes]) -> Tuple[int, Dict[str, Any]]:
        if not body:
            return 400, {"error": "empty request body; expected JSON"}
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        service = self._resolve(request.get("model"))
        if service is None:
            return 404, {"error": f"no model matches "
                                  f"{request.get('model')!r}"}
        if "points" not in request:
            return 400, {"error": "missing required field 'points'"}
        try:
            points = np.asarray(request["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"points are not numeric: {exc}"}
        if points.ndim == 1:  # one point, not a batch
            points = points[np.newaxis, :]
        if points.ndim != 2 or points.size == 0:
            return 400, {"error": "points must be a vector or a matrix "
                                  "of design points"}
        if len(points) > MAX_BATCH_POINTS:
            return 400, {"error": f"batch of {len(points)} exceeds the "
                                  f"{MAX_BATCH_POINTS}-point limit"}
        if service.dimension is not None and points.shape[1] != service.dimension:
            return 400, {"error": f"points have {points.shape[1]} "
                                  f"dimensions; model expects "
                                  f"{service.dimension}"}
        want_provenance = bool(request.get("provenance", True))
        if want_provenance and not service.calibrated:
            return 409, {"error": f"model {service.entry.sha} is not "
                                  "calibrated; request provenance=false "
                                  "for bare predictions"}
        payload: Dict[str, Any] = {
            "model": service.entry.sha,
            "benchmark": service.entry.benchmark,
            "family": model_family(service.model),
            "count": len(points),
        }
        with obs.span("serve/predict", model=service.entry.sha,
                      points=len(points)):
            if want_provenance:
                prov = service.model.predict_with_provenance(points)
                payload["values"] = prov.values.tolist()
                payload["lower"] = prov.lower.tolist()
                payload["upper"] = prov.upper.tolist()
                payload["extrapolated"] = prov.extrapolated.tolist()
                payload["kind"] = prov.kind
            else:
                payload["values"] = service.model.predict(points).tolist()
        self._record("inc", "points_predicted", len(points))
        self._record("observe", "serve/batch_points", len(points))
        return 200, payload

    def _models(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {"models": [s.describe() for s in self.services]}

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness plus integrity: re-verify every served model's hash.

        Recomputes each in-memory model's content address against its
        index entry, so silent corruption of a loaded model (or a loaded
        artifact diverging from the registry) flips the service to 503
        ``degraded`` instead of quietly serving wrong numbers.
        """
        checks = []
        healthy = True
        for service in self.services:
            verified = content_hash(service.model) == service.entry.sha
            healthy = healthy and verified
            checks.append({
                "sha": service.entry.sha,
                "benchmark": service.entry.benchmark,
                "family": service.entry.family,
                "version": service.entry.version,
                "verified": verified,
            })
        healthy = healthy and bool(self.services)
        payload = {
            "status": "ok" if healthy else "degraded",
            "models": checks,
            "requests_served": self.requests_served,
            "uptime_s": round(obs.monotonic() - self.started, 9),
        }
        return (200 if healthy else 503), payload

    def _metrics(self) -> Tuple[int, Dict[str, Any]]:
        return 200, self.window.snapshot()

    def _version(self) -> Tuple[int, Dict[str, Any]]:
        models = {}
        for service in self.services:
            key = service.entry.benchmark or service.entry.sha
            models[key] = {
                "sha": service.entry.sha,
                "family": service.entry.family,
                "version": service.entry.version,
            }
        prov = obs.provenance()
        return 200, {
            "version": prov["version"],
            "git_sha": prov["git_sha"],
            "python": prov["python_version"],
            "numpy": prov["numpy_version"],
            "models": models,
        }

    # -- session accounting --------------------------------------------------

    def session_fields(self) -> Dict[str, Any]:
        """The per-session ledger overrides: volume and latency quantiles.

        Feeds :func:`repro.obs.history.ledger.record_from_manifest` via
        its ``overrides`` so ``repro history trend`` covers serving
        sessions alongside batch runs.
        """
        hist = self.metrics.histograms.get("serve/latency_s")

        def quantile_ms(q: float) -> Optional[float]:
            if hist is None or hist.count == 0:
                return None
            return round(hist.percentile(q) * 1000.0, 6)

        return {
            "requests_served": self.requests_served,
            "request_errors": int(
                self.metrics.counters.get("request_errors", 0)),
            "latency_p50_ms": quantile_ms(50),
            "latency_p90_ms": quantile_ms(90),
            "latency_p99_ms": quantile_ms(99),
        }
