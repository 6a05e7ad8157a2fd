"""The observable serving layer: endpoints, telemetry, HTTP shell.

``ServingApp.handle`` is the transport-independent entry point, so most
tests drive it directly — every endpoint and error path without a
socket.  The pinned behaviours from the issue: batched ``/predict``
bitwise-identical to sequential single-point ``Model.predict`` calls,
``/metrics`` latency quantiles deterministic under an injected clock,
the per-session ledger record, hash-verified ``/healthz`` degradation,
and tracing-off serving bitwise-unperturbed.  The asyncio tests run the
real HTTP server against real sockets: the ``max_requests`` budget
shutdown the CI smoke job relies on, and the transport's own answers
(400, 503, no answer, an aborted write) that never reach the app.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import Request, urlopen

import numpy as np
import pytest

import repro
from repro import obs
from repro.cli import main
from repro.models import registry as reg
from repro.obs import history
from repro.models.rbf import build_rbf_from_tree
from repro.obs.history.ledger import record_from_manifest
from repro.obs.live import StreamingTraceSink
from repro.serve import ModelService, ServingApp, run_server
from repro.serve import app as app_module
from repro.serve import http as http_module

PINNED_NOW = "2026-08-08T00:00:00+00:00"
DIM = 3


def target(x):
    return 1.0 + np.sin(3 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]


def make_app(tmp_path, calibrate=True, **app_kwargs):
    """A registry with one registered RBF model and an app serving it."""
    rng = np.random.default_rng(17)
    x = rng.random((60, DIM))
    y = target(x) + rng.normal(0.0, 0.05, len(x))
    model, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
    if calibrate:
        model.calibrate(x, y)
    registry = reg.ModelRegistry(tmp_path / "registry")
    registry.register(model, benchmark="mcf", sample_size=60, seed=42,
                      parameter_names=["a", "b", "c"], now=PINNED_NOW)
    app = ServingApp(registry, **app_kwargs)
    app.load_models()
    return app


def predict(app, payload):
    return app.handle("POST", "/predict", json.dumps(payload).encode())


@pytest.fixture
def app(tmp_path):
    return make_app(tmp_path)


class TestEndpoints:
    def test_models_lists_the_loaded_service(self, app):
        status, payload = app.handle("GET", "/models")
        assert status == 200
        (record,) = payload["models"]
        assert record["benchmark"] == "mcf"
        assert record["family"] == "rbf"
        assert record["calibrated"] is True
        assert record["dimension"] == DIM
        assert record["parameter_names"] == ["a", "b", "c"]

    def test_predict_single_point_with_provenance(self, app):
        status, payload = predict(app, {"points": [[0.5, 0.5, 0.5]]})
        assert status == 200
        assert payload["count"] == 1
        assert payload["lower"][0] <= payload["values"][0] <= payload["upper"][0]
        assert payload["extrapolated"] == [False]
        assert payload["model"] == app.services[0].entry.sha
        assert payload["request_id"] == "req-000001"

    def test_flat_vector_is_one_point(self, app):
        status, payload = predict(app, {"points": [0.5, 0.5, 0.5]})
        assert status == 200
        assert payload["count"] == 1

    def test_batch_is_bitwise_identical_to_sequential_predict(self, app):
        rng = np.random.default_rng(99)
        points = rng.random((200, DIM))
        status, payload = predict(app, {"points": points.tolist()})
        assert status == 200
        model = app.services[0].model
        sequential = [float(model.predict(p[np.newaxis, :])[0])
                      for p in points]
        # Bitwise equality, surviving the float() round-trip the JSON
        # payload applies — batching changes latency, never the numbers.
        assert payload["values"] == sequential

    def test_provenance_false_returns_bare_values(self, app):
        status, payload = predict(
            app, {"points": [[0.5, 0.5, 0.5]], "provenance": False})
        assert status == 200
        assert "values" in payload
        assert "lower" not in payload

    def test_selector_resolution_sha_prefix_and_benchmark(self, app):
        sha = app.services[0].entry.sha
        for selector in (sha[:8], "mcf"):
            status, payload = predict(
                app, {"points": [[0.5, 0.5, 0.5]], "model": selector})
            assert status == 200
            assert payload["model"] == sha
        status, payload = predict(
            app, {"points": [[0.5, 0.5, 0.5]], "model": "gcc"})
        assert status == 404

    @pytest.mark.parametrize("body,fragment", [
        (None, "empty request body"),
        (b"not json", "invalid JSON"),
        (b"[1, 2, 3]", "JSON object"),
        (b"{}", "missing required field 'points'"),
        (b'{"points": [["a", "b", "c"]]}', "not numeric"),
        (b'{"points": []}', "vector or a matrix"),
        (b'{"points": [[0.5, 0.5]]}', "model expects 3"),
    ])
    def test_predict_rejects_bad_requests(self, app, body, fragment):
        status, payload = app.handle("POST", "/predict", body)
        assert status == 400
        assert fragment in payload["error"]

    def test_oversized_batch_is_rejected(self, app, monkeypatch):
        monkeypatch.setattr(app_module, "MAX_BATCH_POINTS", 10)
        status, payload = predict(app, {"points": [[0.5] * DIM] * 11})
        assert status == 400
        assert "exceeds the 10-point limit" in payload["error"]

    def test_unknown_path_and_wrong_method(self, app):
        assert app.handle("GET", "/nope")[0] == 404
        assert app.handle("GET", "/predict")[0] == 405
        assert app.handle("POST", "/models")[0] == 405
        assert app.handle("GET", "/models?verbose=1")[0] == 200

    def test_uncalibrated_model_conflicts_on_provenance(self, tmp_path):
        app = make_app(tmp_path, calibrate=False)
        status, payload = predict(app, {"points": [[0.5, 0.5, 0.5]]})
        assert status == 409
        assert "not calibrated" in payload["error"]
        status, payload = predict(
            app, {"points": [[0.5, 0.5, 0.5]], "provenance": False})
        assert status == 200

    def test_version_reports_provenance(self, app):
        status, payload = app.handle("GET", "/version")
        assert status == 200
        assert payload["numpy"] == np.__version__
        assert payload["models"]["mcf"]["family"] == "rbf"

    def test_handler_errors_become_structured_500s(self, app, monkeypatch):
        monkeypatch.setattr(
            app, "_models",
            lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        status, payload = app.handle("GET", "/models")
        assert status == 500
        assert "boom" in payload["error"]
        assert int(app.metrics.counters["request_errors"]) == 1


class TestHealthz:
    def test_verified_models_report_ok(self, app):
        status, payload = app.handle("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert [m["verified"] for m in payload["models"]] == [True]

    def test_in_memory_tampering_degrades_the_service(self, app):
        # Flip one weight of the loaded model: the content hash no longer
        # matches the registry entry, and /healthz must refuse to claim
        # health rather than quietly serve wrong numbers.
        app.services[0].model.weights[0] += 1.0
        status, payload = app.handle("GET", "/healthz")
        assert status == 503
        assert payload["status"] == "degraded"
        assert [m["verified"] for m in payload["models"]] == [False]

    def test_no_models_loaded_is_degraded(self, tmp_path):
        registry = reg.ModelRegistry(tmp_path / "empty")
        app = ServingApp(registry)
        status, payload = app.handle("GET", "/healthz")
        assert status == 503
        assert payload["models"] == []


def scripted_clock(latencies):
    """An ``obs.monotonic`` stand-in: request i takes ``latencies[i]``.

    ``ServingApp.handle`` reads the clock exactly twice per request when
    tracing is off (start and end), so the script yields a pair per
    request with a 1s gap between requests.
    """
    times = []
    t = 0.0
    for latency in latencies:
        times.extend([t, t + latency])
        t += latency + 1.0
    it = iter(times)
    return lambda: next(it)


class TestMetricsAndLedger:
    LATENCIES = [i / 100.0 for i in range(1, 11)]  # 10ms .. 100ms

    def pinned_app(self, tmp_path, monkeypatch, extra_requests=1):
        app = make_app(tmp_path)
        clock = scripted_clock(self.LATENCIES + [0.001] * extra_requests)
        monkeypatch.setattr(obs, "monotonic", clock)
        for _ in self.LATENCIES:
            status, _ = predict(app, {"points": [[0.5, 0.5, 0.5]]})
            assert status == 200
        return app

    def test_metrics_latency_quantiles_are_pinned(self, tmp_path, monkeypatch):
        app = self.pinned_app(tmp_path, monkeypatch)
        status, payload = app.handle("GET", "/metrics")
        assert status == 200
        # The snapshot is taken before the /metrics request's own latency
        # is recorded, so the quantiles cover exactly the 10 predicts.
        latency = payload["latency"]["serve/latency_s"]
        assert latency["count"] == 10
        assert latency["p50"] == pytest.approx(0.050)
        assert latency["p90"] == pytest.approx(0.090)
        assert latency["p99"] == pytest.approx(0.100)
        assert payload["counters"]["requests_total"] == 10.0
        assert payload["counters"]["points_predicted"] == 10.0
        assert payload["gauges"]["models_loaded"] == 1.0

    def test_session_ledger_record_is_pinned(self, tmp_path, monkeypatch):
        app = self.pinned_app(tmp_path, monkeypatch)
        manifest = obs.snapshot_manifest(
            obs.build_manifest("serve"), metrics=app.metrics.snapshot(),
            wall_time_s=12.5, extra={"registry": "r", **app.session_fields()})
        record = record_from_manifest(manifest, trace_path="trace.jsonl")
        assert record["command"] == "serve"
        assert record["requests_served"] == 10
        assert record["request_errors"] == 0
        # session_fields quantiles cover the 10 scripted latencies.
        assert record["latency_p50_ms"] == 50.0
        assert record["latency_p90_ms"] == 90.0
        assert record["latency_p99_ms"] == 100.0
        assert record["wall_time_s"] == 12.5
        assert record["trace_path"] == "trace.jsonl"

    def test_empty_session_has_null_quantiles(self, app):
        fields = app.session_fields()
        assert fields["requests_served"] == 0
        assert fields["latency_p50_ms"] is None


class TestRequestTracing:
    def test_spans_stream_per_request(self, app, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = StreamingTraceSink(path, header={"command": "serve"})
        collector = obs.Collector(sink=sink)
        obs.activate(collector)
        try:
            predict(app, {"points": [[0.5, 0.5, 0.5]] * 3})
            app.handle("GET", "/healthz")
        finally:
            obs.deactivate(collector)
            sink.close()
        data = obs.read_trace(path)
        assert [r.name for r in data.roots] == ["serve/request"] * 2
        assert data.roots[0].attrs["request"] == "req-000001"
        assert data.roots[0].attrs["path"] == "/predict"
        (child,) = data.roots[0].children
        assert child.name == "serve/predict"
        assert child.attrs["points"] == 3
        assert data.roots[1].children == []  # healthz has no predict span
        assert collector.roots == []  # streamed and dropped

    def test_tracing_off_serving_is_bitwise_unperturbed(self, tmp_path):
        points = np.random.default_rng(5).random((40, DIM)).tolist()
        app_off = make_app(tmp_path / "off")
        _, untraced = predict(app_off, {"points": points})
        app_on = make_app(tmp_path / "on")
        with obs.collecting():
            _, traced = predict(app_on, {"points": points})
        for key in ("values", "lower", "upper", "extrapolated"):
            assert untraced[key] == traced[key]


class TestHTTPServer:
    @staticmethod
    async def _request(host, port, method, path, body=b""):
        reader, writer = await asyncio.open_connection(host, port)
        head = (f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])

    def test_real_socket_roundtrip_with_budget_shutdown(self, tmp_path):
        app = make_app(tmp_path, max_requests=3)

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            server = asyncio.ensure_future(
                run_server(app, "127.0.0.1", 0, ready))
            host, port = await asyncio.wait_for(ready, timeout=10)
            health = await self._request(host, port, "GET", "/healthz")
            body = json.dumps({"points": [[0.5, 0.5, 0.5]] * 4}).encode()
            pred = await self._request(host, port, "POST", "/predict", body)
            metrics = await self._request(host, port, "GET", "/metrics")
            # Budget spent: the server coroutine finishes on its own —
            # the deterministic shutdown the CI smoke job waits on.
            await asyncio.wait_for(server, timeout=10)
            return health, pred, metrics

        health, pred, metrics = asyncio.run(scenario())
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert pred[0] == 200 and pred[1]["count"] == 4
        assert metrics[0] == 200
        assert metrics[1]["counters"]["points_predicted"] == 4.0
        assert app.done and app.requests_served == 3

    def test_malformed_requests_get_400_without_spending_budget(
            self, tmp_path):
        app = make_app(tmp_path, max_requests=1)

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            server = asyncio.ensure_future(
                run_server(app, "127.0.0.1", 0, ready))
            host, port = await asyncio.wait_for(ready, timeout=10)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GARBAGE\r\n\r\n")  # no target: malformed line
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            garbage_status = int(raw.split(b" ", 2)[1])
            # The malformed request never reached the app, so the budget
            # is untouched and one real request still gets served.
            health = await self._request(host, port, "GET", "/healthz")
            await asyncio.wait_for(server, timeout=10)
            return garbage_status, health

        garbage_status, health = asyncio.run(scenario())
        assert garbage_status == 400
        assert health[0] == 200
        assert app.requests_served == 1

    def test_stalled_request_is_cut_off_at_the_read_deadline(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "READ_TIMEOUT_S", 0.2)
        app = make_app(tmp_path, max_requests=1)

        async def scenario():
            ready = asyncio.get_running_loop().create_future()
            server = asyncio.ensure_future(
                run_server(app, "127.0.0.1", 0, ready))
            host, port = await asyncio.wait_for(ready, timeout=10)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /pre")  # half a request line, then silence
            await writer.drain()
            try:
                answer = await asyncio.wait_for(reader.read(), timeout=10)
            except ConnectionResetError:
                answer = b""
            writer.close()
            # The stalled client got nothing and spent no budget.
            health = await self._request(host, port, "GET", "/healthz")
            await asyncio.wait_for(server, timeout=10)
            return answer, health

        answer, health = asyncio.run(scenario())
        assert answer == b""
        assert health[0] == 200
        assert app.requests_served == 1


class TestTransport:
    """The connection protocol's own answers, over real sockets."""

    @staticmethod
    async def _read_all(sock):
        """Everything the server sends until it closes (or resets)."""
        loop = asyncio.get_running_loop()
        chunks = []
        while True:
            try:
                chunk = await asyncio.wait_for(
                    loop.sock_recv(sock, 1 << 16), timeout=10)
            except ConnectionResetError:
                break  # Linux hands over queued bytes before the reset
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)

    async def _exchange(self, address, pieces, eof=False):
        """Send ``pieces`` one write each over a fresh connection, then
        read the whole reply (``b""`` when none comes)."""
        loop = asyncio.get_running_loop()
        with socket.socket() as sock:
            sock.setblocking(False)
            await loop.sock_connect(sock, address)
            for piece in pieces:
                await loop.sock_sendall(sock, piece)
                await asyncio.sleep(0.001)
            if eof:
                sock.shutdown(socket.SHUT_WR)
            return await self._read_all(sock)

    def _serve(self, app, scenario):
        """Run ``scenario(address)``, then one /healthz that spends the
        app's last request; returns what the scenario returned."""

        async def main():
            ready = asyncio.get_running_loop().create_future()
            server = asyncio.ensure_future(
                run_server(app, "127.0.0.1", 0, ready))
            address = await asyncio.wait_for(ready, timeout=10)
            result = await asyncio.wait_for(scenario(address), timeout=30)
            health = await self._exchange(address, [
                b"GET /healthz HTTP/1.1\r\n\r\n"])
            assert health.startswith(b"HTTP/1.1 200 OK\r\n"), health
            await asyncio.wait_for(server, timeout=10)
            return result

        return asyncio.run(main())

    def test_request_written_one_byte_at_a_time(self, tmp_path):
        app = make_app(tmp_path / "served", max_requests=2)
        body = json.dumps({"points": [[0.25, 0.5, 0.75]] * 2}).encode()
        data = (b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)) + body
        reply = self._serve(app, lambda address: self._exchange(
            address, [data[i:i + 1] for i in range(len(data))]))
        reference = make_app(tmp_path / "reference")
        assert reply == http_module._render_response(
            *reference.handle("POST", "/predict", body))

    @pytest.mark.parametrize("pieces,eof,error", [
        ([b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"],
         False, "request head exceeds the 65536-byte limit"),
        ([b"POST /predict HTTP/1.1\r\nContent-Length: 10\r\n\r\n", b'{"po'],
         True, "4 bytes read on a total of 10 expected bytes"),
        ([b"POST /predict HTTP/1.1\r\nContent-Le"], True,
         "connection closed before the end of the request head"),
        ([b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n"], False,
         "bad Content-Length: '-5'"),
        ([b"GET /healthz HTTP/1.1\r\nContent-Length: +0\r\n\r\n"], False,
         "bad Content-Length: '+0'"),
        ([b"POST /predict HTTP/1.1\r\nContent-Length: 3\r\n"
          b"Content-Length: 18\r\n\r\n{\"points\": [0.5]}"], False,
         "conflicting Content-Length values: 3 and 18"),
    ], ids=["head-over-bound", "eof-in-body", "eof-in-head",
            "negative-length", "non-digit-length", "conflicting-lengths"])
    def test_bad_requests_get_400_without_reaching_the_app(
            self, tmp_path, pieces, eof, error):
        app = make_app(tmp_path, max_requests=1)
        reply = self._serve(app, lambda address: self._exchange(
            address, pieces, eof=eof))
        assert reply == http_module._render_response(400, {"error": error})
        assert app.requests_served == 1  # the closing /healthz alone

    @pytest.mark.parametrize("pieces,eof", [
        ([], True), ([b"\r\n"], False), ([b" \r"], True),
    ], ids=["nothing", "blank-line", "whitespace-then-eof"])
    def test_empty_connection_closes_without_an_answer(
            self, tmp_path, pieces, eof):
        app = make_app(tmp_path, max_requests=1)
        reply = self._serve(app, lambda address: self._exchange(
            address, pieces, eof=eof))
        assert reply == b""
        assert app.requests_served == 1

    def test_connections_over_the_cap_get_503(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 2)
        app = make_app(tmp_path, max_requests=1)

        async def scenario(address):
            idle = [await asyncio.open_connection(*address) for _ in range(2)]
            refused = await self._exchange(address, [])
            for reader, writer in idle:
                writer.write_eof()  # an empty connection: closed unanswered
                assert await asyncio.wait_for(reader.read(), 10) == b""
                writer.close()
            return refused

        refused = self._serve(app, scenario)
        assert refused == http_module._render_response(
            503, {"error": "2 connections are open; retry later"})
        assert app.requests_served == 1

    def test_unread_response_is_cut_off_at_the_write_deadline(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_module, "WRITE_TIMEOUT_S", 0.2)
        app = make_app(tmp_path, max_requests=2)
        # A 6.6 MB answer: more than the kernel's send buffer takes
        # (tcp_wmem allows 4 MiB by default), so some of it must wait.
        points = [[0.5] * DIM] * app_module.MAX_BATCH_POINTS
        body = json.dumps({"points": points}).encode()
        data = b"POST /predict HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(
            body) + body

        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)

        async def scenario(address):
            loop = asyncio.get_running_loop()
            await loop.sock_connect(sock, address)
            await loop.sock_sendall(sock, data)
            while not app.requests_served:  # answered, and never read
                await asyncio.sleep(0.01)

        with sock:
            # The /healthz that follows spends the budget; the server
            # stops once the unread connection is gone too.
            self._serve(app, scenario)
            reply = asyncio.run(self._read_all(sock))
        head, _, partial = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        assert len(partial) < length
        assert app.requests_served == 2

    def test_unread_response_is_reset_at_the_write_deadline(
            self, tmp_path, monkeypatch):
        # A plain close would leave the kernel offering megabytes of the
        # response to a client that never reads; a reset drops them.
        monkeypatch.setattr(http_module, "WRITE_TIMEOUT_S", 0.2)
        app = make_app(tmp_path, max_requests=2)
        body = json.dumps({"points": [[0.5] * DIM]
                           * app_module.MAX_BATCH_POINTS}).encode()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.setblocking(False)
        received = []

        async def scenario(address):
            loop = asyncio.get_running_loop()
            await loop.sock_connect(sock, address)
            await loop.sock_sendall(sock, b"POST /predict HTTP/1.1\r\n"
                                    b"Content-Length: %d\r\n\r\n%s"
                                    % (len(body), body))
            while not app.requests_served:
                await asyncio.sleep(0.01)

        async def read_until_closed():
            loop = asyncio.get_running_loop()
            while chunk := await asyncio.wait_for(
                    loop.sock_recv(sock, 1 << 16), timeout=10):
                received.append(chunk)

        with sock:
            self._serve(app, scenario)  # returns once the deadline passed
            with pytest.raises(ConnectionResetError):
                asyncio.run(read_until_closed())
        assert b"".join(received).startswith(b"HTTP/1.1 200 OK\r\n")
        assert sum(map(len, received)) < 64 * 1024


class TestServeCli:
    def test_session_leaves_trace_manifest_and_ledger_record(
            self, tmp_path, monkeypatch):
        registry = make_app(tmp_path).registry.root
        results = tmp_path / "results"
        trace = tmp_path / "serve.jsonl"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(results))
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        codes = []
        server = threading.Thread(target=lambda: codes.append(main([
            "serve", "--port", str(port), "--registry", str(registry),
            "--max-requests", "3", "--trace", str(trace)])), daemon=True)
        server.start()
        deadline = time.monotonic() + 30
        while True:  # an empty connection spends no request budget
            try:
                socket.create_connection(("127.0.0.1", port), 1).close()
                break
            except ConnectionRefusedError:
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
        url = f"http://127.0.0.1:{port}"
        body = json.dumps({"points": [[0.5] * DIM]}).encode()
        for request in (f"{url}/healthz", Request(f"{url}/predict", body),
                        f"{url}/metrics"):
            with urlopen(request, timeout=10) as reply:
                assert reply.status == 200
        server.join(timeout=30)
        assert codes == [0]
        data = obs.read_trace(trace)
        assert [r.name for r in data.roots] == ["serve/request"] * 3
        assert data.metrics["counters"]["requests_total"] == 3
        manifest = obs.read_manifest(results / "manifest.json")
        assert manifest["requests_served"] == 3
        assert manifest["registry"] == str(registry)
        record = history.load_runs()[0][-1]
        assert record["command"] == "serve"
        assert record["latency_p50_ms"] > 0
        assert record["trace_path"] == str(trace)

    def test_sigterm_stops_the_server_like_ctrl_c(self, tmp_path):
        registry = make_app(tmp_path).registry.root
        results = tmp_path / "results"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
                   PYTHONUNBUFFERED="1", REPRO_RESULTS_DIR=str(results))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--registry", str(registry)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            for line in proc.stdout:
                if line.startswith("[listening on"):
                    proc.send_signal(signal.SIGTERM)
                    break
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        manifest = obs.read_manifest(results / "manifest.json")
        assert manifest["command"] == "serve"
        assert "error" not in manifest
        assert manifest["requests_served"] == 0


class TestAccessLogIntegration:
    def test_one_record_per_request(self, tmp_path):
        from repro.obs.live import AccessLog
        log_path = tmp_path / "access.jsonl"
        app = make_app(tmp_path, access_log=AccessLog(log_path))
        predict(app, {"points": [[0.5, 0.5, 0.5]] * 7})
        app.handle("GET", "/nope")
        app.access_log.close()
        records = [json.loads(l) for l in log_path.read_text().splitlines()]
        assert [(r["path"], r["status"], r["points"]) for r in records] == \
            [("/predict", 200, 7), ("/nope", 404, 0)]
        assert records[0]["request"] == "req-000001"
        assert records[0]["latency_s"] >= 0.0


def test_model_service_describe_shape(tmp_path):
    app = make_app(tmp_path)
    service = app.services[0]
    assert isinstance(service, ModelService)
    record = service.describe()
    assert record["sha"] == service.entry.sha
    assert record["calibrated"] and record["dimension"] == DIM
