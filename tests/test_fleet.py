"""The serving fleet: protocol, placement, store, and unit policies.

Covers the in-process layers of :mod:`repro.fleet` — the HTTP plane,
the consistent-hash ring, wire model specs and route keys, the
networked artifact blob format, the predict wire fields, and a full
:class:`FleetWorker` driven over real sockets (including the
corrupt-blob rejection + cold-fallback path).  The multi-process
gateway tests live in ``tests/test_fleet_e2e.py``.
"""

import asyncio
import json
import math
import re

import numpy as np
import pytest

from repro.fleet import (
    FleetModelError,
    FleetModelSpec,
    FleetWorker,
    HashRing,
    NetworkArtifactError,
    build_engine,
    route_key,
)
from repro.fleet.http import (
    ConnectionPool,
    FleetConnectionError,
    HttpConnection,
    HttpRequest,
    HttpServer,
    ProtocolError,
    error_response,
    json_response,
)
from repro.fleet.netstore import (
    SHA_HEADER,
    BlobStore,
    blob_digest,
    pack_artifact_dir,
    unpack_artifact_blob,
)
from repro.fleet.worker import predict_fields


# Nested far past any recursion limit the interpreter may be given.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def run(coro):
    return asyncio.run(coro)


# -- HTTP plane --------------------------------------------------------------


class TestHttpPlane:
    def test_round_trip_json(self):
        async def handler(request):
            assert request.method == "POST"
            assert request.path == "/echo"
            return json_response({"got": request.json(),
                                  "q": request.query})

        async def main():
            server = await HttpServer(handler).start()
            try:
                connection = HttpConnection(server.host, server.port)
                response = await connection.request(
                    "POST", "/echo?a=1&b=two",
                    body=json.dumps({"x": [1.5, -2.25]}).encode())
                assert response.status == 200
                parsed = response.json()
                assert parsed["got"] == {"x": [1.5, -2.25]}
                assert parsed["q"] == {"a": "1", "b": "two"}
                await connection.close()
            finally:
                await server.close()

        run(main())

    def test_floats_round_trip_exactly(self):
        # JSON serializes floats via repr, which round-trips every
        # float64 — the property the fleet's bitwise guarantee leans on.
        values = [0.1, 1 / 3, np.nextafter(1.0, 2.0), 1e-308, -1e17 + 1]
        decoded = json.loads(json.dumps({"v": values}))["v"]
        assert all(a == b for a, b in zip(values, decoded))

    def test_keep_alive_reuses_one_connection(self):
        seen = []

        async def handler(request):
            seen.append(request.path)
            return json_response({"ok": True})

        async def main():
            server = await HttpServer(handler).start()
            try:
                connection = HttpConnection(server.host, server.port)
                for index in range(5):
                    response = await connection.request("GET", f"/{index}")
                    assert response.status == 200
                assert connection.connected
                await connection.close()
            finally:
                await server.close()

        run(main())
        assert seen == ["/0", "/1", "/2", "/3", "/4"]

    def test_handler_exception_becomes_500(self):
        async def handler(request):
            raise KeyError("boom")

        async def main():
            server = await HttpServer(handler).start()
            try:
                connection = HttpConnection(server.host, server.port)
                response = await connection.request("GET", "/")
                assert response.status == 500
                assert "KeyError" in response.json()["error"]
                # The connection survived the 500.
                response = await connection.request("GET", "/again")
                assert response.status == 500
                await connection.close()
            finally:
                await server.close()

        run(main())

    def test_malformed_request_line_gets_400(self):
        async def main():
            server = await HttpServer(
                lambda request: json_response({})).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                raw = await reader.read(4096)
                assert b"400" in raw.split(b"\r\n", 1)[0]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()

        run(main())

    @pytest.mark.parametrize("data, statuses, paths", [
        (b"\r\nGET /a HTTP/1.1\r\n\r\n", [200], ["/a"]),
        (b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc", [400], []),
        (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
         [400], []),
        (b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5"
         b"\r\n\r\nabc", [400], []),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"3\r\nabc\r\n0\r\n\r\n", [400], []),
        (b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\n"
         b"GET /3 HTTP/1.1\r\n\r\n", [200] * 3, ["/1", "/2", "/3"]),
    ], ids=["leading_crlf", "plus_sign_length", "underscore_length",
            "two_lengths", "chunked", "pipelined"])
    def test_raw_bytes_get_exactly_these_answers(self, data, statuses,
                                                 paths):
        """Bytes written, then the write side closed: the server answers
        every request in order and then closes — a blank line before the
        request line is skipped, and a body it cannot frame gets one 400,
        never a silent close or a second answer parsed from the body."""
        seen = []

        async def handler(request):
            seen.append(request.path)
            return json_response({})

        async def main():
            server = await HttpServer(handler).start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(data)
                writer.write_eof()
                raw = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                await writer.wait_closed()
                return raw
            finally:
                await server.close()

        raw = run(main())
        assert [int(status) for status in
                re.findall(rb"HTTP/1\.1 (\d{3})", raw)] == statuses
        assert seen == paths

    def test_a_malformed_response_raises_and_closes(self):
        async def main():
            answered = asyncio.get_running_loop().create_future()

            async def answer(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: +2"
                             b"\r\n\r\nok")
                await reader.read()         # until the client hangs up
                writer.close()
                await writer.wait_closed()
                answered.set_result(None)

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            connection = HttpConnection(
                "127.0.0.1", server.sockets[0].getsockname()[1])
            try:
                with pytest.raises(ProtocolError, match="Content-Length"):
                    await connection.request("GET", "/", timeout=5.0)
                assert not connection.connected
                await asyncio.wait_for(answered, 5.0)
            finally:
                server.close()
                await server.wait_closed()

        run(main())

    def test_bad_json_body_raises_protocol_error(self):
        request = HttpRequest(method="POST", path="/", body=b"{nope")
        with pytest.raises(ProtocolError, match="malformed JSON"):
            request.json()

    def test_deeply_nested_json_is_a_protocol_error(self):
        """``json.loads`` raises ``RecursionError`` past its nesting
        limit; a body is refused like any other malformed JSON."""
        request = HttpRequest(method="POST", path="/", body=DEEP_JSON)
        with pytest.raises(ProtocolError, match="malformed JSON"):
            request.json()

    def test_connection_refused_is_fleet_connection_error(self):
        async def main():
            connection = HttpConnection("127.0.0.1", 1)   # nothing there
            with pytest.raises(FleetConnectionError):
                await connection.request("GET", "/healthz", timeout=2.0)

        run(main())

    def test_request_timeout_is_fleet_connection_error(self):
        async def handler(request):
            await asyncio.sleep(5.0)
            return json_response({})

        async def main():
            server = await HttpServer(handler).start()
            try:
                connection = HttpConnection(server.host, server.port)
                with pytest.raises(FleetConnectionError, match="timed out"):
                    await connection.request("GET", "/slow", timeout=0.1)
            finally:
                await server.close()

        run(main())

    def test_pool_reuses_and_forgets(self):
        async def handler(request):
            return json_response({"ok": True})

        async def main():
            server = await HttpServer(handler).start()
            pool = ConnectionPool()
            try:
                for _ in range(3):
                    response = await pool.request(
                        server.host, server.port, "GET", "/")
                    assert response.status == 200
                assert len(pool._free[(server.host, server.port)]) == 1
                await pool.forget(server.host, server.port)
                assert (server.host, server.port) not in pool._free
            finally:
                await pool.close()
                await server.close()

        run(main())

    def test_content_length_binary_body(self):
        payload = bytes(range(256)) * 41

        async def handler(request):
            assert request.body == payload
            return json_response({"bytes": len(request.body)})

        async def main():
            server = await HttpServer(handler).start()
            try:
                connection = HttpConnection(server.host, server.port)
                response = await connection.request("PUT", "/blob",
                                                    body=payload)
                assert response.json()["bytes"] == len(payload)
                await connection.close()
            finally:
                await server.close()

        run(main())

    def test_error_response_shape(self):
        response = error_response(404, "nope")
        assert response.status == 404
        assert response.json() == {"error": "nope"}


# -- consistent-hash ring ----------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic(self):
        a = HashRing(["w0", "w1", "w2", "w3"])
        b = HashRing(["w3", "w1", "w0", "w2"])    # insertion order differs
        for key in ("abc", "def", route_key(
                FleetModelSpec("m", "mlp", {"dims": [4, 2]}))):
            assert a.replicas(key, 2) == b.replicas(key, 2)

    def test_replicas_are_distinct_workers(self):
        ring = HashRing(["w0", "w1", "w2"])
        chosen = ring.replicas("somekey", 3)
        assert sorted(chosen) == ["w0", "w1", "w2"]

    def test_count_clamps_to_ring_size(self):
        ring = HashRing(["w0"])
        assert ring.replicas("k", 4) == ["w0"]
        assert HashRing([]).replicas("k", 2) == []

    def test_removal_only_moves_affected_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"key-{i}" for i in range(200)]
        before = {k: ring.replicas(k, 1)[0] for k in keys}
        ring.remove("w2")
        moved = 0
        for k in keys:
            after = ring.replicas(k, 1)[0]
            if before[k] == "w2":
                assert after != "w2"
            elif after != before[k]:
                moved += 1
        # Consistent hashing: keys not owned by the removed worker
        # overwhelmingly stay put.
        assert moved == 0

    def test_add_remove_roundtrip(self):
        ring = HashRing(["w0", "w1"])
        before = ring.replicas("stable-key", 2)
        ring.add("w9")
        ring.remove("w9")
        assert ring.replicas("stable-key", 2) == before
        assert ring.workers == {"w0", "w1"}

    def test_spread_over_workers(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        owners = [ring.replicas(f"key-{i}", 1)[0] for i in range(400)]
        counts = {w: owners.count(w) for w in ring.workers}
        # vnodes keep the split roughly even; no worker starves.
        assert min(counts.values()) > 40

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)
        with pytest.raises(ValueError, match="count"):
            HashRing(["w0"]).replicas("k", 0)


# -- model specs and route keys ----------------------------------------------


class TestModelSpec:
    def test_wire_round_trip(self):
        spec = FleetModelSpec("mlp-a", "mlp", {"dims": [32, 24, 10]},
                              seed=3, crossbar={"write_noise_sigma": 0.05})
        assert FleetModelSpec.from_dict(spec.to_dict()) == spec
        assert FleetModelSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetModelError, match="unknown model kind"):
            FleetModelSpec("x", "transformer", {})

    def test_malformed_dict_rejected(self):
        with pytest.raises(FleetModelError, match="malformed|object"):
            FleetModelSpec.from_dict(["not", "a", "dict"])
        with pytest.raises(FleetModelError):
            FleetModelSpec.from_dict({"kind": "mlp"})   # no name

    def test_route_key_is_stable_and_sensitive(self):
        base = FleetModelSpec("m", "mlp", {"dims": [32, 24, 10]})
        assert route_key(base) == route_key(
            FleetModelSpec.from_dict(base.to_dict()))
        variants = [
            FleetModelSpec("m", "mlp", {"dims": [32, 24, 11]}),
            FleetModelSpec("m", "mlp", {"dims": [32, 24, 10]}, seed=1),
            FleetModelSpec("m", "mlp", {"dims": [32, 24, 10]},
                           crossbar={"write_noise_sigma": 0.05}),
            FleetModelSpec("m2", "mlp", {"dims": [32, 24, 10]}),
        ]
        keys = {route_key(v) for v in variants}
        keys.add(route_key(base))
        assert len(keys) == len(variants) + 1

    def test_missing_builder_param(self):
        with pytest.raises(FleetModelError, match="missing required"):
            build_engine(FleetModelSpec("m", "mlp", {}))

    def test_bad_crossbar_params(self):
        spec = FleetModelSpec("m", "mlp", {"dims": [4, 2]},
                              crossbar={"write_noise_sigma": -1.0})
        with pytest.raises(FleetModelError, match="crossbar"):
            build_engine(spec)

    def test_build_engine_deterministic(self):
        spec = FleetModelSpec("m", "mlp", {"dims": [32, 24, 10]}, seed=2)
        x = np.linspace(-1, 1, 32)
        a = build_engine(spec).predict({"x": x})
        b = build_engine(spec).predict({"x": x})
        np.testing.assert_array_equal(a["out"], b["out"])

    def test_graph_kind_builds(self):
        graph = {
            "name": "tiny",
            "inputs": [{"name": "x", "length": 4}],
            "outputs": [{"name": "out", "source": "y"}],
            "initializers": {"w": [[0.5, 0.0], [0.0, 0.5],
                                   [0.25, 0.0], [0.0, 0.25]]},
            "nodes": [
                {"op": "matvec", "name": "y", "input": "x",
                 "weights": "w"},
            ],
        }
        spec = FleetModelSpec("tiny", "graph", {"graph": graph})
        engine = build_engine(spec)
        result = engine.predict({"x": np.ones(4)})
        assert result["out"].shape[-1] == 2


# -- networked artifact blobs ------------------------------------------------


@pytest.fixture(scope="module")
def mlp_artifact(tmp_path_factory):
    """A real saved artifact directory for blob round-trip tests."""
    base = tmp_path_factory.mktemp("artifact")
    spec = FleetModelSpec("blob-mlp", "mlp", {"dims": [16, 8, 4]})
    engine = build_engine(spec, artifact_dir=str(base))
    return engine.ensure_artifacts(batch=2)


class TestNetstore:
    def test_pack_is_deterministic_and_unpack_restores(self, mlp_artifact,
                                                       tmp_path):
        blob = pack_artifact_dir(mlp_artifact)
        assert pack_artifact_dir(mlp_artifact) == blob
        dest = tmp_path / "restored"
        unpack_artifact_blob(blob, dest,
                             expected_sha256=blob_digest(blob))
        for name in ("manifest.json", "payload.pkl.gz",
                     "programmed_state.npz"):
            assert (dest / name).read_bytes() == \
                (mlp_artifact / name).read_bytes()
        from repro.engine import InferenceEngine

        engine = InferenceEngine.from_artifacts(dest)
        assert engine.seed == 0

    def test_digest_mismatch_rejected(self, mlp_artifact, tmp_path):
        blob = pack_artifact_dir(mlp_artifact)
        corrupted = bytearray(blob)
        corrupted[len(corrupted) // 2] ^= 0xFF
        with pytest.raises(NetworkArtifactError, match="integrity hash"):
            unpack_artifact_blob(bytes(corrupted), tmp_path / "x",
                                 expected_sha256=blob_digest(blob))
        assert not (tmp_path / "x").exists()

    def test_garbage_tar_rejected(self, tmp_path):
        with pytest.raises(NetworkArtifactError, match="malformed"):
            unpack_artifact_blob(b"not a tar at all", tmp_path / "x")

    def test_unexpected_members_rejected(self, tmp_path):
        import io
        import tarfile

        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as tar:
            info = tarfile.TarInfo(name="../../evil.sh")
            data = b"#!/bin/sh"
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        with pytest.raises(NetworkArtifactError, match="unexpected members"):
            unpack_artifact_blob(buffer.getvalue(), tmp_path / "x")

    def test_pack_requires_artifact_dir(self, tmp_path):
        with pytest.raises(NetworkArtifactError, match="not an artifact"):
            pack_artifact_dir(tmp_path)

    def test_blob_store_round_trip(self, tmp_path):
        store = BlobStore(tmp_path)
        data = b"pretend-tar-bytes"
        key = "ab" * 32
        store.put(key, data, blob_digest(data))
        assert store.has(key)
        got, digest = store.get(key)
        assert got == data and digest == blob_digest(data)
        assert store.keys() == [key]
        assert store.get("cd" * 32) is None

    def test_blob_store_refuses_bad_hash(self, tmp_path):
        store = BlobStore(tmp_path)
        with pytest.raises(NetworkArtifactError, match="refusing"):
            store.put("ab" * 32, b"data", "0" * 64)
        assert store.keys() == []

    def test_blob_store_refuses_path_keys(self, tmp_path):
        store = BlobStore(tmp_path)
        for bad in ("../escape", "UPPER", "", "a/b"):
            with pytest.raises(NetworkArtifactError, match="invalid"):
                store.put(bad, b"x", blob_digest(b"x"))

    def test_recorded_digest_exposes_disk_corruption(self, tmp_path):
        # The GET side serves the digest recorded at PUT time, so a
        # receiver can detect bytes corrupted on the shelf.
        store = BlobStore(tmp_path)
        data = b"original blob"
        key = "ef" * 32
        store.put(key, data, blob_digest(data))
        (tmp_path / f"{key}.tar").write_bytes(b"corrupted on disk!")
        got, digest = store.get(key)
        assert blob_digest(got) != digest


# -- predict fields: the one reading of the wire, gateway and worker ---------


class TestPredictFields:
    INPUTS = '"inputs": {"x": [0.5, 0.25]}'

    def _fields(self, extra: str):
        return predict_fields(json.loads(f"{{{self.INPUTS}, {extra}}}"))

    def test_typed_fields_pass(self):
        inputs, deadline_ms, priority = self._fields(
            '"deadline_ms": 12.5, "priority": 2')
        assert inputs == {"x": [0.5, 0.25]}
        assert (deadline_ms, priority) == (12.5, 2)
        assert self._fields('"priority": 3.0')[2] == 3

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity",
                                     "true", '"250"'])
    def test_non_finite_deadline_is_a_protocol_error(self, raw):
        """Python's json reads the first three; as an EDF key NaN breaks
        the gateway's heap order for every other request of the model.
        A boolean is not 1 ms and a string is not parsed: a deadline is
        a finite number (:func:`repro.serve.check_deadline`)."""
        with pytest.raises(ProtocolError, match="deadline_ms"):
            self._fields(f'"deadline_ms": {raw}')

    @pytest.mark.parametrize("raw", ["true", "1.9", "Infinity", '"1"'])
    def test_priority_is_an_integer_not_truncated(self, raw):
        with pytest.raises(ProtocolError, match="must be an integer"):
            self._fields(f'"priority": {raw}')

    @pytest.mark.parametrize("deadline_ms", [math.nan, math.inf, "5",
                                             True])
    def test_gateway_refuses_a_non_finite_deadline(self, tmp_path,
                                                   deadline_ms):
        """``PumaFleet.predict`` applies the wire's deadline rule, and
        refuses before anything is queued or counted."""
        from repro.fleet import PumaFleet

        spec = FleetModelSpec("mlp", "mlp", {"dims": [8, 4]})

        async def main():
            fleet = PumaFleet([spec], work_dir=str(tmp_path))
            fleet._running = True      # no workers: nothing may queue
            state = fleet.models["mlp"]
            with pytest.raises(ValueError, match="finite"):
                await fleet.predict("mlp", {"x": [0.0] * 8},
                                    deadline_ms=deadline_ms)
            assert len(state.queue) == 0
            assert (state.served, state.failed, state.sheds,
                    state.rejections) == (0, 0, 0, 0)

        run(main())

    @pytest.mark.parametrize("priority", [1.9, True, "3", math.inf,
                                          math.nan])
    def test_gateway_refuses_a_priority_that_is_not_an_integer(
            self, tmp_path, priority):
        """``PumaFleet.predict`` applies the wire's priority rule, and
        refuses before anything is queued or counted."""
        from repro.fleet import PumaFleet

        spec = FleetModelSpec("mlp", "mlp", {"dims": [8, 4]})

        async def main():
            fleet = PumaFleet([spec], work_dir=str(tmp_path))
            fleet._running = True      # no workers: nothing may queue
            state = fleet.models["mlp"]
            with pytest.raises(ValueError, match="must be an integer"):
                await fleet.predict("mlp", {"x": [0.0] * 8},
                                    deadline_ms=-1.0, priority=priority)
            assert len(state.queue) == 0
            assert (state.served, state.failed, state.sheds,
                    state.rejections) == (0, 0, 0, 0)

        run(main())


    @pytest.mark.parametrize("bad", [[10**400], ["0.5"], [True], [None]],
                             ids=["huge-int", "string", "bool", "null"])
    def test_gateway_refuses_an_input_that_is_not_numbers(self, tmp_path,
                                                          bad):
        """The front door answers a vector that is not numbers with a
        400 (never a 500) before anything is queued or counted, and
        ``PumaFleet.predict`` refuses it with a ``ValueError``
        (:func:`repro.serve.check_vector`)."""
        from repro.fleet import PumaFleet

        spec = FleetModelSpec("mlp", "mlp", {"dims": [8, 4]})
        vector = bad + [0.0] * 7

        async def main():
            fleet = PumaFleet([spec], work_dir=str(tmp_path))
            fleet._running = True      # no workers: nothing may queue
            state = fleet.models["mlp"]
            response = await fleet._handle(HttpRequest(
                "POST", "/v1/predict", body=json.dumps(
                    {"model": "mlp", "inputs": {"x": vector}}).encode()))
            assert response.status == 400, response.body
            assert "integers or floats" in response.json()["error"]
            with pytest.raises(ValueError, match="integers or floats"):
                await fleet.predict("mlp", {"x": vector})
            assert len(state.queue) == 0
            assert (state.served, state.failed, state.sheds,
                    state.rejections) == (0, 0, 0, 0)

        run(main())


@pytest.mark.parametrize("door, path", [
    ("gateway", "/v1/predict"), ("worker", "/v1/predict"),
    ("worker", "/v1/models")])
def test_deeply_nested_body_is_a_400_at_both_doors(tmp_path, door, path):
    """A 100,000-deep body is a 400 ``bad_request`` at the gateway's
    front door and at a worker, never a 500."""
    from repro.fleet import PumaFleet

    async def main():
        if door == "gateway":
            fleet = PumaFleet([_EIGHT_IN], work_dir=str(tmp_path))
            fleet._running = True      # no workers: nothing may queue
            handle = fleet._handle
        else:
            handle = FleetWorker("w0", None, str(tmp_path)).handle
        return await handle(HttpRequest("POST", path, body=DEEP_JSON))

    response = run(main())
    assert response.status == 400, response.body
    assert response.json()["reason"] == "bad_request"


# -- the one EDF queue, at the gateway and in PumaServer --------------------

_EIGHT_IN = FleetModelSpec("mlp", "mlp", {"dims": [8, 4]})


def test_gateway_dispatches_in_edf_order(tmp_path):
    """Requests queued on one model leave for dispatch by
    ``(-priority, deadline, arrival)``: higher priority first,
    earlier deadline next, arrival order last.  Deadlines read a
    virtual clock, so none lapses while the test runs."""
    from repro.fleet import PumaFleet
    from repro.serve import VirtualClock

    # (label, priority, deadline_ms), in arrival order.
    queued = [("plain", 0, None), ("late", 0, 9000.0),
              ("urgent", 2, None), ("soon", 0, 500.0),
              ("urgent-soon", 2, 500.0), ("also-plain", 0, None),
              ("background", -1, 100.0), ("also-late", 0, 9000.0)]

    async def main():
        fleet = PumaFleet([_EIGHT_IN], work_dir=str(tmp_path),
                          max_batch_size=1, clock=VirtualClock())
        fleet._running = True      # no workers, no dispatchers yet
        state = fleet.models["mlp"]
        left = []

        async def record(state, riders):
            for rider in riders:
                left.append(queued[int(rider.payload["x"][0])][0])
                fleet._settle(state, rider, {"status": 200})

        fleet._dispatch_riders = record
        callers = [asyncio.create_task(fleet.predict(
            "mlp", {"x": [float(i)] * 8}, deadline_ms=deadline_ms,
            priority=priority))
            for i, (_label, priority, deadline_ms) in enumerate(queued)]
        await asyncio.sleep(0)
        assert len(state.queue) == len(queued)
        dispatcher = asyncio.create_task(fleet._dispatch_loop(state))
        await asyncio.gather(*callers)
        dispatcher.cancel()
        await asyncio.gather(dispatcher, return_exceptions=True)
        return left, state

    left, state = run(main())
    assert left == ["urgent-soon", "urgent", "soon", "late",
                    "also-late", "plain", "also-plain", "background"]
    assert (state.served, state.sheds) == (len(queued), 0)


class _ServerQueue:
    """A PumaServer whose passes wait at ``gate``."""

    def __init__(self, tmp_path, clock) -> None:
        from repro.serve import PumaServer

        self.server = PumaServer(build_engine(_EIGHT_IN), max_batch_size=2,
                                 clock=clock)
        self.queue = self.server.scheduler
        self.gate = asyncio.Event()

    async def start(self) -> None:
        await self.server.start()
        original = self.server._serve_batch

        async def gated():
            await self.gate.wait()
            return await original()

        self.server._serve_batch = gated

    async def admit(self, x, deadline_s) -> asyncio.Future:
        return self.server.admit({"x": x}, deadline_s=deadline_s)

    def consume(self) -> None:
        """The serve loop already runs."""

    async def stop_without_drain(self) -> None:
        self.gate.set()
        await self.server.stop(drain=False)


class _GatewayQueue:
    """One gateway model queue and one dispatcher whose exchanges wait
    at ``gate``; no workers."""

    def __init__(self, tmp_path, clock) -> None:
        from repro.fleet import PumaFleet

        self.fleet = PumaFleet([_EIGHT_IN], work_dir=str(tmp_path),
                               max_batch_size=2, clock=clock)
        self.state = self.fleet.models[_EIGHT_IN.name]
        self.queue = self.state.queue
        self.gate = asyncio.Event()

    async def start(self) -> None:
        self.fleet._running = True

        async def gated(state, riders):
            await self.gate.wait()
            for rider in riders:
                self.fleet._settle(state, rider, {"status": 200})

        self.fleet._dispatch_riders = gated

    async def admit(self, x, deadline_s) -> asyncio.Future:
        caller = asyncio.ensure_future(self.fleet.predict(
            _EIGHT_IN.name, {"x": x},
            deadline_ms=None if deadline_s is None else deadline_s * 1e3))
        await asyncio.sleep(0)
        return caller

    def consume(self) -> None:
        self.state.dispatchers.append(asyncio.create_task(
            self.fleet._dispatch_loop(self.state)))

    async def stop_without_drain(self) -> None:
        await self.fleet.stop(drain=False)


@pytest.fixture(params=[_ServerQueue, _GatewayQueue],
                ids=["PumaServer", "gateway"])
def edf_queue(request, tmp_path):
    """Each owner of the one EDF queue, with a clock to age deadlines."""
    from repro.serve import VirtualClock

    clock = VirtualClock()
    return request.param(tmp_path, clock), clock


def test_queue_conserves_every_request(edf_queue):
    """``admitted == dispatched + shed + drained + queued`` after every
    step, in ``PumaServer`` and at the gateway alike: six requests are
    queued, the two with a 1 s budget lapse and are shed, one batch of
    two is dispatched, and a stop without drain drains the last two."""
    owner, clock = edf_queue

    def balanced() -> bool:
        counters = owner.queue.counters
        return counters.admitted == (counters.dispatched + counters.shed
                                     + counters.drained + len(owner.queue))

    async def main():
        await owner.start()
        xs = np.linspace(-0.5, 0.5, 6 * 8).reshape(6, 8)
        callers = [await owner.admit(x.tolist(),
                                     1.0 if i in (1, 4) else None)
                   for i, x in enumerate(xs)]
        assert len(owner.queue) == 6 and balanced()
        await clock.advance(2.0)
        owner.consume()
        for _ in range(50):
            await asyncio.sleep(0)
        counters = owner.queue.counters
        assert (counters.shed, counters.dispatched, len(owner.queue)) == \
            (2, 2, 2)
        assert balanced()
        await owner.stop_without_drain()
        # Every caller is resolved: none is left awaiting.
        await asyncio.wait_for(
            asyncio.gather(*callers, return_exceptions=True), 10)
        assert (counters.drained, len(owner.queue)) == (2, 0)
        assert balanced()

    run(main())


# -- one real worker over real sockets ---------------------------------------


def _mini_store_server(blobs: BlobStore):
    """A gateway-shaped artifact plane for worker tests."""
    async def handler(request):
        key = request.path.rsplit("/", 1)[-1]
        if request.method == "GET":
            found = blobs.get(key)
            if found is None:
                return error_response(404, "no blob")
            return _blob_response(*found)
        if request.method == "PUT":
            declared = request.headers.get(SHA_HEADER.lower(), "")
            try:
                blobs.put(key, request.body, declared)
            except NetworkArtifactError as err:
                return error_response(400, str(err))
            return json_response({"ok": True}, status=201)
        return error_response(405, "GET/PUT only")

    return HttpServer(handler)


def _blob_response(data, digest):
    from repro.fleet.http import HttpResponse

    return HttpResponse(status=200,
                        headers={SHA_HEADER: digest}, body=data)


MLP_SPEC = FleetModelSpec("unit-mlp", "mlp", {"dims": [16, 8, 4]})


class TestFleetWorker:
    def test_cold_load_predict_and_metrics(self, tmp_path):
        async def main():
            blobs = BlobStore(tmp_path / "store")
            store = await _mini_store_server(blobs).start()
            worker = FleetWorker("w0", (store.host, store.port),
                                 str(tmp_path / "work"), max_batch_size=4)
            await worker.start()
            try:
                key = route_key(MLP_SPEC)
                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                response = await connection.request(
                    "POST", "/v1/models",
                    body=json.dumps({"spec": MLP_SPEC.to_dict(),
                                     "route_key": key}).encode())
                assert response.status == 200
                assert response.json()["source"] == "cold"
                # The cold build published its artifact blob.
                assert blobs.has(key)

                x = np.linspace(-1, 1, 16)
                response = await connection.request(
                    "POST", "/v1/predict",
                    body=json.dumps(
                        {"route_key": key,
                         "inputs": {"x": x.tolist()}}).encode())
                assert response.status == 200
                reply = response.json()
                reference = build_engine(MLP_SPEC).predict({"x": x})
                assert reply["words"]["out"] == \
                    reference["out"].tolist()
                assert reply["outputs"]["out"] == \
                    reference.outputs["out"].tolist()

                response = await connection.request("GET", "/metrics")
                metrics = response.json()
                model_metrics = metrics["models"][key]
                assert model_metrics["warm_start"] is False
                server_stats = model_metrics["server"]
                for section in ("tape_cache", "compile_cache",
                                "artifact_store"):
                    assert section in server_stats
                assert metrics["network_store"]["pushes"] == 1
                await connection.close()
            finally:
                await worker.close()
                await store.close()

        run(main())

    def test_warm_start_from_network_blob(self, tmp_path):
        async def main():
            blobs = BlobStore(tmp_path / "store")
            store = await _mini_store_server(blobs).start()
            key = route_key(MLP_SPEC)
            # Publish a real blob the way a prior cold worker would.
            engine = build_engine(MLP_SPEC,
                                  artifact_dir=str(tmp_path / "seed"))
            artifact = engine.ensure_artifacts(batch=4)
            blob = pack_artifact_dir(artifact)
            blobs.put(key, blob, blob_digest(blob))

            worker = FleetWorker("w1", (store.host, store.port),
                                 str(tmp_path / "work"), max_batch_size=4)
            await worker.start()
            try:
                result = await worker.load_model(key, MLP_SPEC)
                assert result["source"] == "network"
                assert result["warm_start"] is True
                assert worker.store_rejections == 0
                hosted = worker.hosted[key]
                x = np.linspace(-1, 1, 16)
                got = await hosted.server.submit({"x": x})
                reference = build_engine(MLP_SPEC).predict({"x": x})
                np.testing.assert_array_equal(got["out"],
                                              reference["out"])
            finally:
                await worker.close()
                await store.close()

        run(main())

    def test_corrupt_blob_rejected_then_cold_fallback(self, tmp_path):
        """The ISSUE's failure path: bad bytes never reach an engine."""
        async def main():
            blobs = BlobStore(tmp_path / "store")
            store = await _mini_store_server(blobs).start()
            key = route_key(MLP_SPEC)
            engine = build_engine(MLP_SPEC,
                                  artifact_dir=str(tmp_path / "seed"))
            blob = bytearray(pack_artifact_dir(
                engine.ensure_artifacts(batch=4)))
            good_digest = blob_digest(bytes(blob))
            blob[len(blob) // 2] ^= 0xFF                 # flip one byte
            # Shelve the corrupt bytes alongside the *original* digest —
            # exactly what on-disk corruption after a valid PUT looks
            # like (BlobStore.put would refuse a mismatched upload).
            blob_path = tmp_path / "store" / f"{key}.tar"
            digest_path = tmp_path / "store" / f"{key}.sha256"
            blob_path.write_bytes(bytes(blob))
            digest_path.write_text(good_digest)

            worker = FleetWorker("w2", (store.host, store.port),
                                 str(tmp_path / "work"), max_batch_size=4)
            await worker.start()
            try:
                result = await worker.load_model(key, MLP_SPEC)
                # Rejected by the integrity hash, then cold-compiled.
                assert worker.store_rejections == 1
                assert result["source"] == "cold"
                assert result["warm_start"] is False
                # And the answers are still bitwise right.
                x = np.linspace(-1, 1, 16)
                got = await worker.hosted[key].server.submit({"x": x})
                reference = build_engine(MLP_SPEC).predict({"x": x})
                np.testing.assert_array_equal(got["out"],
                                              reference["out"])
                # The repaired blob was pushed back over the bad one.
                data, digest = blobs.get(key)
                assert blob_digest(data) == digest
            finally:
                await worker.close()
                await store.close()

        run(main())

    def test_predict_unknown_model_409_and_bad_inputs_400(self, tmp_path):
        async def main():
            worker = FleetWorker("w3", None, str(tmp_path / "work"),
                                 max_batch_size=2)
            await worker.start()
            try:
                connection = HttpConnection(worker.http.host,
                                            worker.http.port)
                response = await connection.request(
                    "POST", "/v1/predict",
                    body=json.dumps({"route_key": "missing",
                                     "inputs": {}}).encode())
                assert response.status == 409

                key = route_key(MLP_SPEC)
                await worker.load_model(key, MLP_SPEC)
                response = await connection.request(
                    "POST", "/v1/predict",
                    body=json.dumps(
                        {"route_key": key,
                         "inputs": {"typo": [1.0]}}).encode())
                assert response.status == 400
                assert "typo" in response.json()["error"]
                await connection.close()
            finally:
                await worker.close()

        run(main())

    @pytest.mark.parametrize("spec", [
        {"kind": "mlp", "params": {"dims": "ab"}},
        {"kind": "mlp", "params": {"dims": [4, -1]}},
        {"kind": "lstm", "params": {"input_size": "x", "hidden_size": 4,
                                    "output_size": 2}},
        {"kind": "graph", "params": {"graph": 3}},
        {"kind": "mlp", "params": {"dims": [8, 4]},
         "crossbar": {"write_noise_sigma": "a"}},
    ], ids=["mlp-dims-str", "mlp-dims-negative", "lstm-input-str",
            "graph-not-object", "crossbar-sigma-str"])
    def test_a_spec_the_builder_refuses_is_a_400(self, tmp_path, spec):
        """A load body whose spec the builder refuses is a 400 naming
        the model; the worker hosts nothing, and a good spec then
        loads."""
        good = FleetModelSpec("good", "mlp", {"dims": [8, 4]})

        def load(spec_dict, key):
            return worker.handle(HttpRequest("POST", "/v1/models",
                                             body=json.dumps({
                                                 "spec": spec_dict,
                                                 "route_key": key}).encode()))

        worker = FleetWorker("w6", None, str(tmp_path / "work"),
                             max_batch_size=2)

        async def main():
            await worker.start()
            try:
                response = await load({"name": "bad", **spec}, "bad-key")
                assert response.status == 400, response.body
                assert "bad" in response.json()["error"]
                assert worker.hosted == {}
                response = await load(good.to_dict(), route_key(good))
                assert response.status == 200, response.body
                assert list(worker.hosted) == [route_key(good)]
            finally:
                await worker.close()

        run(main())

    def test_healthz_and_shutdown_endpoint(self, tmp_path):
        async def main():
            worker = FleetWorker("w4", None, str(tmp_path / "work"))
            await worker.start()
            connection = HttpConnection(worker.http.host, worker.http.port)
            response = await connection.request("GET", "/healthz")
            assert response.json()["ok"] is True
            response = await connection.request(
                "POST", "/v1/shutdown", body=b'{"drain": true}')
            assert response.json() == {"ok": True, "draining": True}
            await connection.close()
            await asyncio.wait_for(worker.run_until_shutdown(), timeout=10)

        run(main())

    def test_no_store_address_cold_builds(self, tmp_path):
        async def main():
            worker = FleetWorker("w5", None, str(tmp_path / "work"),
                                 max_batch_size=2)
            await worker.start()
            try:
                result = await worker.load_model(route_key(MLP_SPEC),
                                                 MLP_SPEC)
                assert result["source"] == "cold"
                assert worker.store_pulls == 0
            finally:
                await worker.close()

        run(main())


# -- gateway time: every deadline reads the injected clock -------------------


class TestGatewayClock:
    def test_stop_drain_bound_runs_on_the_injected_clock(self, tmp_path):
        """A lapsed drain bound fails queued work with FleetError, and
        the bound is measured on the fleet's clock: on a VirtualClock the
        drain parks until the test advances time, never on a wall-clock
        sleep."""
        import time

        from repro.fleet import FleetError, PumaFleet
        from repro.serve import VirtualClock

        spec = FleetModelSpec("mlp", "mlp", {"dims": [8, 4]})

        async def main():
            clock = VirtualClock()
            fleet = PumaFleet([spec], work_dir=str(tmp_path), clock=clock)
            # No workers and no dispatchers: queued work can only drain
            # by the bound lapsing.
            fleet._running = True
            queued = asyncio.create_task(
                fleet.predict("mlp", {"x": [0.0] * 8}))
            await asyncio.sleep(0)
            started = time.monotonic()
            stopping = asyncio.create_task(
                fleet.stop(drain=True, drain_timeout_s=5.0))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not stopping.done()
            assert clock.pending_sleepers == 1     # parked on virtual time
            await clock.advance(4.9)
            assert not stopping.done()             # bound not reached yet
            await clock.advance(0.2)
            await asyncio.wait_for(stopping, timeout=5.0)
            with pytest.raises(FleetError, match="stopped before"):
                await queued
            assert not fleet._running
            assert time.monotonic() - started < 2.0

        run(main())
