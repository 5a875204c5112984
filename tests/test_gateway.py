"""Functional tests for the async compile gateway.

Fast battery (tier-1): protocol parsing, warm/cold lanes, streaming,
in-flight dedupe, admission control, cancellation, disconnect cleanup,
stats reconciliation, and one process-pool round trip with worker-death
recovery.  The 60-second churn/soak battery lives in
``test_gateway_soak.py`` behind ``-m slow``.

Most tests run the gateway in thread mode (``workers=0``) inside the
test's own event loop — no subprocesses, millisecond setup — because the
admission/fairness/dedupe logic is identical in both modes; process mode
gets its own dedicated tests at the bottom.
"""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.core import CompilationCancelled, compile_program
from repro.ir import parse_program
from repro.service import (
    CompileGateway,
    GatewayClient,
    GatewayConfig,
    ProtocolError,
    parse_request,
)
from repro.service.protocol import (
    E_BAD_SPEC,
    E_CANCELLED,
    E_OVERLOADED,
    E_UNSUPPORTED,
    decode_frame,
    encode_frame,
)

from helpers import ledger

SPEC_A = {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a"}
SPEC_B = {"text": "{(IZZ, -0.25), 0.7};", "label": "b"}
#: Heavy enough that cancellation can land between passes (~1s in thread
#: mode: a wide random SC compile with restarts).
SLOW_SPEC = {
    "benchmark": "Rand-30", "scale": "paper", "label": "slow",
}


def run(coro):
    return asyncio.run(coro)


async def make_gateway(tmp_path, **overrides):
    kwargs = dict(cache_root=str(tmp_path / "cache"), workers=0, port=0)
    kwargs.update(overrides)
    gateway = CompileGateway(GatewayConfig(**kwargs))
    await gateway.start()
    return gateway


class TestProtocol:
    def test_roundtrip_and_validation(self):
        frame = decode_frame(encode_frame({"op": "ping", "id": 3}))
        request = parse_request(frame)
        assert request.op == "ping" and request.id == "3"

        request = parse_request(
            {"op": "compile", "id": "x", "spec": {"text": "t"}})
        assert request.want == "metrics" and request.spec == {"text": "t"}

    @pytest.mark.parametrize("bad", [
        b"not json\n",
        b"[1, 2]\n",
        b'{"op": "nope", "id": "1"}',
        b'{"op": "compile"}',                      # no id
        b'{"op": "compile", "id": "1"}',           # no spec
        b'{"op": "compile", "id": "1", "spec": 4}',
        b'{"op": "compile", "id": "1", "spec": {}, "want": "everything"}',
        b'{"op": "cancel"}',
        b'{"op": "compile", "id": {"a": 1}, "spec": {}}',
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_salvages_request_id_for_error_correlation(self):
        try:
            parse_request(b'{"op": "warp", "id": "r9"}')
        except ProtocolError as exc:
            assert exc.request_id == "r9"
        else:  # pragma: no cover
            pytest.fail("expected ProtocolError")


class TestWarmColdLanes:
    def test_cold_then_warm_and_stats(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1")
            assert cold["ok"] and not cold["cached"]
            assert cold["metrics"]["cnot"] > 0
            warm = await client.compile(SPEC_A, "r2")
            assert warm["ok"] and warm["cached"]
            assert warm["fingerprint"] == cold["fingerprint"]
            assert warm["metrics"] == cold["metrics"]

            stats = await client.stats()
            assert stats["requests"]["received"] == 2
            assert stats["requests"]["warm_hits"] == 1
            assert stats["requests"]["completed"] == 1
            assert stats["queue"]["depth"] == 0
            assert stats["cache"]["hit_rate"] == 0.5
            await client.close()
            await gateway.close()

        run(scenario())

    def test_artifact_want_round_trips(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            response = await client.compile(SPEC_A, "r1", want="artifact")
            assert response["ok"]
            from repro.service import result_from_dict

            result = result_from_dict(response["artifact"])
            direct = compile_program(parse_program(SPEC_A["text"]))
            assert result.metrics == direct.metrics
            ack = await client.compile(SPEC_A, "r2", want="ack")
            assert ack["ok"] and "metrics" not in ack
            await client.close()
            await gateway.close()

        run(scenario())

    def test_warm_hits_answer_while_cold_compile_runs(self, tmp_path):
        """The streaming property: a hit is never queued behind a miss."""
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            await client.compile(SPEC_A, "seed")           # populate cache
            await client._send(
                {"op": "compile", "id": "cold", "spec": SLOW_SPEC})
            t0 = time.perf_counter()
            warm = await client.compile(SPEC_A, "warm", timeout=30)
            warm_latency = time.perf_counter() - t0
            assert warm["ok"] and warm["cached"]
            # The cold Rand-30 compile takes ~1s; the warm answer must
            # arrive while it still runs, not after it.
            assert warm_latency < 0.5
            cold = await client.request({"op": "ping", "id": "drain"},
                                        timeout=120)
            assert cold["op"] == "pong"
            slow = client._stash.pop("cold", None)
            if slow is None:
                slow = await client.request(
                    {"op": "compile", "id": "cold2", "spec": SLOW_SPEC},
                    timeout=120)
            assert slow["ok"]
            await client.close()
            await gateway.close()

        run(scenario())

    def test_corrupt_cached_artifact_heals_to_cold_compile(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            first = await client.compile(SPEC_A, "r1")
            gateway.cache.put(first["fingerprint"], "{ corrupt }")
            gateway._metrics_memo.clear()
            healed = await client.compile(SPEC_A, "r2")
            assert healed["ok"] and not healed["cached"]
            assert healed["metrics"] == first["metrics"]
            await client.close()
            await gateway.close()

        run(scenario())


class TestDedupeAndFairness:
    def test_identical_inflight_requests_compile_once(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            specs = [SPEC_B] * 6
            responses, _ = await client.run_specs(specs, window=6)
            assert all(r["ok"] for r in responses)
            fingerprints = {r["fingerprint"] for r in responses}
            assert len(fingerprints) == 1
            stats = await client.stats()
            # 6 admitted, 1 dispatch: the cache saw one miss and one put.
            assert stats["requests"]["admitted"] == 6
            assert stats["cache"]["puts"] == 1
            assert stats["requests"]["completed"] == 6
            await client.close()
            await gateway.close()

        run(scenario())

    def test_round_robin_interleaves_two_clients(self, tmp_path):
        """Client B's single job must not wait behind all of client A's
        queued flood (fairness: B's first dispatch happens before A's
        queue drains)."""
        async def scenario():
            gateway = await make_gateway(tmp_path, queue_limit=64)
            flooder = await GatewayClient.connect(port=gateway.port)
            light = await GatewayClient.connect(port=gateway.port)
            flood_specs = [
                {"text": f"{{(XYZII, 1.0), (ZZXII, 0.5), 0.{i+1}}};",
                 "label": f"flood{i}"}
                for i in range(5)
            ]
            for i, spec in enumerate(flood_specs):
                await flooder._send(
                    {"op": "compile", "id": f"f{i}", "spec": spec})
            response = await light.compile(SPEC_A, "light", timeout=60)
            assert response["ok"]
            completions = []

            async def drain_flood():
                got = 0
                while got < len(flood_specs):
                    frame = await flooder._read_frame()
                    if frame.get("op") == "compile":
                        completions.append(frame["id"])
                        got += 1

            await asyncio.wait_for(drain_flood(), 120)
            stats = await light.stats()
            assert stats["queue"]["depth"] == 0
            await flooder.close()
            await light.close()
            await gateway.close()

        run(scenario())


class TestAsyncSafety:
    """Regression tests for the event-loop discipline fixes flagged by
    ``tools/lint_repro.py`` (RS101): every disk touch in the gateway's
    async paths rides the executor, and the dedupe lane stays
    suspension-free between the in-flight probe and follower attach."""

    def test_disk_io_runs_off_the_event_loop(self, tmp_path):
        import threading

        async def scenario():
            loop_thread = threading.get_ident()
            threads = {}

            def spy(cache, name):
                original = getattr(cache, name)

                def wrapped(*args, _original=original, _name=name, **kwargs):
                    threads.setdefault(_name, set()).add(threading.get_ident())
                    return _original(*args, **kwargs)

                setattr(cache, name, wrapped)

            # First gateway: a cold compile exercises the publish path
            # (cache.put) and start/close exercise the tmp sweeps.
            gateway = CompileGateway(GatewayConfig(
                cache_root=str(tmp_path / "cache"), workers=0, port=0))
            for name in ("put", "get_disk", "sweep_stale_tmp"):
                spy(gateway.cache, name)
            await gateway.start()
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1")
            assert cold["ok"] and not cold["cached"]
            await client.close()
            await gateway.close()

            # Second gateway on the same store: memory tier is empty, so
            # the warm answer must come from the disk tier (get_disk).
            gateway = CompileGateway(GatewayConfig(
                cache_root=str(tmp_path / "cache"), workers=0, port=0))
            for name in ("put", "get_disk", "sweep_stale_tmp"):
                spy(gateway.cache, name)
            await gateway.start()
            client = await GatewayClient.connect(port=gateway.port)
            warm = await client.compile(SPEC_A, "r2")
            assert warm["ok"] and warm["cached"]
            await client.close()
            await gateway.close()

            for name in ("put", "get_disk", "sweep_stale_tmp"):
                assert threads.get(name), f"{name} was never exercised"
                assert loop_thread not in threads[name], (
                    f"cache.{name} ran on the event-loop thread")

        run(scenario())

    def test_followers_skip_the_disk_probe(self, tmp_path):
        """In-flight dedupe must not pay (or block on) a disk probe: an
        in-flight fingerprint cannot be on disk yet, and awaiting the
        probe would let followers observe the compile finishing and be
        answered warm — breaking admission atomicity (admitted == 6)."""
        async def scenario():
            gateway = await make_gateway(tmp_path)
            probes = []
            original = gateway.cache.get_disk

            def counting(fingerprint):
                probes.append(fingerprint)
                return original(fingerprint)

            gateway.cache.get_disk = counting
            client = await GatewayClient.connect(port=gateway.port)
            responses, _ = await client.run_specs([SPEC_B] * 6, window=6)
            assert all(r and r["ok"] for r in responses)
            stats = await client.stats()
            assert stats["requests"]["admitted"] == 6
            assert stats["cache"]["puts"] == 1
            # Only the leader may probe the disk tier; the five followers
            # attach to the in-flight job without suspending.
            assert len(probes) <= 1
            await client.close()
            await gateway.close()

        run(scenario())

    def test_cancel_flag_withdrawal_offloaded(self, tmp_path):
        """The cancel-flag unlink in the dispatch/finish paths is disk
        I/O too; it must ride the executor, not run inline on the loop."""
        import threading

        from repro.service import gateway as gateway_module

        async def scenario():
            loop_thread = threading.get_ident()
            seen = set()
            original = gateway_module._withdraw_cancel_flag

            def recording(path):
                seen.add(threading.get_ident())
                return original(path)

            gateway_module._withdraw_cancel_flag = recording
            try:
                gateway = await make_gateway(tmp_path)
                client = await GatewayClient.connect(port=gateway.port)
                response = await client.compile(SPEC_A, "r1")
                assert response["ok"]
                await client.close()
                await gateway.close()
            finally:
                gateway_module._withdraw_cancel_flag = original
            assert seen, "cancel-flag withdrawal was never exercised"
            assert loop_thread not in seen

        run(scenario())

    def test_cancel_flag_raise_offloaded(self, tmp_path, monkeypatch):
        """Raising a running job's cancel flag touches a file; from the
        cancel verb and from a disconnect alike it must ride the
        executor."""
        import threading

        from repro.service import gateway as gateway_module
        from repro.service.batch import Compiled

        seen = []
        original = gateway_module._raise_cancel_flag

        def recording(*paths):
            seen.append(threading.get_ident())
            return original(*paths)

        def until_cancelled(job, store):
            deadline = time.monotonic() + 30
            while not os.path.exists(job.cancel_path):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            return Compiled(None, 0.0, None, False, {}, os.getpid())

        monkeypatch.setattr(gateway_module, "_raise_cancel_flag", recording)
        monkeypatch.setattr(gateway_module, "compile_and_publish",
                            until_cancelled)

        async def scenario():
            loop_thread = threading.get_ident()
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)

            async def in_flight(count):
                stats = await client.stats()
                return stats["queue"]["in_flight"] == count

            await client._send({"op": "compile", "id": "r1", "spec": SPEC_A})
            await wait_until(lambda: in_flight(1))
            ack = await client.cancel("r1")
            assert ack["state"] == "in-flight"
            await wait_until(lambda: in_flight(0))
            assert seen, "the cancel verb raised no flag"
            assert loop_thread not in seen
            seen.clear()

            rude = await GatewayClient.connect(port=gateway.port)
            await rude._send({"op": "compile", "id": "r2", "spec": SPEC_B})
            await wait_until(lambda: in_flight(1))
            await rude.close()
            await wait_until(lambda: in_flight(0))
            assert seen, "the disconnect raised no flag"
            assert loop_thread not in seen
            await client.close()
            await gateway.close()

        run(scenario())


class TestAdmissionControl:
    def test_per_client_limit_rejects_with_overloaded(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(
                tmp_path, per_client_limit=2, queue_limit=64)
            client = await GatewayClient.connect(port=gateway.port)
            # Distinct cold programs so nothing dedupes; the first is slow
            # enough that the client's unanswered count stays at the cap
            # while the later frames arrive.
            await client._send({"op": "compile", "id": "r0",
                                "spec": SLOW_SPEC})
            for i in range(1, 3):
                await client._send({
                    "op": "compile", "id": f"r{i}",
                    "spec": {"text": f"{{(XXIII, 1.0), 0.{i+1}}};"},
                })
            rejected = None
            answered = 0
            while answered < 3:
                frame = await asyncio.wait_for(client._read_frame(), 60)
                if frame.get("op") != "compile":
                    continue
                answered += 1
                if not frame["ok"]:
                    rejected = frame
            assert rejected is not None
            assert rejected["code"] == E_OVERLOADED
            stats = await client.stats()
            assert stats["requests"]["rejected"] == 1
            assert stats["requests"]["admitted"] == 2
            await client.close()
            await gateway.close()

        run(scenario())

    def test_queue_limit_rejects_across_clients(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(
                tmp_path, queue_limit=1, per_client_limit=16)
            a = await GatewayClient.connect(port=gateway.port)
            b = await GatewayClient.connect(port=gateway.port)

            async def wait_for(predicate):
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    stats = await b.stats()
                    if predicate(stats["queue"]):
                        return
                    await asyncio.sleep(0.02)
                pytest.fail("queue never reached the expected state")

            await a._send({"op": "compile", "id": "a0", "spec": SLOW_SPEC})
            await wait_for(lambda q: q["in_flight"] == 1)
            await a._send({
                "op": "compile", "id": "a1",
                "spec": {"text": "{(YYYY, 1.0), 0.5};"},
            })
            await wait_for(lambda q: q["depth"] == 1)
            response = await b.compile(
                {"text": "{(ZZZZZ, 1.0), 0.5};"}, "b0", timeout=5)
            assert not response["ok"] and response["code"] == E_OVERLOADED
            await a.close()
            await b.close()
            await gateway.close()

        run(scenario())

    def test_cancel_frees_queue_capacity_immediately(self, tmp_path):
        """Regression: cancelled undispatched jobs must leave the queue at
        once, not squat on queue_limit until a compile slot frees."""
        async def scenario():
            gateway = await make_gateway(
                tmp_path, queue_limit=2, per_client_limit=16)
            a = await GatewayClient.connect(port=gateway.port)
            b = await GatewayClient.connect(port=gateway.port)

            await a._send({"op": "compile", "id": "busy", "spec": SLOW_SPEC})
            deadline = time.monotonic() + 60
            while (await b.stats())["queue"]["in_flight"] != 1:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            # Fill the queue, then cancel everything in it.
            for i in range(2):
                await a._send({"op": "compile", "id": f"q{i}",
                               "spec": {"text": f"{{(XXYY, 1.0), 0.{i+1}}};"}})
            while (await b.stats())["queue"]["depth"] != 2:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            for i in range(2):
                await a.cancel(f"q{i}")
            stats = await b.stats()
            assert stats["queue"]["depth"] == 0
            # Another client's request is admitted while `busy` still runs.
            response = await b.compile(
                {"text": "{(ZZXX, 1.0), 0.5};"}, "b0", timeout=120)
            assert response["ok"]
            await a.close()
            await b.close()
            await gateway.close()

        run(scenario())

    def test_bad_spec_is_answered_not_fatal(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            bad = await client.compile({"benchmark": "No-Such"}, "r1")
            assert not bad["ok"] and bad["code"] == E_BAD_SPEC
            bad2 = await client.compile({"label": "nothing"}, "r2")
            assert not bad2["ok"] and bad2["code"] == E_BAD_SPEC
            good = await client.compile(SPEC_A, "r3")
            assert good["ok"]
            await client.close()
            await gateway.close()

        run(scenario())

    def test_malformed_frame_keeps_connection_alive(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            client._writer.write(b"this is not json\n")
            await client._writer.drain()
            error = await asyncio.wait_for(client._read_frame(), 10)
            assert error["ok"] is False and error["code"] == "bad-frame"
            good = await client.compile(SPEC_A, "r1")
            assert good["ok"]
            await client.close()
            await gateway.close()

        run(scenario())


class TestCancellation:
    def test_cancel_verb_before_dispatch(self, tmp_path):
        async def scenario():
            # queue_limit high, but thread mode has one compile slot: the
            # second job sits queued long enough to cancel.
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            await client._send({"op": "compile", "id": "busy",
                                "spec": SLOW_SPEC})
            await client._send({"op": "compile", "id": "victim",
                                "spec": {"text": "{(XXXXX, 1.0), 0.5};"}})
            ack = await client.cancel("victim")
            assert ack["ok"]
            victim = client._stash.pop("victim", None)
            while victim is None:
                frame = await asyncio.wait_for(client._read_frame(), 120)
                if str(frame.get("id")) == "victim":
                    victim = frame
                    break
            assert victim["ok"] is False and victim["code"] == E_CANCELLED
            # The busy job still completes.
            while True:
                busy = client._stash.pop("busy", None)
                if busy is not None:
                    break
                frame = await asyncio.wait_for(client._read_frame(), 120)
                if str(frame.get("id")) == "busy":
                    busy = frame
                    break
                client._stash[str(frame.get("id"))] = frame
            assert busy["ok"]
            stats = await client.stats()
            assert stats["requests"]["cancelled"] == 1
            await client.close()
            await gateway.close()

        run(scenario())

    def test_disconnect_cancels_pending_work(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            rude = await GatewayClient.connect(port=gateway.port)
            await rude._send({"op": "compile", "id": "d0", "spec": SLOW_SPEC})
            await rude._send({
                "op": "compile", "id": "d1",
                "spec": {"text": "{(YYYYY, 1.0), 0.5};"},
            })
            await asyncio.sleep(0.1)
            await rude.close()   # walk away mid-compile

            watcher = await GatewayClient.connect(port=gateway.port)
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                stats = await watcher.stats()
                # Wait until the disconnect has been *observed* (the rude
                # client's frames may still be resolving) and everything
                # it abandoned has drained.
                if (stats["requests"]["disconnects"] >= 1
                        and stats["requests"]["cancelled"] >= 2
                        and stats["queue"]["depth"] == 0
                        and stats["queue"]["in_flight"] == 0):
                    break
                await asyncio.sleep(0.1)
            assert stats["queue"]["depth"] == 0
            assert stats["queue"]["in_flight"] == 0
            assert stats["requests"]["disconnects"] == 1
            assert stats["requests"]["cancelled"] == 2
            await watcher.close()
            await gateway.close()

        run(scenario())

    def test_compile_program_cancel_hook(self):
        program = parse_program(SPEC_A["text"])
        with pytest.raises(CompilationCancelled):
            compile_program(program, cancel=lambda: True)
        calls = []

        def cancel():
            calls.append(1)
            return False

        result = compile_program(program, cancel=cancel)
        assert result.circuit.cnot_count > 0
        assert len(calls) >= 2   # entry + at least one pass boundary

    def test_sc_cancel_between_restarts(self):
        from repro.core import sc_compile
        from repro.transpile import linear

        program = parse_program("{(ZIIZ, 1.0), 0.5};\n{(XXII, -0.5), 0.3};")
        fired = iter([False, False, True])
        with pytest.raises(CompilationCancelled):
            sc_compile(program, linear(4), restarts=50,
                       cancel=lambda: next(fired, True))


class TestClientWaits:
    def test_cancel_ack_and_compile_answer_are_stashed_apart(self, tmp_path):
        """A cancel ack shares its id with the compile answer it trails;
        frames read while waiting for something else must keep both, and
        cancel() must find its ack in the stash."""
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            await client._send({"op": "compile", "id": "victim",
                                "spec": {"text": "{(XXXXX, 1.0), 0.5};"}})
            await client._send({"op": "cancel", "id": "victim"})
            # The gateway answers frames in order: the victim's cancelled
            # compile and its cancel ack both arrive before the pong.
            assert (await client.ping())["ok"]
            ack = await client.cancel("victim", timeout=10)
            assert ack["op"] == "cancel"
            assert ack["state"] in ("cancelled", "in-flight")
            answer = client._stash.pop("victim")
            assert answer["op"] == "compile"
            assert answer["code"] == E_CANCELLED
            await client.close()
            await gateway.close(drain=False)

        run(scenario())

    def test_every_wait_times_out_naming_the_id(self):
        async def silent(reader, writer):
            writer.write(encode_frame({"op": "hello", "proto": 1,
                                       "server": "silent"}))
            await writer.drain()
            await reader.read()

        async def scenario():
            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await GatewayClient.connect(port=port)
            try:
                with pytest.raises(TimeoutError,
                                   match="no cancel ack for id 'r9'"):
                    await client.cancel("r9", timeout=0.2)
                with pytest.raises(TimeoutError,
                                   match="no upgrade frame for id 'r9'"):
                    await client.wait_upgrade("r9", timeout=0.2)
                with pytest.raises(TimeoutError,
                                   match="no response for id '_ping'"):
                    await client.ping(timeout=0.2)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(scenario())


class TestShutdownVerb:
    def test_disabled_by_default(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)
            client = await GatewayClient.connect(port=gateway.port)
            refused = await client.request({"op": "shutdown", "id": "x"})
            assert refused["ok"] is False
            assert refused["code"] == E_UNSUPPORTED
            assert not gateway.shutdown_requested.is_set()
            await client.close()
            await gateway.close()

        run(scenario())

    def test_allowed_when_configured(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, allow_shutdown=True)
            client = await GatewayClient.connect(port=gateway.port)
            accepted = await client.request({"op": "shutdown", "id": "x"})
            assert accepted["ok"]
            await asyncio.wait_for(gateway.shutdown_requested.wait(), 5)
            await client.close()
            await gateway.close()

        run(scenario())


class TestStatsReconciliation:
    def test_every_received_request_has_exactly_one_outcome(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, per_client_limit=2)
            client = await GatewayClient.connect(port=gateway.port)
            await client.compile(SPEC_A, "c1")          # cold -> completed
            await client.compile(SPEC_A, "c2")          # warm hit
            await client.compile({"text": "???"}, "c3")  # bad spec
            responses, _ = await client.run_specs(
                [{"text": f"{{(XZXZX, 1.0), 0.{i+1}}};"} for i in range(4)],
                window=4, id_prefix="burst",
            )   # 2 admitted, 2 rejected by per-client limit
            stats = await client.stats()
            req = stats["requests"]
            assert ledger(req) == 0
            assert stats["queue"]["depth"] == 0
            assert stats["queue"]["in_flight"] == 0
            await client.close()
            await gateway.close()

        run(scenario())


async def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if await predicate():
            return
        await asyncio.sleep(0.02)
    raise TimeoutError("condition not reached")


class TestSpeculativeLane:
    """Tiered speculation: opt-1 now, opt-3 in the background.

    Thread mode (one compile slot) makes the lane's priority rules
    observable: the background job can only hold the slot when no cold
    work wants it.
    """

    def test_cold_answers_at_opt1_then_upgrade_lands(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1", want_upgrade=True)
            assert cold["ok"] and not cold["cached"]
            assert cold["tier"] == "opt1"

            push = await client.wait_upgrade("r1", timeout=60)
            assert push["ok"] and push["tier"] == "full"
            assert push["fingerprint"] == cold["fingerprint"]
            assert push["upgrade_ms"] >= 0

            # The cache entry was upgraded in place: a warm hit now
            # serves the full artifact under the same fingerprint.
            warm = await client.compile(SPEC_A, "r2")
            assert warm["cached"]
            assert warm["fingerprint"] == cold["fingerprint"]
            assert warm["tier"] == "full"

            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["enabled"] and spec["spec_enqueued"] == 1
            assert spec["spec_upgraded"] == 1
            assert ledger(spec, "spec_enqueued") == 0
            assert stats["latency"]["upgrade"]["count"] == 1
            assert stats["cache"]["upgraded"] == 1
            # The request ledger is untouched by the background lane.
            req = stats["requests"]
            assert req["received"] == 2
            assert req["completed"] == 1 and req["warm_hits"] == 1
            await client.close()
            await gateway.close()

        run(scenario())

    def test_upgrade_frames_are_strictly_opt_in(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1")   # no want_upgrade
            assert cold["tier"] == "opt1"

            async def upgraded():
                stats = await client.stats()
                return stats["speculative"]["spec_upgraded"] == 1

            await wait_until(upgraded)
            # The background job ran to completion, but this client never
            # subscribed: no upgrade frame may have been pushed at it
            # (a frame here would desynchronize pipelined clients).
            await client.ping()                         # flush the stream
            assert not any(k.startswith("upgrade:") for k in client._stash)
            await client.close()
            await gateway.close()

        run(scenario())

    def test_speculation_off_means_full_tier_and_no_jobs(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path)      # speculate=False
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1", want_upgrade=True)
            assert cold["ok"] and cold["tier"] == "full"
            stats = await client.stats()
            spec = stats["speculative"]
            assert not spec["enabled"] and spec["spec_enqueued"] == 0
            await client.close()
            await gateway.close()

        run(scenario())

    def test_cancel_mid_upgrade_withdraws_the_background_job(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            # A heavy program: the opt-3 recompile takes long enough that
            # the cancel lands while it is queued or mid-compile.
            cold = await client.compile(SLOW_SPEC, "r1", want_upgrade=True,
                                        timeout=240)
            assert cold["ok"] and cold["tier"] == "opt1"
            ack = await client.cancel("r1")
            assert ack["state"] == "upgrade-cancelled"

            async def settled():
                stats = await client.stats()
                spec = stats["speculative"]
                return ledger(spec, "spec_enqueued") == 0 and \
                    spec["in_flight"] == 0 and spec["queued"] == 0

            await wait_until(settled, timeout=120)
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_enqueued"] == 1
            assert spec["spec_cancelled"] == 1
            assert spec["spec_upgraded"] == 0
            await client.close()
            await gateway.close()

        run(scenario())

    def test_disconnect_withdraws_the_background_job(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SLOW_SPEC, "r1", want_upgrade=True,
                                        timeout=240)
            assert cold["tier"] == "opt1"
            await client.close()                        # walk away

            watcher = await GatewayClient.connect(port=gateway.port)

            async def settled():
                stats = await watcher.stats()
                spec = stats["speculative"]
                return ledger(spec, "spec_enqueued") == 0 and \
                    spec["in_flight"] == 0 and spec["queued"] == 0

            await wait_until(settled, timeout=120)
            stats = await watcher.stats()
            spec = stats["speculative"]
            assert spec["spec_cancelled"] == 1
            assert spec["spec_upgraded"] == 0
            await watcher.close()
            await gateway.close()

        run(scenario())

    def test_cold_arrival_preempts_a_running_upgrade(self, tmp_path):
        """Strict priority in the single-slot thread mode: a cold request
        arriving while the background job holds the only compile slot
        must still complete (the upgrade yields and requeues), and the
        preempted job still reaches exactly one terminal outcome."""
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            first = await client.compile(SLOW_SPEC, "r1", timeout=240)
            assert first["tier"] == "opt1"

            # Let the heavy background recompile claim the slot...
            async def spec_holds_slot():
                stats = await client.stats()
                return stats["speculative"]["in_flight"] == 1

            await wait_until(spec_holds_slot, timeout=60)
            # ...then demand cold service.  Without preemption this would
            # block for the whole opt-3 compile; with it the job yields.
            cold = await client.compile(SPEC_B, "r2", timeout=240)
            assert cold["ok"] and cold["tier"] == "opt1"

            async def settled():
                stats = await client.stats()
                spec = stats["speculative"]
                return ledger(spec, "spec_enqueued") == 0 and \
                    spec["in_flight"] == 0 and spec["queued"] == 0

            await wait_until(settled, timeout=240)
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_enqueued"] == 2           # r1's and r2's
            assert ledger(spec, "spec_enqueued") == 0
            assert stats["requests"]["completed"] == 2
            await client.close()
            await gateway.close()

        run(scenario())

    def test_cold_arrival_wakes_a_parked_dispatcher(self, tmp_path,
                                                    monkeypatch):
        """With every slot held, the dispatcher parks; a cold arrival
        must wake it to preempt the upgrade, not wait for a slot to free.
        The upgrade here yields only to its cancel flag."""
        from repro.service import gateway as gateway_module
        from repro.service.batch import TIER_UPGRADE, Compiled

        real = gateway_module.compile_and_publish

        def stubborn(job, store):
            deadline = time.monotonic() + 30
            while job.tier == TIER_UPGRADE:
                if os.path.exists(job.cancel_path) or \
                        time.monotonic() > deadline:
                    return Compiled(None, 0.0, None, False, {}, os.getpid())
                time.sleep(0.005)
            return real(job, store)

        monkeypatch.setattr(gateway_module, "compile_and_publish", stubborn)

        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            await client.compile(SPEC_A, "r1")

            async def spec_holds_slot():
                stats = await client.stats()
                return stats["speculative"]["in_flight"] == 1

            await wait_until(spec_holds_slot)
            started = time.monotonic()
            cold = await client.compile(SPEC_B, "r2", timeout=60)
            assert cold["ok"]
            assert time.monotonic() - started < 10
            await client.close()
            await gateway.close()

        run(scenario())

    def test_budget_cap_drops_overflow_without_buffering(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True,
                                         speculative_limit=0)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1")
            assert cold["tier"] == "opt1"               # answer unaffected
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_enqueued"] == 1
            assert spec["spec_dropped"] == 1
            assert ledger(spec, "spec_enqueued") == 0
            assert spec["queued"] == 0
            await client.close()
            await gateway.close()

        run(scenario())

    def test_warm_hit_on_fast_artifact_respeculates(self, tmp_path):
        """An opt-1 artifact stranded in the cache (its upgrade was
        dropped) is re-speculated by the next warm hit, so the store
        converges to full tier without a cold miss."""
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True,
                                         speculative_limit=0)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1")
            assert cold["tier"] == "opt1"               # upgrade dropped
            gateway.config.speculative_limit = 8        # budget restored
            warm = await client.compile(SPEC_A, "r2", want_upgrade=True)
            assert warm["cached"] and warm["tier"] == "opt1"
            push = await client.wait_upgrade("r2", timeout=60)
            assert push["ok"] and push["tier"] == "full"
            final = await client.compile(SPEC_A, "r3")
            assert final["cached"] and final["tier"] == "full"
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_enqueued"] == 2           # dropped + landed
            assert spec["spec_dropped"] == 1
            assert spec["spec_upgraded"] == 1
            assert ledger(spec, "spec_enqueued") == 0
            await client.close()
            await gateway.close()

        run(scenario())

    def test_duplicate_speculation_merges_into_one_job(self, tmp_path):
        """Two subscribed requests for one fingerprint share one
        background job — and both get their push frame."""
        async def scenario():
            gateway = await make_gateway(tmp_path, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SLOW_SPEC, "r1", want_upgrade=True,
                                        timeout=240)
            assert cold["tier"] == "opt1"
            warm = await client.compile(SLOW_SPEC, "r2", want_upgrade=True,
                                        timeout=240)
            assert warm["cached"] and warm["tier"] == "opt1"
            first = await client.wait_upgrade("r1", timeout=240)
            second = await client.wait_upgrade("r2", timeout=240)
            assert first["ok"] and second["ok"]
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_upgraded"] == 1           # one shared job
            assert ledger(spec, "spec_enqueued") == 0
            await client.close()
            await gateway.close()

        run(scenario())


class TestProcessMode:
    """One spawn-pool round trip and the worker-death recovery path.

    Slower (pool spawn ≈ 1-2 s) so kept to two tests; the soak battery
    exercises this mode under churn.
    """

    def test_process_pool_compile_and_shared_store_stats(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, workers=1)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1", timeout=240)
            assert cold["ok"] and not cold["cached"]
            warm = await client.compile(SPEC_A, "r2")
            assert warm["cached"]
            stats = await client.stats()
            assert stats["workers"]["mode"] == "process"
            assert stats["workers"]["pids"]
            assert stats["per_worker"]
            # Shared-store accounting: the worker's put was absorbed, the
            # parent only promoted (no double-counted put).
            assert stats["cache"]["puts"] == 1
            # The parent's probe is the only lookup per request: the
            # worker compiles cache-less, so the cold miss counts once.
            assert stats["cache"]["misses"] == 1
            assert stats["cache"]["lookups"] == 2
            assert stats["cache"]["hit_rate"] == 0.5
            await client.close()
            await gateway.close()
            # Clean shutdown leaves no pool workers behind.
            for pid in stats["workers"]["pids"]:
                with pytest.raises(OSError):
                    os.kill(pid, 0)

        run(scenario())

    def test_shared_store_upgrade_lands_via_worker_cas(self, tmp_path):
        """Process mode: the worker performs the compare-and-swap against
        the shared store itself and reports whether the upgrade landed."""
        async def scenario():
            gateway = await make_gateway(tmp_path, workers=1, speculate=True)
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(SPEC_A, "r1", want_upgrade=True,
                                        timeout=240)
            assert cold["ok"] and cold["tier"] == "opt1"
            push = await client.wait_upgrade("r1", timeout=240)
            assert push["ok"] and push["tier"] == "full"
            warm = await client.compile(SPEC_A, "r2")
            assert warm["cached"] and warm["tier"] == "full"
            stats = await client.stats()
            spec = stats["speculative"]
            assert spec["spec_upgraded"] == 1
            assert ledger(spec, "spec_enqueued") == 0
            # Shared-store ledger: one worker put (the opt-1 publish) and
            # one worker upgrade, each absorbed exactly once.
            assert stats["cache"]["puts"] == 1
            assert stats["cache"]["upgraded"] == 1
            await client.close()
            await gateway.close()

        run(scenario())

    def test_worker_death_recovers_and_is_counted(self, tmp_path):
        async def scenario():
            gateway = await make_gateway(tmp_path, workers=1)
            client = await GatewayClient.connect(port=gateway.port)
            await client.compile(SPEC_A, "r1", timeout=240)
            stats = await client.stats()
            os.kill(stats["workers"]["pids"][0], signal.SIGKILL)
            await asyncio.sleep(0.1)
            after = await client.compile(SPEC_B, "r2", timeout=240)
            assert after["ok"]
            stats = await client.stats()
            assert stats["requests"]["failed"] == 0
            assert stats["workers"]["restarts"] >= 1
            await client.close()
            await gateway.close()

        run(scenario())
