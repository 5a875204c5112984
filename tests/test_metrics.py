"""Unit tests for the gateway's metrics primitives.

The load-bearing regression here is :meth:`LatencyReservoir.summary`
taking its whole snapshot — counters *and* the sorted window — under a
single lock acquisition.  The old implementation acquired the lock three
times (once per percentile, once for the counters), so a ``record()``
landing between acquisitions produced a summary whose ``p50``/``p95``
described a different sample population than its ``count``/``mean``.
The ledger table is checked against the tests' own copy of the outcome
lists, and against every error code the protocol defines.
"""

import threading

from repro.service import GatewayMetrics, LatencyReservoir, protocol
from repro.service.metrics import (CODE_OUTCOMES, REQUESTS, SPECULATIVE,
                                   outcome_of)
from repro.service.protocol import (E_BAD_FRAME, E_BAD_REQUEST,
                                    E_UNSUPPORTED, error_frame)

from helpers import REQUEST_OUTCOMES, SPEC_OUTCOMES


class CountingLock:
    """A lock that counts how many times it was acquired."""

    def __init__(self):
        self._inner = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._inner.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._inner.release()


class TestLatencyReservoir:
    def test_summary_takes_exactly_one_lock_acquisition(self):
        """Pin the single-snapshot property: if summary() ever goes back
        to per-percentile locking, this counts it."""
        reservoir = LatencyReservoir()
        for i in range(10):
            reservoir.record(i / 1000.0)
        lock = CountingLock()
        reservoir._lock = lock
        summary = reservoir.summary()
        assert lock.acquisitions == 1
        assert summary["count"] == 10

    def test_summary_is_internally_consistent_under_recording(self):
        """Hammer record() from threads while summarizing: every summary
        must be self-consistent — its percentiles and mean come from the
        same instant as its count (never a None p50 with count > 0, never
        p50 > max)."""
        reservoir = LatencyReservoir(capacity=64)
        stop = threading.Event()
        bad = []

        def recorder(seed: int):
            value = seed
            while not stop.is_set():
                value = (value * 1103515245 + 12345) & 0x7FFFFFFF
                reservoir.record((value % 1000) / 1e6)

        threads = [threading.Thread(target=recorder, args=(i + 1,))
                   for i in range(3)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                summary = reservoir.summary()
                if summary["count"] == 0:
                    continue
                if summary["p50_ms"] is None or summary["p95_ms"] is None \
                        or summary["mean_ms"] is None \
                        or summary["max_ms"] is None:
                    bad.append(summary)
                elif not (summary["p50_ms"] <= summary["p95_ms"]
                          <= summary["max_ms"]):
                    bad.append(summary)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not bad, bad[:3]

    def test_empty_and_single_sample_summaries(self):
        reservoir = LatencyReservoir()
        empty = reservoir.summary()
        assert empty["count"] == 0
        assert empty["p50_ms"] is None and empty["mean_ms"] is None
        reservoir.record(0.002)
        one = reservoir.summary()
        assert one["count"] == 1
        assert one["p50_ms"] == one["p95_ms"] == one["max_ms"] == 2.0

    def test_percentile_window_is_bounded_but_totals_are_exact(self):
        reservoir = LatencyReservoir(capacity=4)
        for i in range(100):
            reservoir.record(0.001)
        summary = reservoir.summary()
        assert summary["count"] == 100            # lifetime-exact
        assert reservoir.percentile(50) == 0.001  # over the window


class TestGatewayMetrics:
    def test_snapshot_shape_and_counter_isolation(self):
        metrics = GatewayMetrics()
        metrics.incr("received", 3)
        metrics.incr("completed", 2)
        metrics.incr("warm_hits")
        metrics.warm_latency.record(0.001)
        snap = metrics.snapshot()
        assert snap["requests"]["received"] == 3
        assert snap["requests"]["completed"] == 2
        assert snap["latency"]["warm"]["count"] == 1
        assert snap["latency"]["cold"]["count"] == 0
        assert metrics.get("warm_hits") == 1

    def test_incr_is_thread_exact(self):
        metrics = GatewayMetrics()
        threads = [
            threading.Thread(
                target=lambda: [metrics.incr("received") for _ in range(500)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.get("received") == 4000


class TestLedgerTable:
    def test_table_equals_the_tests_own_lists(self):
        assert REQUESTS == ("received", REQUEST_OUTCOMES)
        assert SPECULATIVE == ("spec_enqueued", SPEC_OUTCOMES)
        snap = GatewayMetrics().snapshot()
        assert set(snap["requests"]) == {
            "received", *REQUEST_OUTCOMES, "connections_total", "admitted",
            "bad_requests", "disconnects", "worker_restarts"}
        assert set(snap["speculative"]) == {"spec_enqueued", *SPEC_OUTCOMES}

    def test_every_protocol_code_is_counted_or_frame_level(self):
        codes = {value for name, value in vars(protocol).items()
                 if name.startswith("E_")}
        frame_level = {E_BAD_FRAME, E_BAD_REQUEST, E_UNSUPPORTED}
        for code in codes:
            assert (code in CODE_OUTCOMES) != (code in frame_level), code
        assert set(CODE_OUTCOMES.values()) <= set(REQUEST_OUTCOMES)

    def test_answer_frames_settle_through_the_table(self):
        assert outcome_of({"ok": True, "cached": True}) == "warm_hits"
        assert outcome_of({"ok": True, "cached": False}) == "completed"
        for code, outcome in CODE_OUTCOMES.items():
            assert outcome_of(error_frame("compile", "r", code, "")) == outcome
        unknown = error_frame("compile", "r", "no-such-code", "")
        assert outcome_of(unknown) == "failed"
