"""Concurrency property tests for the content-addressed cache.

The store's contract under contention: N threads sharing one
:class:`CompileCache` plus M separate *processes* opening the same disk
root may interleave get/put/discard arbitrarily and

* never expose a torn artifact — every successful read is byte-identical
  to what some writer wrote for that key (content-addressing makes that
  value unique per key);
* never lose a write — after the storm, every key that was ever put is
  readable from the shared root;
* never miscount — each cache's stats ledger balances exactly against
  the operations performed on it.

Values are derived deterministically from keys so corruption is
detectable: ``value_for(key)`` embeds the key and enough padding to span
multiple filesystem blocks (torn writes would truncate mid-padding).
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import CacheStats, CompileCache

SRC = str(Path(__file__).resolve().parent.parent / "src")


def key_for(i: int) -> str:
    return f"{i:02x}" + f"{i:062x}"


def value_for(key: str) -> str:
    return json.dumps({"key": key, "pad": key * 40})


class TestThreadContention:
    def test_hammered_store_stays_exact(self, tmp_path):
        """8 threads x mixed get/put over 32 keys: no torn reads, no lost
        writes, stats ledger balances."""
        cache = CompileCache(tmp_path, memory_entries=8)
        keys = [key_for(i) for i in range(32)]
        ops_per_thread = 150
        threads = 8
        errors = []
        gets = puts = 0
        count_lock = threading.Lock()

        def worker(seed: int):
            nonlocal gets, puts
            my_gets = my_puts = 0
            state = seed
            for step in range(ops_per_thread):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                key = keys[state % len(keys)]
                if state % 3 == 0:
                    cache.put(key, value_for(key))
                    my_puts += 1
                else:
                    text = cache.get(key)
                    my_gets += 1
                    if text is not None and text != value_for(key):
                        errors.append((key, text[:80]))
            with count_lock:
                gets += my_gets
                puts += my_puts

        pool = [threading.Thread(target=worker, args=(i + 1,))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert not errors, f"torn/corrupt reads: {errors[:3]}"
        stats = cache.stats.as_dict()
        assert stats["puts"] == puts
        assert stats["lookups"] == gets
        assert stats["hits"] + stats["misses"] == gets
        # No lost writes: every key that was ever put reads back exactly.
        written = {k for k in keys if (tmp_path / k[:2] / f"{k[2:]}.json").exists()}
        for key in written:
            assert cache.get(key) == value_for(key)
        # No temp droppings left by the atomic publish path.
        assert not list(tmp_path.rglob("*.tmp"))

    def test_discard_and_clear_under_contention(self, tmp_path):
        """Adding discard/clear_memory to the mix: reads still see either
        the exact value or a clean miss, never garbage; the store stays
        structurally sound."""
        cache = CompileCache(tmp_path, memory_entries=4)
        keys = [key_for(i) for i in range(8)]
        errors = []

        def churn(seed: int):
            state = seed
            for _ in range(200):
                state = (state * 1103515245 + 12345) & 0x7FFFFFFF
                key = keys[state % len(keys)]
                action = state % 5
                if action <= 1:
                    cache.put(key, value_for(key))
                elif action == 2:
                    cache.discard(key)
                elif action == 3:
                    cache.clear_memory()
                else:
                    text = cache.get(key)
                    if text is not None and text != value_for(key):
                        errors.append(key)

        pool = [threading.Thread(target=churn, args=(i + 7,)) for i in range(6)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert not errors
        # Structural soundness: every surviving artifact parses and matches.
        for fingerprint in cache.iter_fingerprints():
            text = cache.get(fingerprint)
            if text is not None:   # a racing discard may still win
                assert text == value_for(fingerprint)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_sweep_stale_tmp_removes_only_orphans(self, tmp_path):
        """A writer SIGKILLed between mkstemp and publish leaves a .tmp;
        the sweep removes aged orphans without touching fresh ones or
        published artifacts."""
        cache = CompileCache(tmp_path)
        key = key_for(1)
        cache.put(key, value_for(key))
        orphan = tmp_path / key[:2] / "dead-writer.tmp"
        orphan.write_text("half an artifa")
        os.utime(orphan, (1, 1))                       # ancient
        fresh = tmp_path / key[:2] / "live-writer.tmp"
        fresh.write_text("in flight")
        # Pid-attributed files: a live writer's survives any age cutoff, a
        # dead writer's goes immediately.
        live_pid = tmp_path / key[:2] / f"pub-{os.getpid()}-abc.tmp"
        live_pid.write_text("mine, in flight")
        os.utime(live_pid, (1, 1))
        dead_pid = tmp_path / key[:2] / "pub-999999999-abc.tmp"
        dead_pid.write_text("killed writer")
        assert cache.sweep_stale_tmp(max_age_seconds=60) == 2
        assert not orphan.exists() and not dead_pid.exists()
        assert fresh.exists() and live_pid.exists()
        assert cache.get(key) == value_for(key)
        assert cache.sweep_stale_tmp(max_age_seconds=0.0) == 1
        assert not fresh.exists() and live_pid.exists()

    def test_stats_absorb_is_atomic_across_threads(self):
        """Concurrent absorb() calls must not lose increments."""
        total = CacheStats()
        per_thread = {"puts": 7, "misses": 3, "evictions": 2}
        threads = [
            threading.Thread(
                target=lambda: [total.absorb(per_thread) for _ in range(100)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert total.puts == 7 * 800
        assert total.misses == 3 * 800
        assert total.evictions == 2 * 800


_SUBPROCESS_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.service import CompileCache

root, lo, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

def key_for(i):
    return f"{{i:02x}}" + f"{{i:062x}}"

def value_for(key):
    return json.dumps({{"key": key, "pad": key * 40}})

cache = CompileCache(root, memory_entries=4)
bad = 0
for round_ in range(6):
    for i in range(lo, hi):
        key = key_for(i)
        cache.put(key, value_for(key))
        text = cache.get(key)
        if text != value_for(key):
            bad += 1
print(json.dumps({{"bad": bad, **cache.stats.as_dict()}}))
"""


class TestProcessContention:
    def test_processes_sharing_one_root(self, tmp_path):
        """3 processes hammering one disk root with overlapping key
        ranges: byte-identical reads everywhere, full key coverage after
        the storm."""
        script = _SUBPROCESS_SCRIPT.format(src=SRC)
        ranges = [(0, 20), (10, 30), (5, 25)]   # deliberate overlap
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(lo), str(hi)],
                stdout=subprocess.PIPE, text=True,
            )
            for lo, hi in ranges
        ]
        reports = []
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            reports.append(json.loads(out))
        assert all(r["bad"] == 0 for r in reports), reports
        survivor = CompileCache(tmp_path)
        seen = set(survivor.iter_fingerprints())
        assert seen == {key_for(i) for i in range(30)}
        for key in seen:
            assert survivor.get(key) == value_for(key)
        assert not list(tmp_path.rglob("*.tmp"))
