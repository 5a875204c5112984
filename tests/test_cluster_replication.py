"""Replication consistency tests for the store-layer pull-through.

Cluster nodes replicate lazily: a node missing a fingerprint probes its
peers' content-addressed stores and keeps what it finds (publishing
locally with the exclusive link).  The contract under test:

* a pulled artifact is **byte-identical** to what the peer holds, and
  the ledger counts it as a disk hit (``pulled`` rides along, so
  ``hits + misses == lookups`` is unchanged);
* racing pulls and puts into one store never lose or tear a write —
  content addressing plus the exclusive link make the publish
  first-writer-wins and exact;
* a node dying mid-publish leaves only a ``.tmp`` orphan that the sweep
  removes without touching published artifacts or breaking future
  pulls;
* ``replica_probes`` bounds how many peers a miss consults.

Key/value helpers mirror ``test_cache_contention.py``: values embed the
key plus block-spanning padding so torn reads are detectable.
"""

import json
import os
import threading

from repro.service import CompileCache


def key_for(i: int) -> str:
    return f"{i:02x}" + f"{i:062x}"


def value_for(key: str) -> str:
    return json.dumps({"key": key, "pad": key * 40})


def seeded_store(root, count=10) -> CompileCache:
    cache = CompileCache(root)
    for i in range(count):
        cache.put(key_for(i), value_for(key_for(i)))
    return cache


class TestPullThrough:
    def test_pull_is_byte_identical_and_counted_as_a_hit(self, tmp_path):
        seeded_store(tmp_path / "peer")
        consumer = CompileCache(tmp_path / "own",
                                peer_roots=[tmp_path / "peer"])
        for i in range(10):
            key = key_for(i)
            assert consumer.get(key) == value_for(key)
        stats = consumer.stats.as_dict()
        assert stats["pulled"] == 10
        assert stats["disk_hits"] == 10
        assert stats["misses"] == 0
        assert stats["lookups"] == stats["hits"] == 10
        # The pull published locally: the bytes on the consumer's disk
        # are exactly the peer's bytes.
        for i in range(10):
            key = key_for(i)
            own = (tmp_path / "own" / key[:2] / f"{key[2:]}.json").read_bytes()
            peer = (tmp_path / "peer" / key[:2]
                    / f"{key[2:]}.json").read_bytes()
            assert own == peer
        assert not list((tmp_path / "own").rglob("*.tmp"))

    def test_pulled_artifact_survives_the_peer(self, tmp_path):
        """After one pull, the consumer's store is self-sufficient — a
        fresh cache over the same root (no peers) serves the key."""
        seeded_store(tmp_path / "peer", count=1)
        consumer = CompileCache(tmp_path / "own",
                                peer_roots=[tmp_path / "peer"])
        key = key_for(0)
        assert consumer.get(key) == value_for(key)
        survivor = CompileCache(tmp_path / "own")
        assert survivor.get(key) == value_for(key)
        assert survivor.stats.pulled == 0       # served locally

    def test_second_get_hits_memory_not_the_peer(self, tmp_path):
        seeded_store(tmp_path / "peer", count=1)
        consumer = CompileCache(tmp_path / "own",
                                peer_roots=[tmp_path / "peer"])
        key = key_for(0)
        consumer.get(key)
        consumer.get(key)
        stats = consumer.stats.as_dict()
        assert stats["pulled"] == 1
        assert stats["memory_hits"] == 1

    def test_true_miss_consults_peers_then_counts_one_miss(self, tmp_path):
        (tmp_path / "peer").mkdir()
        consumer = CompileCache(tmp_path / "own",
                                peer_roots=[tmp_path / "peer"])
        assert consumer.get(key_for(7)) is None
        stats = consumer.stats.as_dict()
        assert stats["misses"] == 1 and stats["pulled"] == 0
        assert stats["lookups"] == 1

    def test_replica_probes_bounds_the_consultation(self, tmp_path):
        """Only the first ``replica_probes`` peers are consulted — the
        knob that keeps a miss from fanning out across a large fleet."""
        seeded_store(tmp_path / "holder", count=1)
        empty_peers = [tmp_path / f"empty-{i}" for i in range(2)]
        key = key_for(0)
        peers = [*empty_peers, tmp_path / "holder"]

        limited = CompileCache(tmp_path / "own-a", peer_roots=peers,
                               replica_probes=2)
        assert limited.get(key) is None          # never reached the holder
        assert limited.stats.misses == 1

        full = CompileCache(tmp_path / "own-b", peer_roots=peers)
        assert full.replica_probes == 3          # defaults to all peers
        assert full.get(key) == value_for(key)
        assert full.stats.pulled == 1

        disabled = CompileCache(tmp_path / "own-c", peer_roots=peers,
                                replica_probes=0)
        assert disabled.get(key) is None

    def test_memory_only_cache_adopts_without_publishing(self, tmp_path):
        seeded_store(tmp_path / "peer", count=1)
        consumer = CompileCache(None, peer_roots=[tmp_path / "peer"])
        key = key_for(0)
        assert consumer.get(key) == value_for(key)
        assert consumer.stats.pulled == 1
        assert consumer.get(key) == value_for(key)   # memory front now
        assert consumer.stats.memory_hits == 1


class TestRacingPublishes:
    def test_concurrent_pulls_into_one_store_stay_exact(self, tmp_path):
        """Two nodes (two cache instances over one root) pulling the same
        keys concurrently: every read byte-identical, no lost writes, no
        temp droppings — the exclusive link settles the race."""
        seeded_store(tmp_path / "peer", count=16)
        errors = []

        def puller(tag: int):
            cache = CompileCache(tmp_path / "own",
                                 peer_roots=[tmp_path / "peer"])
            for i in range(16):
                key = key_for(i)
                text = cache.get(key)
                if text != value_for(key):
                    errors.append((tag, key))

        threads = [threading.Thread(target=puller, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        survivor = CompileCache(tmp_path / "own")
        for i in range(16):
            key = key_for(i)
            assert survivor.get(key) == value_for(key)
        assert not list((tmp_path / "own").rglob("*.tmp"))

    def test_pulls_racing_a_merge_lose_nothing(self, tmp_path):
        """A publisher ``put``-ting every key and per-key pull-throughs
        hammering one destination concurrently: all keys land,
        byte-identical, with no temp droppings.  Content addressing makes
        the two writers' bytes for a key identical, so whichever lands
        last changes nothing.  (``pulled`` may overlap ``puts`` on a key
        when the put lands between the puller's local probe and its peer
        read: the puller really did serve the peer's bytes.)"""
        seeded_store(tmp_path / "peer", count=24)
        dest = CompileCache(tmp_path / "own",
                            peer_roots=[tmp_path / "peer"])
        errors = []

        def publisher():
            for i in range(24):
                key = key_for(i)
                dest.put(key, value_for(key))

        def puller():
            for i in range(24):
                key = key_for(i)
                if dest.get(key) != value_for(key):
                    errors.append(key)

        threads = [threading.Thread(target=publisher),
                   threading.Thread(target=puller)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(24):
            key = key_for(i)
            assert dest.get(key) == value_for(key)
        # Every put is counted once, and every lookup hit: the puller
        # found each key in the store or pulled it from the peer.
        assert dest.stats.puts == 24
        assert dest.stats.misses == 0 and dest.stats.lookups == 48
        assert 0 <= dest.stats.pulled <= 24
        assert not list((tmp_path / "own").rglob("*.tmp"))

    def test_dead_writer_mid_publish_is_swept_and_recoverable(self, tmp_path):
        """A node SIGKILLed between mkstemp and the link leaves a
        pid-attributed ``.tmp`` in the *destination* store; the sweep
        reaps it (the pid is dead) and the key remains pullable from the
        surviving peer."""
        seeded_store(tmp_path / "peer", count=1)
        key = key_for(0)
        shard = tmp_path / "own" / key[:2]
        shard.mkdir(parents=True)
        orphan = shard / "pub-999999999-dead.tmp"
        orphan.write_text(value_for(key)[: len(value_for(key)) // 2])
        os.utime(orphan, (1, 1))

        consumer = CompileCache(tmp_path / "own",
                                peer_roots=[tmp_path / "peer"])
        assert consumer.sweep_stale_tmp(max_age_seconds=3600) == 1
        assert not orphan.exists()
        assert consumer.get(key) == value_for(key)
        assert consumer.stats.pulled == 1
        published = shard / f"{key[2:]}.json"
        assert published.read_text() == value_for(key)
