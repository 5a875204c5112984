"""Property tests for the serving layer's fingerprints and compile cache.

The contract under test:

* fingerprints are **stable** — across interpreter restarts (pinned digest
  + a fresh-subprocess recomputation) and across machines (pure SHA-256 of
  canonical bytes, no Python ``hash()``);
* fingerprints are **canonical** — invariant under block reordering, term
  reordering inside a block, splitting a coefficient between weight and
  parameter, coefficient formatting, and program renaming;
* fingerprints are **discriminating** — distinct programs and distinct
  compile options get distinct digests;
* a cache hit returns the **byte-identical** artifact a cold compile
  produced, from both the memory and the disk tier, with every outcome
  counted in the stats.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compile_program
from repro.ir import PauliBlock, PauliProgram, parse_program
from repro.pauli import PauliString
from repro.service import (
    CompileCache,
    canonical_options,
    compile_fingerprint,
    dumps_artifact,
    program_fingerprint,
)
from repro.service.artifact import ARTIFACT_VERSION
from repro.transpile import linear

FIXED_TEXT = "{(XYZI, 0.5), (IZZX, -0.25), 0.3};\n{(YIIX, 1.5), 1.0};"
#: Pinned digests of FIXED_TEXT: any change to the canonical encoding or
#: the hash construction must show up here as a deliberate version bump.
FIXED_PROGRAM_FP = "5ddb36bd2cc3c206fb9f74539f5a3b3ccb1b44f7c757595fc3e7b2dbec3ee995"
FIXED_COMPILE_FP = "a7cbccb82b839d5fe339bbf9c3de2f2beb86641338e3a55e745435454e181ab1"


def fixed_program():
    return parse_program(FIXED_TEXT)


class TestFingerprintStability:
    def test_pinned_program_digest(self):
        assert program_fingerprint(fixed_program()) == FIXED_PROGRAM_FP

    def test_pinned_compile_digest(self):
        fp = compile_fingerprint(fixed_program(), canonical_options("ft", "gco"))
        assert fp == FIXED_COMPILE_FP

    def test_stable_across_interpreter_restarts(self):
        """A fresh interpreter (fresh ``PYTHONHASHSEED``) must agree."""
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "from repro.ir import parse_program\n"
            "from repro.service import program_fingerprint\n"
            f"print(program_fingerprint(parse_program({FIXED_TEXT!r})))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "random"},
        )
        assert out.stdout.strip() == FIXED_PROGRAM_FP


class TestFingerprintCanonicalization:
    def test_block_reordering(self):
        a = parse_program("{(XX, 1.0), 0.5};\n{(ZZ, -1.0), 0.25};")
        b = parse_program("{(ZZ, -1.0), 0.25};\n{(XX, 1.0), 0.5};")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_term_reordering_within_block(self):
        a = parse_program("{(XX, 1.0), (YY, 2.0), (ZZ, 3.0), 0.5};")
        b = parse_program("{(ZZ, 3.0), (XX, 1.0), (YY, 2.0), 0.5};")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_weight_parameter_split(self):
        """Only the effective coefficient weight*parameter is semantic."""
        a = PauliProgram([PauliBlock([(PauliString.from_label("XZ"), 0.5)],
                                     parameter=2.0)])
        b = PauliProgram([PauliBlock([(PauliString.from_label("XZ"), 1.0)],
                                     parameter=1.0)])
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_coefficient_formatting(self):
        a = parse_program("{(XY, 0.5), 1.0};")
        b = parse_program("{(XY, 0.5000000000), 1.00};")
        c = parse_program("{(XY, 5e-1), 1e0};")
        assert program_fingerprint(a) == program_fingerprint(b) == program_fingerprint(c)

    def test_negative_zero_coefficient(self):
        a = PauliProgram([PauliBlock([(PauliString.from_label("XY"), 0.0)],
                                     parameter=1.0)])
        b = PauliProgram([PauliBlock([(PauliString.from_label("XY"), -0.0)],
                                     parameter=1.0)])
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_name_is_metadata_not_semantics(self):
        a = parse_program(FIXED_TEXT, name="alpha")
        b = parse_program(FIXED_TEXT, name="beta")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_block_encoding_matches_the_one_sweep_fast_path(self):
        """``PauliProgram.canonical_form`` packs all blocks in one sweep;
        it must stay byte-identical to composing the per-block
        ``PauliBlock.canonical_bytes`` encodings."""
        import struct

        program = fixed_program()
        encoded = sorted(block.canonical_bytes() for block in program)
        composed = (
            b"pauli-program-v1"
            + struct.pack("<II", program.num_qubits, len(encoded))
            + b"".join(encoded)
        )
        assert program.canonical_form() == composed

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_permutations_are_invariant(self, data):
        n = data.draw(st.integers(2, 5))
        blocks = []
        for _ in range(data.draw(st.integers(1, 3))):
            strings = []
            for _ in range(data.draw(st.integers(1, 4))):
                codes = [data.draw(st.integers(0, 3)) for _ in range(n)]
                strings.append((
                    PauliString(codes),
                    data.draw(st.floats(-2, 2, allow_nan=False)),
                ))
            blocks.append(PauliBlock(
                strings, parameter=data.draw(st.floats(-2, 2, allow_nan=False))
            ))
        program = PauliProgram(blocks)
        block_order = data.draw(st.permutations(range(len(blocks))))
        shuffled = PauliProgram([
            PauliBlock(
                [blocks[i].strings[j]
                 for j in data.draw(st.permutations(range(len(blocks[i].strings))))],
                parameter=blocks[i].parameter,
            )
            for i in block_order
        ])
        assert program_fingerprint(program) == program_fingerprint(shuffled)


class TestFingerprintDiscrimination:
    def test_distinct_programs(self):
        base = program_fingerprint(fixed_program())
        assert program_fingerprint(parse_program("{(XYZI, 0.5), 0.3};")) != base
        assert program_fingerprint(
            parse_program(FIXED_TEXT.replace("0.5", "0.50001"))
        ) != base
        assert program_fingerprint(
            parse_program(FIXED_TEXT.replace("XYZI", "XYZZ"))
        ) != base

    def test_duplicate_multiplicity_is_semantic(self):
        once = parse_program("{(XX, 1.0), 0.5};")
        twice = parse_program("{(XX, 1.0), (XX, 1.0), 0.5};")
        assert program_fingerprint(once) != program_fingerprint(twice)

    def test_options_discriminate(self):
        program = fixed_program()
        seen = set()
        for options in [
            canonical_options("ft", "gco"),
            canonical_options("ft", "do"),
            canonical_options("ft", "gco", run_peephole=False),
            canonical_options("sc", "do", coupling=linear(4)),
            canonical_options("sc", "do", coupling=linear(5)),
            canonical_options("sc", "do", coupling=linear(4), restarts=3),
            canonical_options("sc", "do", coupling=linear(4),
                              edge_error={(0, 1): 0.01}),
        ]:
            seen.add(compile_fingerprint(program, options))
        assert len(seen) == 7

    def test_qubit_count_is_semantic(self):
        a = parse_program("{(XX, 1.0), 0.5};")
        b = parse_program("{(IXX, 1.0), 0.5};")
        assert program_fingerprint(a) != program_fingerprint(b)


class TestCompileCache:
    def test_hit_is_byte_identical_to_cold_compile(self, tmp_path):
        program = fixed_program()
        cache = CompileCache(tmp_path)
        cold = compile_program(program, backend="ft", cache=cache)
        assert not cold.from_cache and cold.fingerprint is not None

        warm = compile_program(program, backend="ft", cache=cache)
        assert warm.from_cache
        assert dumps_artifact(warm) == dumps_artifact(cold)
        assert cache.get(cold.fingerprint) == dumps_artifact(cold)
        assert list(warm.circuit.gates) == list(cold.circuit.gates)
        assert warm.metrics == cold.metrics

    def test_disk_tier_survives_a_new_process_front(self, tmp_path):
        program = fixed_program()
        first = CompileCache(tmp_path)
        cold = compile_program(program, backend="ft", cache=first)

        second = CompileCache(tmp_path)   # fresh LRU, same store
        warm = compile_program(program, backend="ft", cache=second)
        assert warm.from_cache
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert dumps_artifact(warm) == dumps_artifact(cold)

    def test_stats_and_lru_eviction(self, tmp_path):
        cache = CompileCache(tmp_path, memory_entries=2)
        cache.put("aa" + "0" * 62, "one")
        cache.put("bb" + "0" * 62, "two")
        cache.put("cc" + "0" * 62, "three")
        assert cache.stats.evictions == 1
        # Evicted from memory, still on disk.
        assert cache.get("aa" + "0" * 62) == "one"
        assert cache.stats.disk_hits == 1
        assert cache.get("zz" + "0" * 62) is None
        assert cache.stats.misses == 1
        assert cache.stats.puts == 3
        stats = cache.stats.as_dict()
        assert stats["hits"] == stats["memory_hits"] + stats["disk_hits"]

    def test_memory_only_mode(self):
        cache = CompileCache()
        result = compile_program(fixed_program(), backend="ft", cache=cache)
        assert compile_program(
            fixed_program(), backend="ft", cache=cache
        ).from_cache
        assert result.fingerprint in cache

    def test_tiered_get_split_preserves_stats(self, tmp_path):
        """``get_memory``/``get_disk`` (the gateway's loop-safe split)
        must together count exactly what the composite ``get`` counts:
        a memory probe never records a miss, the disk probe records the
        hit-or-miss, and a disk hit promotes into the memory tier."""
        fp = "ee" + "3" * 62
        cache = CompileCache(tmp_path)
        cache.put(fp, "payload")

        # Memory front answers inline and counts the hit.
        assert cache.get_memory(fp) == "payload"
        assert cache.stats.memory_hits == 1 and cache.stats.misses == 0

        # A memory miss is silent: no miss is charged until the disk
        # tier has spoken, so probe-then-dedupe never inflates misses.
        assert cache.get_memory("ff" + "4" * 62) is None
        assert cache.stats.misses == 0

        # Fresh front, same store: memory probe silent, disk probe hits
        # and promotes, so the next memory probe answers directly.
        second = CompileCache(tmp_path)
        assert second.get_memory(fp) is None
        assert second.stats.misses == 0
        assert second.get_disk(fp) == "payload"
        assert second.stats.disk_hits == 1 and second.stats.misses == 0
        assert second.get_memory(fp) == "payload"
        assert second.stats.memory_hits == 1

        # A full miss is charged by the disk tier exactly once, and the
        # composite get equals the split run in sequence.
        assert second.get_disk("ff" + "4" * 62) is None
        assert second.stats.misses == 1
        third = CompileCache(tmp_path)
        assert third.get(fp) == "payload"
        assert third.stats.disk_hits == 1
        assert third.get(fp) == "payload"
        assert third.stats.memory_hits == 1
        assert third.get("ff" + "4" * 62) is None
        assert third.stats.misses == 1
        totals = third.stats.as_dict()
        assert totals["hits"] == totals["memory_hits"] + totals["disk_hits"]

    def test_memory_only_mode_disk_probe_counts_the_miss(self):
        cache = CompileCache()
        cache.put("aa" + "0" * 62, "x")
        assert cache.get_memory("bb" + "1" * 62) is None
        assert cache.stats.misses == 0
        assert cache.get_disk("bb" + "1" * 62) is None
        assert cache.stats.misses == 1

    def test_sc_results_cache_with_layouts(self, tmp_path):
        program = parse_program("{(ZIIZ, 1.0), 0.5};\n{(XXII, -0.5), 0.3};")
        coupling = linear(4)
        cache = CompileCache(tmp_path)
        cold = compile_program(program, backend="sc", coupling=coupling, cache=cache)
        warm = compile_program(program, backend="sc", coupling=coupling, cache=cache)
        assert warm.from_cache
        assert dumps_artifact(warm) == dumps_artifact(cold)
        for p in warm.final_layout.physical_qubits():
            assert warm.final_layout.logical(p) == cold.final_layout.logical(p)

    def test_scheduler_default_resolution_shares_the_fingerprint(self, tmp_path):
        cache = CompileCache(tmp_path)
        implicit = compile_program(fixed_program(), backend="ft", cache=cache)
        explicit = compile_program(
            fixed_program(), backend="ft", scheduler="gco", cache=cache
        )
        assert explicit.from_cache
        assert implicit.fingerprint == explicit.fingerprint

    def test_stale_or_corrupt_artifact_recompiles_instead_of_raising(self, tmp_path):
        cache = CompileCache(tmp_path)
        cold = compile_program(fixed_program(), backend="ft", cache=cache)
        good = cache.get(cold.fingerprint)

        # Future artifact version: must fall back to a recompile...
        cache.put(
            cold.fingerprint,
            good.replace(f'"version":{ARTIFACT_VERSION}', '"version":999'),
        )
        redone = compile_program(fixed_program(), backend="ft", cache=cache)
        assert not redone.from_cache
        # ...and heal the entry so the next lookup hits again.
        assert cache.get(cold.fingerprint) == good
        assert compile_program(fixed_program(), backend="ft", cache=cache).from_cache

        # Truncated/corrupt JSON likewise.
        cache.put(cold.fingerprint, good[: len(good) // 2])
        assert not compile_program(fixed_program(), backend="ft", cache=cache).from_cache

        # Valid JSON that is not an object likewise.
        cache.put(cold.fingerprint, "null")
        assert not compile_program(fixed_program(), backend="ft", cache=cache).from_cache


def tier_text(tier, payload=0):
    """A minimal artifact-shaped document carrying a quality tier."""
    import json

    return json.dumps({"version": 3, "kind": "result", "tier": tier,
                       "payload": payload})


class TestTieredCache:
    FP = "dd" + "5" * 62

    def test_put_tiered_then_upgrade_lands_in_place(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.put_tiered(self.FP, tier_text("opt1"), "opt1")
        assert cache.stats.puts == 1 and cache.stats.upgraded == 0

        full = tier_text("full")
        assert cache.upgrade(self.FP, full)
        assert cache.get(self.FP) == full
        assert cache.stats.upgraded == 1
        assert cache.stats.stale_upgrades == 0
        # Same key on disk: the upgrade replaced, not duplicated.
        assert len(list(cache.iter_fingerprints())) == 1

    def test_upgrade_loses_cas_against_equal_or_better(self, tmp_path):
        cache = CompileCache(tmp_path)
        first = tier_text("full", payload=1)
        cache.put(self.FP, first)
        # A background recompile that arrives after a full-effort publish
        # must leave the existing entry untouched.
        assert not cache.upgrade(self.FP, tier_text("full", payload=2))
        assert cache.get(self.FP) == first
        assert cache.stats.stale_upgrades == 1 and cache.stats.upgraded == 0

    def test_lower_tier_never_downgrades(self, tmp_path):
        cache = CompileCache(tmp_path)
        full = tier_text("full")
        cache.put(self.FP, full)
        assert not cache.put_tiered(self.FP, tier_text("opt1"), "opt1")
        assert cache.get(self.FP) == full
        assert cache.stats.stale_upgrades == 1
        # opt2 over opt1 *does* land (strictly better).
        other = "ee" + "6" * 62
        cache.put_tiered(other, tier_text("opt1"), "opt1")
        assert cache.put_tiered(other, tier_text("opt2"), "opt2")
        assert cache.get(other) == tier_text("opt2")

    def test_upgrade_of_empty_key_lands_and_counts_upgraded(self, tmp_path):
        cache = CompileCache(tmp_path)
        assert cache.upgrade(self.FP, tier_text("full"))
        assert cache.stats.upgraded == 1 and cache.stats.puts == 0
        assert cache.get(self.FP) == tier_text("full")

    def test_legacy_untiered_artifact_reads_as_full(self, tmp_path):
        """v1/v2 artifacts carry no tier field: they must rank as full,
        so an opt-1 placeholder can never clobber one."""
        import json

        cache = CompileCache(tmp_path)
        legacy = json.dumps({"version": 2, "kind": "result"})
        cache.put(self.FP, legacy)
        assert not cache.put_tiered(self.FP, tier_text("opt1"), "opt1")
        assert cache.get(self.FP) == legacy

    def test_tiered_ledger_reconciles(self, tmp_path):
        """Every tiered publish lands in exactly one of puts / upgraded /
        stale_upgrades."""
        cache = CompileCache(tmp_path)
        publishes = 0
        for i, (tier, key) in enumerate([
            ("opt1", "aa"), ("opt1", "aa"), ("full", "aa"), ("full", "aa"),
            ("opt1", "bb"), ("opt2", "bb"), ("opt2", "bb"), ("full", "cc"),
        ]):
            cache.put_tiered(key + "0" * 62, tier_text(tier, i), tier)
            publishes += 1
        stats = cache.stats
        assert (stats.puts + stats.upgraded + stats.stale_upgrades
                == publishes)

    def test_memory_only_tiered_cas(self):
        cache = CompileCache()
        assert cache.put_tiered(self.FP, tier_text("opt1"), "opt1")
        assert not cache.put_tiered(self.FP, tier_text("opt1", 9), "opt1")
        assert cache.upgrade(self.FP, tier_text("full"))
        assert cache.get(self.FP) == tier_text("full")
        assert cache.stats.puts == 1
        assert cache.stats.upgraded == 1
        assert cache.stats.stale_upgrades == 1

    def test_threaded_upgrade_cas_single_winner(self, tmp_path):
        """N racing upgraders of one opt-1 entry: exactly one lands, the
        rest count stale, and the stored artifact is the winner's."""
        import threading

        cache = CompileCache(tmp_path)
        cache.put_tiered(self.FP, tier_text("opt1"), "opt1")
        barrier = threading.Barrier(8)
        outcomes = []

        def worker(n):
            barrier.wait()
            outcomes.append(cache.upgrade(self.FP, tier_text("full", n)))

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count(True) == 1
        assert cache.stats.upgraded == 1
        assert cache.stats.stale_upgrades == 7
        stored = cache.get(self.FP)
        assert stored in {tier_text("full", n) for n in range(8)}


class TestDiscardRaces:
    FP = "ab" + "7" * 62

    def test_conditional_discard_checks_content(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.put(self.FP, "fresh")
        # Mismatched expectation: nothing removed, nothing counted.
        assert not cache.discard(self.FP, expect="stale")
        assert cache.get(self.FP) == "fresh"
        assert cache.stats.discards == 0
        # Matching expectation removes both tiers.
        assert cache.discard(self.FP, expect="fresh")
        assert cache.get(self.FP) is None
        assert cache.stats.discards == 1
        # Discarding a missing key is a no-op, not a count.
        assert not cache.discard(self.FP)
        assert cache.stats.discards == 1

    @pytest.mark.parametrize("disk", [True, False])
    def test_discard_never_removes_a_concurrent_republish(self, tmp_path, disk):
        """Regression: ``discard`` used to unlink unconditionally, so an
        invalidation racing a ``put`` of fresh bytes could silently drop
        the fresh artifact (and bump ``discards`` past the number of
        entries actually removed).  The conditional form must leave a
        republished entry alone under arbitrary interleaving."""
        import threading

        cache = CompileCache(tmp_path if disk else None)
        rounds = 50
        for i in range(rounds):
            stale, fresh = f"stale-{i}", f"fresh-{i}"
            cache.put(self.FP, stale)
            barrier = threading.Barrier(2)

            def discarder():
                barrier.wait()
                cache.discard(self.FP, expect=stale)

            def publisher():
                barrier.wait()
                cache.put(self.FP, fresh)

            threads = [threading.Thread(target=discarder),
                       threading.Thread(target=publisher)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Whichever order the race resolved in, the fresh bytes are
            # the stored entry afterwards.
            assert cache.get(self.FP) == fresh
        assert cache.stats.discards <= rounds


class TestBatchService:
    SPECS = [
        {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a"},
        {"text": "{(IZZ, -0.25), 0.7};", "label": "b"},
        {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a-dup"},
    ]

    def test_serial_stats_count_each_lookup_once(self, tmp_path):
        from repro.service import compile_batch

        cache = CompileCache(tmp_path)
        batch = compile_batch(self.SPECS, cache=cache, workers=1)
        assert batch.unique_jobs == 2 and batch.dispatched_jobs == 2
        assert cache.stats.misses == 2
        assert cache.stats.puts == 2
        rerun = compile_batch(self.SPECS, cache=cache, workers=1)
        assert all(e.cached or e.deduped for e in rerun.entries)
        assert cache.stats.misses == 2   # unchanged: no second-pass misses

    def test_worker_stores_are_merged_and_cleaned(self, tmp_path):
        """Pool workers publish straight into the shared store: the
        unique artifacts land there and no per-worker store is left."""
        from repro.service import compile_batch

        cache = CompileCache(tmp_path)
        batch = compile_batch(self.SPECS, cache=cache, workers=2)
        assert batch.dispatched_jobs == 2
        assert cache.stats.puts == 2
        assert not (cache.root / "workers").exists()
        # The shared store holds exactly the unique artifacts.
        assert len(list(cache.iter_fingerprints())) == 2

    #: Distinct single-block programs: every job is a unique cache miss.
    MANY_SPECS = [
        {"text": f"{{(XZY, 1.0), 0.{i + 1}}};", "label": f"u{i}"}
        for i in range(5)
    ]

    def test_merge_reports_worker_eviction_stats_exactly(self, tmp_path,
                                                         monkeypatch):
        """Regression: the batch once threw the workers' cache counters
        away, silently dropping the evictions a full LRU front produced
        mid-run.  With a front of 1 every worker put beyond its first
        evicts, so the aggregate must show puts == dispatched and at least
        (dispatched - workers) evictions."""
        from repro.service import batch as batch_module
        from repro.service import compile_batch

        monkeypatch.setattr(batch_module, "WORKER_MEMORY_ENTRIES", 1)
        cache = CompileCache(tmp_path)
        batch = compile_batch(self.MANY_SPECS, cache=cache, workers=2)
        assert batch.dispatched_jobs == 5
        assert batch.worker_stats is not None
        assert batch.worker_stats["puts"] == 5
        assert (batch.dispatched_jobs - 2 <= batch.worker_stats["evictions"]
                <= batch.dispatched_jobs)
        assert batch.summary()["worker_cache"] == batch.worker_stats
        assert sum(batch.per_worker.values()) == 5

    def test_shared_worker_store_folds_stats_and_skips_merge(self, tmp_path):
        """Workers write the shared root directly; their puts surface in
        cache.stats exactly once (absorbed, not re-counted by the parent)
        and the batch-level probe is the only lookup: one miss per job,
        not a second one from a worker-side probe."""
        from repro.service import compile_batch

        cache = CompileCache(tmp_path)
        batch = compile_batch(self.MANY_SPECS, cache=cache, workers=2)
        assert not (cache.root / "workers").exists()
        assert "misses" not in batch.worker_stats   # workers never probe
        assert cache.stats.puts == 5          # worker puts, absorbed once
        assert cache.stats.misses == 5
        assert cache.stats.lookups == 5
        assert len(list(cache.iter_fingerprints())) == 5
        # Artifacts are hot in the parent front without a second disk write.
        rerun = compile_batch(self.MANY_SPECS, cache=cache, workers=1)
        assert all(entry.cached for entry in rerun.entries)
        assert cache.stats.memory_hits == 5

    def test_memory_only_pool_publishes_in_the_parent(self):
        """With no disk store the workers hold nothing to publish into, so
        the parent puts each returned artifact itself, once."""
        from repro.service import compile_batch

        cache = CompileCache()
        batch = compile_batch(self.SPECS, cache=cache, workers=2)
        assert batch.worker_stats is None
        assert cache.stats.misses == 2 and cache.stats.puts == 2
        rerun = compile_batch(self.SPECS, cache=cache, workers=2)
        assert all(e.cached or e.deduped for e in rerun.entries)
        assert cache.stats.memory_hits == 2
