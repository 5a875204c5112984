"""Content-addressed compile cache: disk store + in-process LRU front.

Artifacts are keyed by the hex fingerprint of their compilation
(:mod:`repro.service.fingerprint`) and stored as JSON text.  Two tiers:

* an in-process LRU dict bounded by ``memory_entries`` (hot keys answer
  without touching the filesystem);
* an optional on-disk store laid out git-style — ``root/ab/cdef...json``,
  the first byte of the fingerprint as a fan-out directory — written via
  temp-file + :func:`os.replace` so concurrent writers (compile workers
  publishing into the shared store, or several processes on one machine)
  can never expose a torn artifact.  Writes are idempotent: content-addressing means any two
  writers of one key write identical bytes.

Every lookup outcome is counted (:class:`CacheStats`); the CLI's
``compile-batch`` summary and the serving benchmark read these.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

__all__ = ["CacheStats", "CompileCache"]


def _tmp_writer_pid(name: str) -> Optional[int]:
    """Writer pid embedded in a ``pub-<pid>-*.tmp`` name, else ``None``."""
    if not name.startswith("pub-"):
        return None
    head = name[4:].split("-", 1)[0]
    return int(head) if head.isdigit() else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True   # alive, owned by someone else
    except OSError:
        return False
    return True


@dataclass
class CacheStats:
    """Counters for one :class:`CompileCache` instance's lifetime.

    Increments go through :meth:`add` under an internal lock, so several
    threads (gateway handlers, executor hops) sharing one cache can never
    lose or double-count an update; :meth:`absorb` folds another
    instance's counters in (used to account compile workers' operations
    on the shared store back into the parent's handle on it).
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    discards: int = 0
    #: Disk hits served by pulling the artifact through from a peer's
    #: store (cluster replication); every ``pulled`` is also counted in
    #: ``disk_hits``, so the hits/misses/lookups ledger is unchanged.
    pulled: int = 0
    #: Tiered publishes (:meth:`CompileCache.put_tiered` /
    #: :meth:`CompileCache.upgrade`) that replaced a same-fingerprint
    #: lower-tier entry in place.
    upgraded: int = 0
    #: Tiered publishes refused because an equal-or-better artifact was
    #: already stored (the compare-and-swap lost).  Every tiered publish
    #: lands in exactly one of ``puts`` / ``upgraded`` /
    #: ``stale_upgrades``, so the write ledger stays reconciling.
    stale_upgrades: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def add(self, **deltas: int) -> None:
        """Atomically add ``field=delta`` counter increments."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def absorb(self, other: Union["CacheStats", Dict[str, int]]) -> None:
        """Fold another stats object's counters into this one.

        ``other`` may be a :class:`CacheStats` or a plain counter dict
        (e.g. a worker process's :meth:`snapshot` shipped over a pipe);
        unknown keys — including the derived ``hits``/``lookups`` of
        :meth:`as_dict` — are ignored.
        """
        if isinstance(other, CacheStats):
            other = other.snapshot()
        names = {f.name for f in fields(self)}
        self.add(**{k: v for k, v in other.items() if k in names})

    def snapshot(self) -> Dict[str, int]:
        """Plain counter dict (no derived fields), read atomically."""
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_dict(self) -> Dict[str, int]:
        out = self.snapshot()
        out["hits"] = out["memory_hits"] + out["disk_hits"]
        out["lookups"] = out["hits"] + out["misses"]
        return out


class CompileCache:
    """Two-tier content-addressed artifact store.

    Parameters
    ----------
    root:
        Directory of the on-disk store; created on first write.  ``None``
        makes the cache memory-only (useful in tests and one-shot runs).
    memory_entries:
        LRU capacity of the in-process front; least-recently-used entries
        spill out of memory but stay on disk.
    peer_roots:
        Replica set for pull-through: other content-addressed stores
        (cluster peers) probed — in order, up to ``replica_probes`` of
        them — when the local disk tier misses.  A peer hit is published
        into the local store via the exclusive-link path (so racing
        pullers of one key count one publish) and counted as
        ``disk_hits`` + ``pulled``.  Content addressing makes any peer's
        bytes for a key identical to ours, and peers publish atomically,
        so a probe can never observe a torn artifact.
    replica_probes:
        Cap on how many peers one miss consults (default: all of them).
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 memory_entries: int = 256,
                 peer_roots: Iterable[os.PathLike] = (),
                 replica_probes: Optional[int] = None):
        if memory_entries < 1:
            raise ValueError("memory_entries must be positive")
        self.root = Path(root) if root is not None else None
        self.memory_entries = int(memory_entries)
        self.peer_roots = tuple(Path(p) for p in peer_roots)
        self.replica_probes = (
            len(self.peer_roots) if replica_probes is None
            else max(0, int(replica_probes))
        )
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()
        #: Serializes *mutations* of the disk tier (put/discard and
        #: the tiered compare-and-swap) within this process, so a discard
        #: can never unlink bytes a concurrent publisher just wrote and an
        #: upgrade's read-compare-write is atomic.  Separate from
        #: ``_lock`` so MB-sized artifact writes never stall the memory
        #: front's hit path.  Reads stay lock-free (publishes are atomic
        #: renames).  Lock order where both are held: ``_disk_lock``
        #: outside, ``_lock`` inside.
        self._disk_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Key layout
    # ------------------------------------------------------------------
    def _path(self, fingerprint: str) -> Path:
        assert self.root is not None
        return self._key_path(self.root, fingerprint)

    @staticmethod
    def _key_path(root: Path, fingerprint: str) -> Path:
        return root / fingerprint[:2] / f"{fingerprint[2:]}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[str]:
        """Artifact text for ``fingerprint``, or ``None`` on a miss.

        A disk hit is promoted into the memory front.  Split into the
        two tier probes below so the async gateway can answer memory
        hits inline and push the filesystem probe onto its executor;
        ``get_memory() or get_disk()`` counts exactly what one ``get``
        would (a memory probe alone never records a miss).
        """
        text = self.get_memory(fingerprint)
        if text is not None:
            return text
        return self.get_disk(fingerprint)

    def get_memory(self, fingerprint: str) -> Optional[str]:
        """Memory-front probe: no filesystem access, safe on the event
        loop.  Counts a hit when it answers; never counts a miss — the
        lookup is not over until :meth:`get_disk` also misses."""
        with self._lock:
            text = self._memory.get(fingerprint)
            if text is not None:
                self._memory.move_to_end(fingerprint)
                self.stats.add(memory_hits=1)
                return text
        return None

    def get_disk(self, fingerprint: str) -> Optional[str]:
        """Disk-tier probe (blocking): read, promote into memory, and
        count the lookup's outcome (``disk_hits`` or ``misses``).

        A local miss with ``peer_roots`` configured falls through to
        :meth:`pull_through` before it is allowed to count as a miss."""
        if self.root is not None:
            try:
                text = self._path(fingerprint).read_text()
            except (FileNotFoundError, NotADirectoryError):
                text = None
            if text is not None:
                with self._lock:
                    self.stats.add(disk_hits=1)
                    self._remember(fingerprint, text)
                return text
        if self.peer_roots:
            text = self.pull_through(fingerprint)
            if text is not None:
                return text
        self.stats.add(misses=1)
        return None

    def pull_through(self, fingerprint: str) -> Optional[str]:
        """Probe up to ``replica_probes`` peer stores for the key and
        replicate the *highest-tier* hit into this store (blocking).

        Returns the artifact text, counted as ``disk_hits`` + ``pulled``,
        or ``None`` when no consulted replica holds it (nothing is
        counted — the caller owns the miss).  When replicas disagree on
        quality (one holds a speculative opt-1 placeholder, another the
        full artifact) the best tier wins; the probe stops early once a
        full-tier copy is found, since nothing can rank higher.  The
        local publish uses the exclusive link so two nodes pulling one
        key into one store never double-write, and a memory-only cache
        simply keeps the bytes in its LRU front.
        """
        # Deferred import: keep the cache importable without the artifact
        # codec's circuit stack (the contention battery's subprocess
        # script imports this module alone).
        from .artifact import TIER_FULL, artifact_tier, tier_rank

        best: Optional[str] = None
        best_rank = -2
        for peer in self.peer_roots[:self.replica_probes]:
            try:
                text = self._key_path(peer, fingerprint).read_text()
            except (FileNotFoundError, NotADirectoryError):
                continue
            except OSError:
                continue   # peer store unreadable: treat as a miss there
            rank = tier_rank(artifact_tier(text))
            if rank > best_rank:
                best, best_rank = text, rank
            if best_rank >= tier_rank(TIER_FULL):
                break      # nothing ranks higher: stop probing
        if best is None:
            return None
        if self.root is not None:
            with self._disk_lock:
                self._write_disk(fingerprint, best, exclusive=True)
        with self._lock:
            self.stats.add(disk_hits=1, pulled=1)
            self._remember(fingerprint, best)
        return best

    def put(self, fingerprint: str, text: str) -> None:
        """Store artifact text under ``fingerprint`` in both tiers.

        Full-effort publish: last writer wins, which is safe because
        content addressing makes racing full-tier writers byte-identical
        and nothing ranks above full.  Lower-tier writers must go
        through :meth:`put_tiered` instead.
        """
        if self.root is not None:
            with self._disk_lock:
                self._write_disk(fingerprint, text)
        with self._lock:
            self.stats.add(puts=1)
            self._remember(fingerprint, text)

    def promote(self, fingerprint: str, text: str) -> None:
        """Insert into the memory front only — no disk IO, no put counted.

        For artifacts that already live in the shared disk store because a
        compile worker process wrote them there: the write was counted by
        the worker, the parent just wants the hot key resident.
        """
        with self._lock:
            self._remember(fingerprint, text)

    def discard(self, fingerprint: str,
                expect: Optional[str] = None) -> bool:
        """Drop one artifact from both tiers; ``True`` if anything was
        removed.  Concurrent readers either see the old bytes or a miss —
        never a partial file (removal is a single ``unlink``).

        ``expect`` makes the removal conditional (compare-and-discard):
        the entry is only dropped if its current bytes equal ``expect``,
        so an invalidation raced by a concurrent :meth:`put` /
        :meth:`pull_through` republish leaves the fresh artifact alone.
        The whole read-compare-unlink runs under the disk mutation lock
        and the ``discards`` counter is bumped inside it — an unlink can
        no longer land between a publisher's write and its counting, and
        the counter can never exceed the number of entries actually
        removed.
        """
        with self._disk_lock:
            removed = False
            if self.root is not None:
                path = self._path(fingerprint)
                try:
                    current: Optional[str] = path.read_text()
                except (FileNotFoundError, NotADirectoryError):
                    current = None
                if current is not None and (expect is None or current == expect):
                    try:
                        os.unlink(path)
                        removed = True
                    except (FileNotFoundError, NotADirectoryError):
                        pass
            with self._lock:
                held = self._memory.get(fingerprint)
                if held is not None and (expect is None or held == expect):
                    self._memory.pop(fingerprint, None)
                    removed = True
                if removed:
                    self.stats.add(discards=1)
        return removed

    def put_tiered(self, fingerprint: str, text: str, tier: str) -> bool:
        """Publish a tiered artifact unless an equal-or-better one is
        already stored.  ``True`` if ``text`` is now the stored entry.

        This is the speculative fast path's store: an opt-1 placeholder
        must never clobber a full artifact another writer landed first.
        Counted as ``puts`` when the key was empty, ``upgraded`` when a
        lower tier was replaced, ``stale_upgrades`` when the CAS lost.
        """
        return self._publish_tiered(fingerprint, text, tier,
                                    fresh_counter="puts")

    def upgrade(self, fingerprint: str, text: str,
                tier: str = "full") -> bool:
        """Compare-and-swap upgrade: replace a same-fingerprint entry of
        *strictly lower* tier with ``text``, in place.

        ``True`` when the upgrade landed (counted as ``upgraded``);
        ``False`` when an equal-or-better artifact was already stored —
        e.g. a concurrent cold compile at full effort beat the background
        lane to the key — counted as ``stale_upgrades`` and the existing
        entry is left untouched.  An upgrade of an *empty* key also
        lands (counted ``upgraded``): the entry it raced was discarded,
        and the full artifact is still worth keeping.
        """
        return self._publish_tiered(fingerprint, text, tier,
                                    fresh_counter="upgraded")

    def _publish_tiered(self, fingerprint: str, text: str, tier: str,
                        fresh_counter: str) -> bool:
        """Rank-checked publish shared by :meth:`put_tiered` /
        :meth:`upgrade`; ``fresh_counter`` names the stat bumped when the
        key was empty."""
        from .artifact import artifact_tier, tier_rank
        with self._disk_lock:
            current = self._read_current(fingerprint)
            if current is not None and (
                    tier_rank(artifact_tier(current)) >= tier_rank(tier)):
                with self._lock:
                    self.stats.add(stale_upgrades=1)
                    self._remember(fingerprint, current)
                return False
            if self.root is not None:
                self._write_disk(fingerprint, text)
            with self._lock:
                if current is None:
                    self.stats.add(**{fresh_counter: 1})
                else:
                    self.stats.add(upgraded=1)
                self._remember(fingerprint, text)
        return True

    def _read_current(self, fingerprint: str) -> Optional[str]:
        """Current stored bytes for the key, disk tier authoritative.
        Caller holds ``_disk_lock`` (this is the CAS read)."""
        if self.root is not None:
            try:
                return self._path(fingerprint).read_text()
            except (FileNotFoundError, NotADirectoryError):
                return None
        with self._lock:
            return self._memory.get(fingerprint)

    def _remember(self, fingerprint: str, text: str) -> None:
        """Insert into the LRU front, evicting beyond capacity.  Caller
        holds the lock."""
        self._memory[fingerprint] = text  # lint: caller-holds-lock
        self._memory.move_to_end(fingerprint)
        evicted = 0
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            evicted += 1
        if evicted:
            self.stats.add(evictions=evicted)

    def _write_disk(self, fingerprint: str, text: str,
                    exclusive: bool = False) -> bool:
        """Atomically publish ``text`` under the key's path.

        ``exclusive=True`` publishes via ``link`` (fails on an existing
        key instead of rewriting it) and returns whether *this* call
        created the entry — the primitive that makes concurrent
        pull-through counts exact: two racing pullers of one key get one
        ``True``.
        """
        path = self._path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The pid in the temp name lets sweep_stale_tmp tell a live
        # writer's in-flight publish from a dead one's orphan.
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f"pub-{os.getpid()}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            if exclusive:
                try:
                    os.link(tmp, path)
                    created = True
                except FileExistsError:
                    created = False
                os.unlink(tmp)
                return created
            os.replace(tmp, path)
            return True
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._memory:
                return True
        return self.root is not None and self._path(fingerprint).exists()

    def __len__(self) -> int:
        """Number of artifacts in the store (disk when present, else memory)."""
        if self.root is None:
            with self._lock:
                return len(self._memory)
        return sum(1 for _ in self.iter_fingerprints())

    def iter_fingerprints(self) -> Iterator[str]:
        """All fingerprints in the disk store (memory-only: the LRU keys)."""
        if self.root is None:
            with self._lock:
                yield from list(self._memory)
            return
        if not self.root.is_dir():
            return
        for fanout in sorted(self.root.iterdir()):
            if not fanout.is_dir() or len(fanout.name) != 2:
                continue
            for entry in sorted(fanout.iterdir()):
                if entry.suffix == ".json":
                    yield fanout.name + entry.stem

    def clear_memory(self) -> None:
        """Drop the LRU front (the disk store is untouched)."""
        with self._lock:
            self._memory.clear()

    def sweep_stale_tmp(self, max_age_seconds: float = 300.0) -> int:
        """Remove orphaned ``.tmp`` files left by writers that died between
        ``mkstemp`` and the atomic publish (e.g. a SIGKILLed worker).

        Such files are invisible to readers — this is purely disk hygiene.
        Temp names embed the writer's pid (``pub-<pid>-*.tmp``): a file
        whose writer is still alive is *never* touched, whatever its age
        (several daemons may share one store), a dead writer's file goes
        immediately, and unattributable files fall back to the
        ``max_age_seconds`` rule.  Returns the number removed.
        """
        if self.root is None or not self.root.is_dir():
            return 0
        cutoff = time.time() - max_age_seconds
        removed = 0
        for tmp in self.root.rglob("*.tmp"):
            writer = _tmp_writer_pid(tmp.name)
            if writer is not None:
                if _pid_alive(writer):
                    continue
            else:
                try:
                    if tmp.stat().st_mtime > cutoff:
                        continue
                except OSError:
                    continue
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        return removed
