"""Shared pieces of the benchmark: spans, percentiles, memory, run metadata.

Nothing here imports the compiler; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for caches, sockets, traces and daemon logs.  Relative
#: to the checkout root (the working directory of every run), which keeps
#: Unix socket paths short however deep the checkout sits.
WORK = Path(".perfbench")


class Tracer:
    """In-memory span recorder: name, start, end and parent of each span.

    Spans are kept in a list and written out once, when the run ends.  A
    span's self time is its duration minus the time its children cover.
    """

    def __init__(self):
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None,
                  "children_s": 0.0, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if record["parent"] is not None:
                self.spans[record["parent"]]["children_s"] += \
                    self.duration(record)

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around every call; ``after(record, value)``
        may annotate the span with counts taken from the return value."""

        def traced(*args, **kwargs):
            with self.span(name) as record:
                value = fn(*args, **kwargs)
                if after is not None:
                    value = after(record, value)
                return value

        return traced

    def duration(self, record: Dict) -> float:
        return record["end"] - record["start"]

    def self_time(self, record: Dict) -> float:
        """Duration minus the time the span's (sequential) children cover."""
        return self.duration(record) - record["children_s"]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


@contextlib.contextmanager
def patched(module, **replacements):
    """Temporarily rebind module attributes (used to time calls a public
    function makes into its own module's public helpers)."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]); 0.0 for no samples."""
    if not samples:
        return 0.0
    data = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(data)))
    return data[rank - 1]


def tail_supported(count: int, p: float, beyond: int = 10) -> bool:
    """True when ``count`` samples leave at least ``beyond`` above ``p``."""
    return count - math.ceil(p / 100.0 * count) >= beyond


def median(samples: Iterable[float]) -> float:
    data = list(samples)
    return statistics.median(data) if data else 0.0


#: The reference loop's median time on the 2-core host the benchmark was
#: calibrated on (20-23 ms per run); compile times are reported at this
#: reference speed.
REFERENCE_MS = 20.0


def reference_seconds() -> float:
    """Wall time of one fixed reference loop (~20 ms of interpreter and
    small-array numpy work, none of it the compiler's code).

    A shared host runs CPU-bound work up to 1.3x slower for minutes at a
    time.  Timing this loop next to each compile and scaling the compile's
    time by ``REFERENCE_MS`` over the loop's time cancels that drift: over
    ten seeds of 30 s runs the quartile distance of the compile-sc pass
    was 23% of its median in measured milliseconds and 4% at reference
    speed.  Set-up times are scaled by the run's median loop: between two
    sets of ten runs half an hour apart the loop's median moved 1.25x and
    the measured set-up medians 1.2-1.4x.  The serving workloads' sub-2 ms
    requests are bound by wake-ups and socket round trips, not by this
    loop's speed, so they are not scaled (their spread was 5% measured and
    21% scaled).
    """
    import numpy as np

    start = time.perf_counter()
    values = [(i * 7919) % 10007 / 10007.0 for i in range(20000)]
    values.sort()
    buckets: Dict[int, float] = {}
    for i, value in enumerate(values):
        buckets[i % 997] = buckets.get(i % 997, 0.0) + value * i
    acc = 0
    for i in range(60000):
        acc += (i * 31) ^ (i >> 3)
    words = np.arange(4096, dtype=np.uint64)
    for i in range(300):
        words = (words * np.uint64(6364136223846793005)
                 + np.uint64(i)) >> np.uint64(1)
    return time.perf_counter() - start


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0.0 if it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def source_digest() -> str:
    """SHA-256 over the compiler's source files: identifies the code under
    test even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_metadata(seed: int) -> Dict:
    import networkx
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
    }
