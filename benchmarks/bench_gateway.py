"""Gateway benchmark: warm-hit latency and sustained throughput under load.

Drives a *real* gateway — ``python -m repro.cli serve`` in a subprocess,
unix socket, process-pool workers, on-disk cache — with a 50-spec mixed
corpus (FT + SC backends, text programs and registry benchmarks, with
duplicates, the shape of variational-loop traffic), and gates:

* **warm-hit p50** — serial round trips over the fully cached corpus;
  the acceptance floor is p50 <= 10 ms (the paper's pitch is that a
  deterministic compiler should answer repeat traffic at cache speed);
* **sustained throughput** — a pipelined window of requests kept full
  for a timed interval; floor >= 200 req/s on a single core;
* **drain & shutdown** — after the storm the queue must be empty, the
  stats ledger must reconcile, and SIGTERM must exit 0.

Run directly::

    PYTHONPATH=src python benchmarks/bench_gateway.py           # full
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke   # CI gate

``--out``/``--baseline`` match the other benches: JSON dump plus a
regression gate (throughput below half the committed baseline, or p50
above double, fails) on top of the absolute floors.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.service import GatewayClient  # noqa: E402
from repro.service.metrics import REQUESTS  # noqa: E402

WARM_P50_FLOOR_MS = 10.0
THROUGHPUT_FLOOR = 200.0


def mixed_corpus(size: int = 50) -> List[Dict]:
    """Deterministic mixed corpus: FT/SC, text/registry, ~20% duplicates."""
    corpus: List[Dict] = [
        {"benchmark": "Ising-1D", "scale": "small"},
        {"benchmark": "Heisen-1D", "scale": "small"},
        {"benchmark": "UCCSD-8", "scale": "small"},
        {"benchmark": "REG-20-4", "scale": "small"},
    ]
    paulis = "IXYZ"
    state = 11
    while len(corpus) < size:
        index = len(corpus)
        if index % 5 == 4:
            # Duplicate an earlier entry: repeat traffic must dedupe/hit.
            corpus.append(dict(corpus[index // 2], label=f"dup{index}"))
            continue
        terms = []
        for t in range(2 + index % 3):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            label = "".join(
                paulis[(state >> (2 * q)) & 3] for q in range(5))
            if set(label) == {"I"}:
                label = "XX" + label[2:]
            terms.append(f"({label}, 1.0)")
        text = "{" + ", ".join(terms) + f", 0.{1 + index % 9}}};"
        spec = {"text": text, "label": f"rand{index}"}
        if index % 7 == 3:
            spec["backend"] = "sc"
            spec["coupling"] = {"num_qubits": 5,
                                "edges": [[i, i + 1] for i in range(4)]}
        corpus.append(spec)
    return corpus[:size]


class GatewayProcess:
    """`repro.cli serve` in a subprocess bound to a workdir unix socket."""

    def __init__(self, workdir: Path, workers: int = 1):
        self.socket_path = str(workdir / "gw.sock")
        self.cache_dir = str(workdir / "cache")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--socket", self.socket_path, "--cache", self.cache_dir,
             "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(REPO),
        )
        deadline = time.monotonic() + 60
        line = ""
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if "listening" in line:
                return
            if self.process.poll() is not None:
                break
        raise RuntimeError(f"gateway failed to start: {line!r}")

    def stop(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -9
        return self.process.returncode


async def cold_pass(socket_path: str, corpus: List[Dict]) -> Dict:
    client = await GatewayClient.connect(socket_path=socket_path)
    start = time.perf_counter()
    responses, _ = await client.run_specs(corpus, window=8, id_prefix="cold",
                                          timeout=600)
    wall = time.perf_counter() - start
    failed = [r for r in responses if not (r and r.get("ok"))]
    await client.close()
    if failed:
        raise RuntimeError(f"cold pass failed {len(failed)} jobs: {failed[:2]}")
    return {
        "kernel": "cold_pass", "workload": "mixed-corpus",
        "jobs": len(corpus), "wall_s": round(wall, 3),
        "compiled": sum(1 for r in responses if not r.get("cached")),
    }


async def warm_latency(socket_path: str, corpus: List[Dict],
                       rounds: int) -> Dict:
    """Serial round trips over the cached corpus: per-request latency."""
    client = await GatewayClient.connect(socket_path=socket_path)
    samples: List[float] = []
    misses = 0
    for round_index in range(rounds):
        for index, spec in enumerate(corpus):
            t0 = time.perf_counter()
            response = await client.compile(
                spec, f"w{round_index}-{index}", timeout=120)
            samples.append(time.perf_counter() - t0)
            if not response.get("cached"):
                misses += 1
    await client.close()
    samples.sort()
    p50 = samples[len(samples) // 2]
    p95 = samples[min(len(samples) - 1, int(len(samples) * 0.95))]
    return {
        "kernel": "warm_latency", "workload": "mixed-corpus",
        "samples": len(samples), "uncached": misses,
        "p50_ms": round(p50 * 1e3, 3), "p95_ms": round(p95 * 1e3, 3),
        "max_ms": round(samples[-1] * 1e3, 3),
    }


async def sustained_throughput(socket_path: str, corpus: List[Dict],
                               seconds: float, window: int = 16) -> Dict:
    """Keep ``window`` requests in flight for ``seconds``; count completions."""
    client = await GatewayClient.connect(socket_path=socket_path)
    completed = 0
    errors = 0
    sent = 0
    deadline = time.monotonic() + seconds

    async def send_one():
        nonlocal sent
        spec = corpus[sent % len(corpus)]
        await client._send({"op": "compile", "id": f"t{sent}", "spec": spec})
        sent += 1

    start = time.monotonic()
    for _ in range(window):
        await send_one()
    while time.monotonic() < deadline:
        frame = await asyncio.wait_for(client._read_frame(), 120)
        if frame.get("op") != "compile":
            continue
        completed += 1
        if not frame.get("ok"):
            errors += 1
        await send_one()
    wall = time.monotonic() - start
    # Drain the tail so the server ledger reconciles before stats.
    while completed < sent:
        frame = await asyncio.wait_for(client._read_frame(), 120)
        if frame.get("op") == "compile":
            completed += 1
            if not frame.get("ok"):
                errors += 1
    stats = await client.stats()
    await client.close()
    return {
        "kernel": "sustained", "workload": "mixed-corpus",
        "seconds": round(wall, 3), "completed": completed, "errors": errors,
        "req_per_s": round(completed / wall, 1),
        "hit_rate": stats["cache"]["hit_rate"],
        "queue_depth_after": stats["queue"]["depth"],
        "server_requests": stats["requests"],
    }


def check_baseline(rows: List[Dict], path: str) -> List[str]:
    with open(path) as handle:
        baseline = {row["kernel"]: row for row in json.load(handle)["rows"]}
    problems = []
    warm = next(r for r in rows if r["kernel"] == "warm_latency")
    sustained = next(r for r in rows if r["kernel"] == "sustained")
    recorded_warm = baseline.get("warm_latency")
    recorded_sustained = baseline.get("sustained")
    if recorded_warm is None or recorded_sustained is None:
        return ["baseline file lacks warm_latency/sustained rows"]
    if warm["p50_ms"] > recorded_warm["p50_ms"] * 2.0:
        problems.append(
            f"warm p50 {warm['p50_ms']:.2f}ms more than doubled vs the "
            f"committed baseline {recorded_warm['p50_ms']:.2f}ms")
    if sustained["req_per_s"] < recorded_sustained["req_per_s"] / 2.0:
        problems.append(
            f"throughput {sustained['req_per_s']:.0f} req/s fell below half "
            f"the committed baseline {recorded_sustained['req_per_s']:.0f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: shorter sustained interval")
    parser.add_argument("--corpus-size", type=int, default=50)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    corpus = mixed_corpus(args.corpus_size)
    warm_rounds = 2 if args.smoke else 4
    sustained_s = 3.0 if args.smoke else 10.0

    rows: List[Dict] = []
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        gateway = GatewayProcess(Path(tmp), workers=args.workers)
        try:
            row = asyncio.run(cold_pass(gateway.socket_path, corpus))
            rows.append(row)
            print(f"cold pass   {row['jobs']} jobs     wall {row['wall_s']:7.2f}s  "
                  f"({row['compiled']} compiled)")

            row = asyncio.run(warm_latency(gateway.socket_path, corpus,
                                           warm_rounds))
            rows.append(row)
            print(f"warm hits   {row['samples']} reqs    p50 {row['p50_ms']:6.2f}ms  "
                  f"p95 {row['p95_ms']:6.2f}ms  max {row['max_ms']:6.2f}ms")
            if row["uncached"]:
                print(f"FAIL: {row['uncached']} warm requests missed the cache",
                      file=sys.stderr)
                failed = True
            if row["p50_ms"] > WARM_P50_FLOOR_MS:
                print(f"FAIL: warm p50 {row['p50_ms']:.2f}ms above the "
                      f"{WARM_P50_FLOOR_MS:.0f}ms floor", file=sys.stderr)
                failed = True

            row = asyncio.run(sustained_throughput(
                gateway.socket_path, corpus, sustained_s))
            rows.append(row)
            print(f"sustained   {row['completed']} reqs    "
                  f"{row['req_per_s']:7.1f} req/s over {row['seconds']:.1f}s  "
                  f"(hit rate {row['hit_rate']})")
            if row["errors"]:
                print(f"FAIL: {row['errors']} errored responses under load",
                      file=sys.stderr)
                failed = True
            if row["req_per_s"] < THROUGHPUT_FLOOR:
                print(f"FAIL: {row['req_per_s']:.0f} req/s below the "
                      f"{THROUGHPUT_FLOOR:.0f} req/s floor", file=sys.stderr)
                failed = True
            if row["queue_depth_after"] != 0:
                print("FAIL: queue did not drain after the storm",
                      file=sys.stderr)
                failed = True
            served = row["server_requests"]
            outcomes = sum(served[name] for name in REQUESTS.outcomes)
            if served[REQUESTS.intake] != outcomes:
                print(f"FAIL: ledger does not reconcile: {served}",
                      file=sys.stderr)
                failed = True
        finally:
            code = gateway.stop()
        print(f"shutdown    exit code {code}")
        if code != 0:
            print("FAIL: gateway did not shut down cleanly", file=sys.stderr)
            failed = True
        # A clean shutdown leaves no partial artifacts in the store.
        leftovers = list(Path(tmp).rglob("*.tmp"))
        if leftovers:
            print(f"FAIL: partial artifacts left on disk: {leftovers}",
                  file=sys.stderr)
            failed = True

    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"mode": "smoke" if args.smoke else "full",
                       "corpus": len(corpus), "workers": args.workers,
                       "rows": rows}, handle, indent=2)
        print(f"\nwrote timings to {args.out}")
    if args.baseline:
        for problem in check_baseline(rows, args.baseline):
            print(f"FAIL: {problem}", file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("\ngateway floors satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
