"""Speculative-lane benchmark: answer-now latency and upgrade landing.

Drives two real gateways over the same all-cold corpus — one with
``--speculate`` (cold misses answer at the opt-1 tier, a background
opt-3 recompile upgrades the cache entry in place) and one without —
and gates the lane's two promises:

* **answering early must be free or better** — cold-lane p50 *and* p95
  with speculation on stay within 10% of speculation off (the opt-1
  compile is a strict subset of the full pipeline, and the background
  lane's strict priority keeps it off the cold path);
* **the background lane actually converges the store** — the
  upgrade-landed rate over subscribed requests is >= 90%, the
  speculative ledger reconciles (``spec_enqueued`` equals the sum of
  its terminal outcomes), and a warm pass after the upgrades land
  serves every artifact at full tier.

Run directly::

    PYTHONPATH=src python benchmarks/bench_speculative.py           # full
    PYTHONPATH=src python benchmarks/bench_speculative.py --smoke   # CI gate

``--out``/``--baseline`` match the other benches: JSON dump plus a
regression gate (upgrade-latency p50 more than doubled, or the landed
rate below half the committed baseline, fails) on top of the ratios.
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
from repro.service.metrics import SPECULATIVE  # noqa: E402

COLD_RATIO_CEILING = 1.10       # spec-on cold p50/p95 vs spec-off
LANDED_RATE_FLOOR = 0.90


def cold_corpus(size: int) -> List[Dict]:
    """Unique small programs: every request is a genuine cold miss, so
    the on/off comparison measures the cold lane and nothing else."""
    paulis = "IXYZ"
    corpus: List[Dict] = []
    state = 17
    while len(corpus) < size:
        index = len(corpus)
        terms = []
        for _ in range(2 + index % 3):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            label = "".join(paulis[(state >> (2 * q)) & 3] for q in range(5))
            if set(label) == {"I"}:
                label = "XY" + label[2:]
            terms.append(f"({label}, 1.0)")
        text = "{" + ", ".join(terms) + f", 0.{1 + index % 9}}};"
        corpus.append({"text": text, "label": f"spec{index}"})
    return corpus


class GatewayProcess:
    """`repro.cli serve` in a subprocess bound to a workdir unix socket."""

    def __init__(self, workdir: Path, workers: int, speculate: bool):
        workdir.mkdir(parents=True, exist_ok=True)
        self.socket_path = str(workdir / "gw.sock")
        self.cache_dir = str(workdir / "cache")
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--socket", self.socket_path, "--cache", self.cache_dir,
                "--workers", str(workers)]
        if speculate:
            argv += ["--speculate", "--speculative-limit", "64"]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
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


def percentiles(samples: List[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    p50 = ordered[len(ordered) // 2]
    p95 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))]
    return {"p50_ms": round(p50 * 1e3, 3), "p95_ms": round(p95 * 1e3, 3),
            "max_ms": round(ordered[-1] * 1e3, 3)}


async def cold_pass(socket_path: str, corpus: List[Dict],
                    subscribe: bool) -> Dict:
    """Serial cold round trips.  With ``subscribe`` every request asks
    for the upgrade push and the pass waits for it to land before the
    next request: each cold sample then measures the answer-now path
    itself, not CPU contention with the previous request's background
    recompile (on a one-core runner the lanes can't overlap for free —
    the soak covers overlapped traffic)."""
    client = await GatewayClient.connect(socket_path=socket_path)
    samples: List[float] = []
    tiers: Dict[str, int] = {}
    landed = 0
    upgrade_ms: List[float] = []
    for index, spec in enumerate(corpus):
        t0 = time.perf_counter()
        response = await client.compile(spec, f"c{index}", timeout=300,
                                        want_upgrade=subscribe)
        samples.append(time.perf_counter() - t0)
        if not response.get("ok"):
            raise RuntimeError(f"cold compile failed: {response}")
        tier = response.get("tier") or "full"
        tiers[tier] = tiers.get(tier, 0) + 1
        if subscribe:
            push = await client.wait_upgrade(f"c{index}", timeout=300)
            if push.get("ok"):
                landed += 1
                upgrade_ms.append(push["upgrade_ms"])
    stats = await client.stats()
    await client.close()

    row = {
        "kernel": "cold_spec_on" if subscribe else "cold_spec_off",
        "workload": "unique-cold-corpus", "jobs": len(corpus),
        "tiers": tiers, **percentiles(samples),
    }
    if subscribe:
        upgrade_ms.sort()
        spec = stats["speculative"]
        row.update({
            "upgrades_landed": landed,
            "landed_rate": round(landed / len(corpus), 4),
            "upgrade_p50_ms": (round(upgrade_ms[len(upgrade_ms) // 2], 3)
                               if upgrade_ms else None),
            "upgrade_max_ms": (round(upgrade_ms[-1], 3)
                               if upgrade_ms else None),
            "speculative": {k: v for k, v in spec.items()
                            if k.startswith("spec_")},
        })
    return row


async def warm_full_tier_pass(socket_path: str, corpus: List[Dict]) -> Dict:
    """After the upgrades landed, every warm hit must serve full tier."""
    client = await GatewayClient.connect(socket_path=socket_path)
    samples: List[float] = []
    full = 0
    misses = 0
    for index, spec in enumerate(corpus):
        t0 = time.perf_counter()
        response = await client.compile(spec, f"w{index}", timeout=120)
        samples.append(time.perf_counter() - t0)
        if not response.get("cached"):
            misses += 1
        if response.get("tier") == "full":
            full += 1
    await client.close()
    return {
        "kernel": "warm_after_upgrade", "workload": "unique-cold-corpus",
        "jobs": len(corpus), "uncached": misses, "full_tier": full,
        **percentiles(samples),
    }


def check_baseline(rows: List[Dict], path: str) -> List[str]:
    with open(path) as handle:
        baseline = {row["kernel"]: row for row in json.load(handle)["rows"]}
    problems = []
    on = next(r for r in rows if r["kernel"] == "cold_spec_on")
    recorded = baseline.get("cold_spec_on")
    if recorded is None:
        return ["baseline file lacks a cold_spec_on row"]
    if recorded.get("upgrade_p50_ms") and on.get("upgrade_p50_ms") and \
            on["upgrade_p50_ms"] > recorded["upgrade_p50_ms"] * 2.0:
        problems.append(
            f"upgrade p50 {on['upgrade_p50_ms']:.1f}ms more than doubled "
            f"vs the committed baseline {recorded['upgrade_p50_ms']:.1f}ms")
    if on["landed_rate"] < recorded["landed_rate"] / 2.0:
        problems.append(
            f"landed rate {on['landed_rate']:.2f} fell below half the "
            f"committed baseline {recorded['landed_rate']:.2f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: smaller corpus")
    parser.add_argument("--corpus-size", type=int, default=None)
    # Two workers by default: the background lane keeps one slot in
    # reserve for cold arrivals, which is the configuration the cold-
    # parity gate is really about (a single worker serializes the lanes
    # through preemption instead).
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    size = args.corpus_size or (12 if args.smoke else 32)
    corpus = cold_corpus(size)
    rows: List[Dict] = []
    failed = False

    with tempfile.TemporaryDirectory() as tmp:
        # Speculation OFF: the reference cold lane.
        off_gw = GatewayProcess(Path(tmp) / "off", workers=args.workers,
                                speculate=False)
        try:
            off = asyncio.run(cold_pass(off_gw.socket_path, corpus,
                                        subscribe=False))
        finally:
            if off_gw.stop() != 0:
                print("FAIL: speculation-off gateway dirty shutdown",
                      file=sys.stderr)
                failed = True
        rows.append(off)
        print(f"spec off    {off['jobs']} cold    p50 {off['p50_ms']:7.2f}ms  "
              f"p95 {off['p95_ms']:7.2f}ms")

        # Speculation ON: answer at opt-1, upgrade in the background.
        on_gw = GatewayProcess(Path(tmp) / "on", workers=args.workers,
                               speculate=True)
        try:
            on = asyncio.run(cold_pass(on_gw.socket_path, corpus,
                                       subscribe=True))
            rows.append(on)
            print(f"spec on     {on['jobs']} cold    p50 {on['p50_ms']:7.2f}ms  "
                  f"p95 {on['p95_ms']:7.2f}ms  "
                  f"(landed {on['upgrades_landed']}/{on['jobs']}, "
                  f"upgrade p50 {on['upgrade_p50_ms']}ms)")

            warm = asyncio.run(warm_full_tier_pass(on_gw.socket_path, corpus))
            rows.append(warm)
            print(f"warm after  {warm['jobs']} reqs    "
                  f"p50 {warm['p50_ms']:7.2f}ms  "
                  f"({warm['full_tier']}/{warm['jobs']} full tier)")
        finally:
            if on_gw.stop() != 0:
                print("FAIL: speculation-on gateway dirty shutdown",
                      file=sys.stderr)
                failed = True

    # -- gates --------------------------------------------------------------
    if on["tiers"].get("opt1", 0) != on["jobs"]:
        print(f"FAIL: speculation on answered tiers {on['tiers']}, "
              f"expected all opt1", file=sys.stderr)
        failed = True
    for quantile in ("p50_ms", "p95_ms"):
        if on[quantile] > off[quantile] * COLD_RATIO_CEILING:
            print(f"FAIL: cold {quantile} with speculation on "
                  f"({on[quantile]:.2f}ms) exceeds {COLD_RATIO_CEILING:.2f}x "
                  f"the speculation-off lane ({off[quantile]:.2f}ms)",
                  file=sys.stderr)
            failed = True
    if on["landed_rate"] < LANDED_RATE_FLOOR:
        print(f"FAIL: upgrade landed rate {on['landed_rate']:.2f} below "
              f"the {LANDED_RATE_FLOOR:.2f} floor", file=sys.stderr)
        failed = True
    ledger = on["speculative"]
    outcomes = sum(ledger[name] for name in SPECULATIVE.outcomes)
    if ledger[SPECULATIVE.intake] != outcomes:
        print(f"FAIL: speculative ledger does not reconcile: {ledger}",
              file=sys.stderr)
        failed = True
    if warm["uncached"] or warm["full_tier"] != warm["jobs"]:
        print(f"FAIL: warm pass after upgrades: {warm['uncached']} misses, "
              f"{warm['full_tier']}/{warm['jobs']} full tier",
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
    print("\nspeculative-lane floors satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
