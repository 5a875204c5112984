"""Every path that stores a compiled kernel stores the same bytes.

One spec goes through each publishing path: the gateway in thread mode
and in process mode, each on a disk store and memory-only;
``compile_batch`` serially and with a pool; and
``compile_program(cache=...)``.  The artifact each path leaves in its
store must be byte-identical to a direct ``compile_program`` +
``dumps_artifact``, and the write ledger (``puts`` / ``upgraded`` /
``stale_upgrades``) must read the same on every path.  A cancelled
compile publishes nothing.

The speculative gateways cover all three tiers in one run: a spec with
peephole off compiles at full effort (``put``), a peephole spec answers
at the fast opt-1 tier (``put_tiered``) and the background recompile
replaces it (``upgrade``).  Process mode spawns a pool, so only two
process-mode gateways run here.
"""

import asyncio
import json
import time

import pytest

from repro.core import CompilationCancelled, compile_program
from repro.service import (
    CompileCache,
    CompileGateway,
    GatewayClient,
    GatewayConfig,
    compile_batch,
    dumps_artifact,
    resolve_spec,
)
from repro.service.protocol import E_CANCELLED

#: Compiles at the fast tier when the gateway speculates.
TIERED = {"text": "{(XXIZ, 1.0), (YYZI, 0.5), 0.3};\n{(ZZXX, -0.7), 0.2};",
          "label": "tiered"}
#: Peephole off: nothing to speed up, so full effort on every gateway.
FULL = {"text": "{(IZZY, -0.25), (XIXI, 0.4), 0.7};", "label": "full",
        "run_peephole": False}
#: About 0.7 s of scheduling before the first pass boundary, so a cancel
#: sent once the job is in flight lands mid-compile.
SLOW = {"benchmark": "Rand-30", "scale": "paper", "label": "slow",
        "run_peephole": False}

LEDGER = ("puts", "upgraded", "stale_upgrades")


def reference(spec, fast=False):
    """``(fingerprint, artifact text)`` of a direct compile of ``spec``."""
    job = resolve_spec(spec)
    kwargs = {"run_peephole": job.options["run_peephole"]}
    if fast:
        kwargs.update(restarts=1, peephole_level=1)
    result = compile_program(job.program, **kwargs)
    result.fingerprint = job.fingerprint()
    return result.fingerprint, dumps_artifact(result)


def ledger(cache):
    counts = cache.stats.snapshot()
    return {key: counts[key] for key in LEDGER}


def stored(cache, fingerprint):
    """The bytes a store holds for a key: read from disk through a fresh
    handle when there is a disk tier, else from the memory front."""
    if cache.root is not None:
        return CompileCache(cache.root).get(fingerprint)
    return cache.get_memory(fingerprint)


def run(coro):
    return asyncio.run(coro)


async def cancel_in_flight(client, spec):
    """Send ``spec``, cancel it once it holds a compile slot, and return
    the compile's answer frame."""
    await client._send({"op": "compile", "id": "victim", "spec": spec})
    deadline = time.monotonic() + 120
    while (await client.stats())["queue"]["in_flight"] == 0:
        assert time.monotonic() < deadline, "victim never dispatched"
        await asyncio.sleep(0.01)
    await client.cancel("victim")
    answer = await client._wait("compile", "victim", "answer", 240)
    while (await client.stats())["queue"]["in_flight"]:
        assert time.monotonic() < deadline, "cancelled compile never ended"
        await asyncio.sleep(0.01)
    return answer


@pytest.mark.parametrize("workers", [0, 1], ids=["thread", "process"])
@pytest.mark.parametrize("disk", [True, False], ids=["disk", "memory"])
def test_speculative_gateway_publishes_every_tier(tmp_path, workers, disk):
    full_fp, full_text = reference(FULL)
    tiered_fp, fast_text = reference(TIERED, fast=True)
    _, upgraded_text = reference(TIERED)
    slow_fp = resolve_spec(SLOW).fingerprint()
    assert fast_text != upgraded_text

    async def scenario():
        gateway = CompileGateway(GatewayConfig(
            cache_root=str(tmp_path / "cache") if disk else None,
            workers=workers, port=0, speculate=True))
        await gateway.start()
        try:
            client = await GatewayClient.connect(port=gateway.port)
            full = await client.compile(FULL, "full", timeout=240)
            assert full["ok"] and full["tier"] == "full"
            assert stored(gateway.cache, full_fp) == full_text

            fast = await client.compile(TIERED, "fast", want="artifact",
                                        want_upgrade=True, timeout=240)
            assert fast["ok"] and fast["tier"] == "opt1"
            assert fast["fingerprint"] == tiered_fp
            assert fast["artifact"] == json.loads(fast_text)
            push = await client.wait_upgrade("fast", timeout=240)
            assert push["ok"] and push["tier"] == "full"
            assert stored(gateway.cache, tiered_fp) == upgraded_text

            before = ledger(gateway.cache)
            assert before == {"puts": 2, "upgraded": 1, "stale_upgrades": 0}
            answer = await cancel_in_flight(client, SLOW)
            assert answer["ok"] is False and answer["code"] == E_CANCELLED
            assert ledger(gateway.cache) == before
            assert stored(gateway.cache, slow_fp) is None
            await client.close()
        finally:
            await gateway.close()

    run(scenario())


def test_thread_gateway_full_effort_publish(tmp_path):
    fingerprint, text = reference(TIERED)

    async def scenario():
        gateway = CompileGateway(GatewayConfig(
            cache_root=str(tmp_path / "cache"), workers=0, port=0))
        await gateway.start()
        try:
            client = await GatewayClient.connect(port=gateway.port)
            cold = await client.compile(TIERED, "r1")
            assert cold["ok"] and cold["fingerprint"] == fingerprint
            assert ledger(gateway.cache) == {
                "puts": 1, "upgraded": 0, "stale_upgrades": 0}
            assert stored(gateway.cache, fingerprint) == text
            await client.close()
        finally:
            await gateway.close()

    run(scenario())


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("disk", [True, False], ids=["disk", "memory"])
def test_compile_batch_publishes_the_same_bytes(tmp_path, workers, disk):
    expected = dict([reference(TIERED), reference(FULL)])
    cache = CompileCache(tmp_path / "cache" if disk else None)
    batch = compile_batch([TIERED, FULL, TIERED], cache=cache,
                          workers=workers)
    assert batch.dispatched_jobs == 2
    assert ledger(cache) == {"puts": 2, "upgraded": 0, "stale_upgrades": 0}
    for entry in batch.entries:
        assert entry.artifact == expected[entry.fingerprint]
    for fingerprint, text in expected.items():
        assert stored(cache, fingerprint) == text


@pytest.mark.parametrize("disk", [True, False], ids=["disk", "memory"])
def test_compile_program_publishes_the_same_bytes(tmp_path, disk):
    fingerprint, full_text = reference(TIERED)
    _, fast_text = reference(TIERED, fast=True)
    program = resolve_spec(TIERED).program

    cache = CompileCache(tmp_path / "fast" if disk else None)
    compile_program(program, cache=cache, peephole_level=1)
    assert ledger(cache) == {"puts": 1, "upgraded": 0, "stale_upgrades": 0}
    assert stored(cache, fingerprint) == fast_text
    # A full compile finds the fast artifact below its tier, recompiles
    # and overwrites it with a plain put.
    compile_program(program, cache=cache)
    assert ledger(cache) == {"puts": 2, "upgraded": 0, "stale_upgrades": 0}
    assert stored(cache, fingerprint) == full_text

    cache = CompileCache(tmp_path / "cancel" if disk else None)
    with pytest.raises(CompilationCancelled):
        compile_program(program, cache=cache, cancel=lambda: True)
    assert ledger(cache) == {"puts": 0, "upgraded": 0, "stale_upgrades": 0}
    assert len(cache) == 0
