"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
* ``list`` — show the benchmark registry (Table 1 names);
* ``compile NAME`` — compile one benchmark with Paulihedral and print the
  paper metrics, optionally against the baselines;
* ``compile-batch SPECS.jsonl`` — serve a JSONL stream of program specs
  through the content-addressed cache and worker pool, writing one JSONL
  artifact row per input plus a cache-stats summary;
* ``verify SPECS.jsonl --cache DIR`` — re-fingerprint each spec's program
  and run the Pauli-propagation verifier over the artifact the cache
  stores for it (catches stale, corrupted, or miscompiled artifacts at
  any qubit count, no statevector involved);
* ``check`` — static analysis: with no arguments, validate every
  shipped pipeline against the pass-contract checker and print the
  property flow; with ``SPECS.jsonl --cache DIR``, sweep each spec's
  program and stored artifact with the IR invariant analyzer, naming
  the first broken invariant (e.g. ``tape.wire-links``) on failure;
* ``serve`` — run the async compile gateway: a long-lived daemon serving
  newline-delimited JSON compile requests over a local socket, with
  admission control and the content-addressed cache shared across all
  clients (see :mod:`repro.service.gateway`);
* ``serve-cluster`` — run a sharded N-node fabric: a supervisor spawns N
  gateway nodes (each serving its own ``GatewayConfig`` as ``serve`` does,
  peers wired for pull-through replication) and fronts them with the
  consistent-hash router (see :mod:`repro.service.cluster`), surviving
  any single node dying;
* ``client SPECS.jsonl`` — stream a JSONL spec file through a running
  gateway or cluster router (pipelined), or query its ``stats`` verb;
* ``table1|table2|table3|table4|fig11`` — regenerate one experiment and
  print the report table.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from typing import List, Optional

from .analysis import (
    circuit_metrics,
    fig11_study,
    format_table,
    table1_inventory,
    table2_compare,
    table3_compare,
    table4_passes,
)
from .baselines import tk_compile
from .core import compile_program
from .service import (
    ClusterConfig,
    ClusterRouter,
    ClusterSupervisor,
    CompileCache,
    CompileGateway,
    GatewayClient,
    GatewayConfig,
    compile_batch,
    loads_artifact,
    plan_cluster,
    prepare_unix_path,
    resolve_spec,
    result_from_dict,
)
from .transpile import manhattan_65, transpile, validate_routed
from .workloads import BENCHMARKS, benchmark_names, build_benchmark, random_graph, regular_graph

__all__ = ["main", "serve_gateway"]

#: ``serve`` and ``client`` default to this TCP port; ``GatewayConfig``'s
#: own default, 0, binds an ephemeral one.
SERVE_PORT = 7421
#: The ``serve`` / ``serve-cluster`` flags that configure a node's gateway
#: (``_add_node_flags``), by their ``GatewayConfig`` field names.
_NODE_FLAGS = ("workers", "queue_limit", "replica_probes", "speculate",
               "speculative_limit")


def _cmd_list(_args) -> int:
    rows = [
        [name, spec.backend, spec.family]
        for name, spec in BENCHMARKS.items()
    ]
    print(format_table(["Benchmark", "Backend", "Family"], rows))
    return 0


def _resolve_device_arg(value: Optional[str]):
    """``--device`` accepts a registry name or a snapshot JSON path."""
    if value is None:
        return None
    from .transpile import get_device, load_device

    if value.endswith(".json") or os.path.sep in value or os.path.exists(value):
        return load_device(value)
    return get_device(value)


def _cmd_compile(args) -> int:
    spec = BENCHMARKS.get(args.name)
    if spec is None:
        print(f"unknown benchmark {args.name!r}; try 'list'", file=sys.stderr)
        return 2
    try:
        device = _resolve_device_arg(args.device)
    except (ValueError, OSError, KeyError) as exc:
        print(f"bad --device: {exc}", file=sys.stderr)
        return 2
    program = spec.build(args.scale)
    if device is not None:
        coupling = device.coupling if spec.backend == "sc" else None
        kwargs = {"device": device}
    else:
        coupling = manhattan_65() if spec.backend == "sc" else None
        kwargs = {"coupling": coupling} if coupling is not None else {}

    verification = None
    if args.opt_level is None and args.frontend == "ph":
        # Legacy path: Paulihedral frontend with its own peephole cleanup.
        result = compile_program(
            program, backend=spec.backend, scheduler=args.scheduler, **kwargs
        )
        header = f"{args.name} ({spec.backend} backend, scheduler={result.scheduler})"
        metrics = result.metrics
        esp_circuit = result.circuit
        if args.verify:
            from .verify import verify_result

            verification = verify_result(program, result)
    else:
        # Table 2 path: frontend without its own cleanup, then the generic
        # level-N pipeline (optimize / coupling-aware routing / re-optimize).
        level = 3 if args.opt_level is None else args.opt_level
        if args.frontend == "tk":
            if args.scheduler is not None:
                print(
                    "warning: --scheduler only applies to the ph frontend; "
                    "ignored for --frontend tk",
                    file=sys.stderr,
                )
            if args.verify:
                print(
                    "--verify needs the ph frontend's emitted term order; "
                    "not supported with --frontend tk",
                    file=sys.stderr,
                )
                return 2
            circuit = tk_compile(program).circuit
            tag = "tk"
            needs_routing = spec.backend == "sc"
        else:
            result = compile_program(
                program, backend=spec.backend, scheduler=args.scheduler,
                run_peephole=False, **kwargs,
            )
            circuit = result.circuit
            tag = f"ph/{result.scheduler}"
            needs_routing = False  # the SC frontend routes by construction
        circuit = transpile(
            circuit,
            coupling=coupling if needs_routing else None,
            optimization_level=level,
            edge_error=(
                device.edge_error()
                if device is not None and needs_routing else None
            ),
        )
        if coupling is not None:
            validate_routed(circuit, coupling)
        header = (
            f"{args.name} ({spec.backend} backend, frontend={tag}, "
            f"generic level {level})"
        )
        metrics = circuit_metrics(circuit)
        esp_circuit = circuit
        if args.verify:
            from .verify import verify_circuit

            verification = verify_circuit(
                circuit,
                result.emitted_terms,
                initial_layout=result.initial_layout,
                final_layout=result.final_layout,
            )

    print(header)
    print(format_table(
        ["CNOT", "Single", "Total", "Depth"],
        [[metrics["cnot"], metrics["single"], metrics["total"], metrics["depth"]]],
    ))
    if device is not None:
        from .noise.model import esp

        # Routed SC circuits sit on calibrated hardware (strict); FT
        # circuits act on virtual all-to-all edges (lenient).
        value = esp(esp_circuit, device.noise_model,
                    strict=spec.backend == "sc")
        print(f"ESP on {device.name}: {value:.4g}")
    if verification is not None:
        print(verification.describe())
        if not verification.ok:
            return 1
    return 0


def _read_specs(path: str):
    """Load a JSONL job-spec file; returns ``None`` after printing on error."""
    try:
        with open(path) as handle:
            specs = [
                json.loads(line)
                for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read spec file {path!r}: {exc}", file=sys.stderr)
        return None
    if not specs:
        print(f"no job specs found in {path!r}", file=sys.stderr)
        return None
    return specs


def _cmd_compile_batch(args) -> int:
    specs = _read_specs(args.specs)
    if specs is None:
        return 2
    if args.device:
        try:
            default_device = _resolve_device_arg(args.device)
        except (ValueError, OSError, KeyError) as exc:
            print(f"bad --device: {exc}", file=sys.stderr)
            return 2
        snapshot = default_device.to_snapshot()
        for spec in specs:
            if "device" not in spec and "coupling" not in spec:
                spec["device"] = snapshot

    cache = CompileCache(args.cache) if args.cache else CompileCache()
    try:
        batch = compile_batch(specs, cache=cache, workers=args.workers)
    except ValueError as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2

    if args.out:
        metrics_by_fp = {}
        with open(args.out, "w") as handle:
            for entry in batch.entries:
                artifact = json.loads(entry.artifact)
                # Entries sharing a fingerprint share a byte-identical
                # artifact; rebuild the gate tape only once per unique one.
                metrics = metrics_by_fp.get(entry.fingerprint)
                if metrics is None:
                    metrics = result_from_dict(artifact).metrics
                    metrics_by_fp[entry.fingerprint] = metrics
                handle.write(json.dumps({
                    "index": entry.index,
                    "label": entry.label,
                    "fingerprint": entry.fingerprint,
                    "cached": entry.cached,
                    "deduped": entry.deduped,
                    "seconds": entry.seconds,
                    "metrics": metrics,
                    "artifact": artifact,
                }, sort_keys=True) + "\n")

    summary = batch.summary()
    rows = [[
        entry.index, entry.label,
        "hit" if entry.cached else ("dedup" if entry.deduped else "compiled"),
        f"{entry.seconds:.3f}s", entry.fingerprint[:12],
    ] for entry in batch.entries]
    print(format_table(["#", "Job", "Source", "Time", "Fingerprint"], rows))
    stats = summary.pop("cache", {})
    print(
        f"jobs={summary['jobs']} unique={summary['unique']} "
        f"dispatched={summary['dispatched']} cache_hits={summary['cache_hits']} "
        f"deduped={summary['deduped']} workers={summary['workers']} "
        f"wall={summary['wall_seconds']:.3f}s"
    )
    if stats:
        print(
            f"cache: hits={stats['hits']} (memory {stats['memory_hits']}, "
            f"disk {stats['disk_hits']}) misses={stats['misses']} "
            f"puts={stats['puts']} evictions={stats['evictions']}"
        )
    if args.out:
        print(f"wrote {len(batch.entries)} artifact rows to {args.out}")
    return 0


def _judge_cached_specs(args, judge, headers, summary) -> int:
    """The spec loop shared by ``verify`` and ``check SPECS --cache``.

    Reads the spec file, resolves and fingerprints each spec, probes the
    cache at ``args.cache`` and decodes the artifact it holds.
    ``judge(job, result, error)`` gets the decoded result (``None`` when
    missing or undecodable) and the decode error, and returns an outcome
    (``"ok"``, ``"failed"`` or ``"missing"``) plus the row's status
    cells.  ``summary(tally, total)`` words the closing count line.
    Exits 2 on a bad spec file or line, 1 on a failure or (without
    ``--allow-missing``) a missing artifact, else 0.
    """
    specs = _read_specs(args.specs)
    if specs is None:
        return 2

    cache = CompileCache(args.cache)
    rows = []
    tally = {"ok": 0, "failed": 0, "missing": 0}
    for index, spec in enumerate(specs):
        try:
            job = resolve_spec(spec)
        except ValueError as exc:
            print(f"bad job spec on line {index}: {exc}", file=sys.stderr)
            return 2
        fingerprint = job.fingerprint()
        stored = cache.get(fingerprint)
        result = error = None
        if stored is not None:
            try:
                result = loads_artifact(stored)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                error = exc
        outcome, cells = judge(job, result, error)
        tally[outcome] += 1
        rows.append([index, job.label, fingerprint[:12], *cells])

    print(format_table(headers, rows))
    print(summary(tally, len(specs)))
    if tally["failed"]:
        return 1
    if tally["missing"] and not args.allow_missing:
        print(
            "some artifacts are missing from the cache; compile them first "
            "(compile-batch) or pass --allow-missing",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_verify(args) -> int:
    """Verify stored service artifacts against their fingerprinted programs."""
    from .verify import verify_result

    def judge(job, result, error):
        if error is not None:
            return "failed", ["corrupt", "-", str(error)]
        if result is None:
            return "missing", ["missing", "-", "-"]
        report = verify_result(job.program, result)
        elapsed = f"{report.seconds * 1e3:.1f}ms"
        if report.ok:
            return "ok", ["ok", elapsed, f"{report.gadget_count} gadgets"]
        return "failed", ["FAIL", elapsed, report.mismatch.describe()]

    return _judge_cached_specs(
        args, judge,
        ["#", "Job", "Fingerprint", "Status", "Time", "Detail"],
        lambda tally, total: (
            f"verified={tally['ok']} failed={tally['failed']} "
            f"missing={tally['missing']} of {total} artifact(s)"
        ),
    )


def _cmd_check(args) -> int:
    """Static checks: pipeline contracts or cached-artifact invariants."""
    from .core.passes import shipped_pipelines
    from .static import (
        PipelineChecker,
        PipelineContractError,
        check_program,
        check_result,
    )

    if args.specs is None:
        # Contract mode: prove every pipeline compile_program, ft_compile,
        # sc_compile and transpile can run, and print its property flow.
        checker = PipelineChecker()
        rows = []
        bad = 0
        for pipeline in shipped_pipelines():
            try:
                final = checker.check(
                    pipeline.passes, initial=pipeline.initial,
                    goal=pipeline.goal, name=pipeline.name,
                )
            except PipelineContractError as exc:
                bad += 1
                rows.append([pipeline.name, len(pipeline.passes), "FAIL", str(exc)])
            else:
                rows.append([
                    pipeline.name, len(pipeline.passes), "ok",
                    " ".join(sorted(final)),
                ])
        print(format_table(
            ["Pipeline", "Passes", "Status", "Final properties"], rows))
        print(f"{len(rows) - bad} of {len(rows)} shipped pipelines well-composed")
        return 1 if bad else 0

    if not args.cache:
        print("check SPECS.jsonl needs --cache DIR (the artifact store); "
              "run plain 'check' for the pipeline-contract mode",
              file=sys.stderr)
        return 2

    from .service.batch import _option_kwargs

    def judge(job, result, error):
        # The input program is checked regardless of cache state: a
        # malformed program poisons every artifact derived from it.
        report = check_program(job.program, subject=job.label)
        if error is not None:
            return "failed", ["FAIL", "artifact.decode",
                              f"cannot rebuild artifact: {error}"]
        if result is None:
            if report.ok:
                return "missing", ["missing", "-", "no stored artifact"]
        else:
            coupling = _option_kwargs(job.options)["coupling"]
            report.merge(check_result(result, coupling=coupling))
        if report.ok:
            note = f"{len(report.warnings)} warning(s)" if report.warnings else "-"
            return "ok", ["ok", "-", note]
        first = report.errors[0]
        return "failed", ["FAIL", first.invariant,
                          f"{first.location}: {first.message}"]

    return _judge_cached_specs(
        args, judge,
        ["#", "Job", "Fingerprint", "Status", "Invariant", "Detail"],
        lambda tally, total: (
            f"checked={total - tally['missing']} failed={tally['failed']} "
            f"missing={tally['missing']} of {total} spec(s)"
        ),
    )


async def _serve_until_signal(server, label: str, banner) -> int:
    """Bind ``server``, print ``banner(server)``, and serve until SIGINT,
    SIGTERM or an honoured ``shutdown`` verb; then drain and close.
    Returns the exit status: 0, or 2 when the bind fails."""
    import signal

    try:
        if server.config.socket_path:
            prepare_unix_path(server.config.socket_path)
        await server.start()
    except OSError as exc:
        print(f"cannot bind {label}: {exc}", file=sys.stderr)
        # start() may have allocated the worker pool and cancel dir before
        # the bind failed; release them so supervisor restart loops
        # against a stuck port don't accumulate leaks.
        await server.close(drain=False)
        return 2
    print(banner(server), flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, server.shutdown_requested.set)
    await server.shutdown_requested.wait()
    # "gateway draining..." / "cluster draining...".
    print(f"{label.split()[0]} draining...", flush=True)
    await server.close()
    print(f"{label} stopped", flush=True)
    return 0


def _node_config(args, **fields) -> GatewayConfig:
    """A ``GatewayConfig`` from the ``_NODE_FLAGS`` in ``args``, plus
    ``fields``."""
    flags = {name: getattr(args, name) for name in _NODE_FLAGS}
    return GatewayConfig(**flags, **fields)


def _serve_config(args) -> GatewayConfig:
    peer_stores = tuple(
        p.strip() for p in (args.peer_stores or "").split(",") if p.strip())
    return _node_config(
        args,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        cache_root=args.cache,
        per_client_limit=args.per_client_limit,
        allow_shutdown=args.allow_shutdown,
        peer_stores=peer_stores,
    )


def serve_gateway(config: GatewayConfig) -> int:
    """Run one compile gateway on ``config`` until SIGINT/SIGTERM (exit 0;
    2 when the bind fails).  ``repro serve`` and every ``serve-cluster``
    node run their gateway through here."""
    def banner(gateway) -> str:
        return (f"gateway listening on {gateway.address} "
                f"(cache={config.cache_root or 'memory-only'}, "
                f"workers={config.workers or 'in-process'})")

    return asyncio.run(
        _serve_until_signal(CompileGateway(config), "gateway", banner))


def _cmd_serve(args) -> int:
    """Run the compile gateway daemon until SIGINT/SIGTERM (exit 0)."""
    return serve_gateway(_serve_config(args))


def _parse_tenant_quotas(pairs) -> dict:
    quotas = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not value.isdigit():
            raise ValueError(
                f"bad --tenant-quota {pair!r}; expected NAME=N")
        quotas[name] = int(value)
    return quotas


def _cluster_config(args) -> ClusterConfig:
    """The router's config, its nodes planned under ``args.state_dir``;
    ``ValueError`` on a bad ``--tenant-quota``."""
    config = plan_cluster(
        args.state_dir,
        args.nodes,
        _node_config(args),
        vnodes=args.vnodes,
        per_client_limit=args.per_client_limit,
        tenant_quotas=_parse_tenant_quotas(args.tenant_quota),
        allow_shutdown=args.allow_shutdown,
    )
    if args.socket:
        config.socket_path = args.socket
    return config


def _cmd_serve_cluster(args) -> int:
    """Run an N-node sharded compile fabric until SIGINT/SIGTERM."""
    try:
        config = _cluster_config(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    os.makedirs(args.state_dir, exist_ok=True)
    # A busy or non-socket router path fails before any node is launched.
    try:
        prepare_unix_path(config.socket_path)
    except OSError as exc:
        print(f"cannot bind cluster router: {exc}", file=sys.stderr)
        return 2

    supervisor = ClusterSupervisor(
        config.nodes, log_dir=os.path.join(args.state_dir, "logs"))
    print(f"starting {args.nodes} gateway node(s)...", flush=True)
    try:
        supervisor.start()
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"cannot start cluster nodes: {exc}", file=sys.stderr)
        supervisor.stop()
        return 2

    def banner(router) -> str:
        return (f"cluster listening on {router.address} "
                f"(nodes={len(config.nodes)}, workers={args.workers}, "
                f"healthy={len(router.healthy_nodes())})")

    try:
        return asyncio.run(_serve_until_signal(
            ClusterRouter(config), "cluster router", banner))
    finally:
        supervisor.stop()
        print("cluster nodes stopped", flush=True)


def _cmd_client(args) -> int:
    """Stream specs through a running gateway; exit 1 on any failed job."""
    if not args.stats and not args.specs:
        print("client needs a SPECS.jsonl file (or --stats)", file=sys.stderr)
        return 2
    socket_path = args.socket
    if args.cluster:
        if socket_path:
            print("--cluster and --socket are mutually exclusive",
                  file=sys.stderr)
            return 2
        socket_path = os.path.join(args.cluster, "router.sock")
    specs = None
    if args.specs:
        specs = _read_specs(args.specs)
        if specs is None:
            return 2

    async def run() -> int:
        try:
            client = await GatewayClient.connect(
                socket_path=socket_path, host=args.host, port=args.port,
                timeout=args.timeout,
            )
        except (OSError, asyncio.TimeoutError) as exc:
            print(f"cannot connect to gateway: {exc}", file=sys.stderr)
            return 2
        try:
            if args.stats:
                print(json.dumps(await client.stats(), indent=2, sort_keys=True))
                return 0
            responses, latencies = await client.run_specs(
                specs, want=args.want, window=args.window,
                timeout=args.timeout * len(specs) + 60,
                tenant=args.tenant,
                want_upgrade=args.wait_upgrade,
            )
            upgrades = {}
            if args.wait_upgrade:
                # Every opt-1 answer has a background recompile coming;
                # collect the upgrade push frames before disconnecting
                # (a disconnect would withdraw the pending jobs).
                for index, response in enumerate(responses):
                    if (response and response.get("ok")
                            and response.get("tier") == "opt1"):
                        upgrades[index] = await client.wait_upgrade(
                            f"q{index}", timeout=args.timeout)
        except (ConnectionError, TimeoutError, asyncio.TimeoutError) as exc:
            print(f"gateway connection failed mid-run: {exc}", file=sys.stderr)
            return 2
        finally:
            await client.close()

        failed = 0
        rows = []
        for index, (spec, response, latency) in enumerate(
                zip(specs, responses, latencies)):
            label = spec.get("label", spec.get("benchmark", f"job{index}"))
            if response is None or not response.get("ok"):
                failed += 1
                code = "no-response" if response is None \
                    else response.get("code", "error")
                rows.append([index, label, code, f"{latency * 1e3:.1f}ms", "-"])
            else:
                rows.append([
                    index, label,
                    "hit" if response.get("cached") else "compiled",
                    f"{latency * 1e3:.1f}ms",
                    response.get("fingerprint", "")[:12],
                ])
        print(format_table(["#", "Job", "Source", "Latency", "Fingerprint"], rows))
        ok = len(specs) - failed
        hits = sum(1 for r in responses if r and r.get("ok") and r.get("cached"))
        print(f"jobs={len(specs)} ok={ok} failed={failed} cache_hits={hits}")
        if args.wait_upgrade:
            landed = sum(1 for u in upgrades.values() if u.get("ok"))
            lines = [f"{u.get('upgrade_ms', 0.0):.1f}ms"
                     for u in upgrades.values() if u.get("ok")]
            print(f"upgrades: pending={len(upgrades)} landed={landed} "
                  f"({', '.join(lines) if lines else 'none'})")
        if args.out:
            with open(args.out, "w") as handle:
                for response in responses:
                    handle.write(json.dumps(response, sort_keys=True) + "\n")
            print(f"wrote {len(responses)} response rows to {args.out}")
        return 1 if failed else 0

    return asyncio.run(run())


def _cmd_table1(args) -> int:
    rows = table1_inventory(scale=args.scale)
    print(format_table(
        ["Benchmark", "Backend", "Qubits", "Pauli#", "CNOT#", "Single#"],
        [[r["name"], r["backend"], r["qubits"], r["paulis"],
          r["naive_cnot"], r["naive_single"]] for r in rows],
    ))
    return 0


def _cmd_table2(args) -> int:
    names = args.names or ["Ising-1D", "Heisen-1D", "UCCSD-8", "REG-20-4"]
    lines = []
    for name in names:
        row = table2_compare(name, args.scale)
        for config in ("ph+qiskit_l3", "ph+tket_o2", "tk+qiskit_l3", "tk+tket_o2"):
            m = row[config]
            lines.append([name, config, m["cnot"], m["single"], m["total"], m["depth"]])
    print(format_table(["Benchmark", "Config", "CNOT", "Single", "Total", "Depth"], lines))
    return 0


def _cmd_table3(args) -> int:
    names = args.names or ["REG-20-4", "REG-20-8", "Rand-20-0.3"]
    lines = []
    for name in names:
        row = table3_compare(name, scale="paper", seeds=args.seeds)
        for label in ("ph", "qaoa_compiler"):
            m = row[label]
            lines.append([name, label, m["cnot"], m["total"], m["depth"], f"{m['seconds']:.2f}s"])
    print(format_table(["Benchmark", "Compiler", "CNOT", "Total", "Depth", "Time"], lines))
    return 0


def _cmd_table4(args) -> int:
    names = args.names or ["UCCSD-8", "Ising-1D", "Heisen-1D", "N2"]
    lines = []
    for name in names:
        row = table4_passes(name, args.scale)
        for key in ("cnot", "total", "depth"):
            lines.append([
                name, key,
                f"{row['do_vs_gco_pct'][key]:+.1f}%",
                f"{row['bc_improvement_pct'][key]:+.1f}%",
            ])
    print(format_table(["Benchmark", "Metric", "DO vs GCO", "BC vs naive"], lines))
    return 0


def _cmd_fig11(args) -> int:
    graphs = {}
    for n in args.sizes:
        graphs[f"REG-n{n}-d4"] = regular_graph(n, 4, seed=n)
        graphs[f"RD-n{n}-p0.5"] = random_graph(n, 0.5, seed=n)
    rows = fig11_study(graphs, trajectories=args.trajectories)
    print(format_table(
        ["Graph", "ESP x", "RSP x", "PH CNOT", "Base CNOT"],
        [[r["name"], f"{r['esp_improvement']:.2f}", f"{r['rsp_improvement']:.2f}",
          r["ph"]["cnot"], r["baseline"]["cnot"]] for r in rows],
    ))
    return 0


def _add_node_flags(p: argparse.ArgumentParser, each: str) -> None:
    """Declare ``_NODE_FLAGS``, which configure each gateway ``p`` runs
    (``each`` is " per node" for a fleet), with ``GatewayConfig``'s
    defaults."""
    p.add_argument("--workers", type=int, default=GatewayConfig.workers,
                   help=f"compile worker processes{each} "
                        f"(0 = one in-process thread{each})")
    p.add_argument("--queue-limit", type=int,
                   default=GatewayConfig.queue_limit,
                   help=f"cap{each} on undispatched cold compiles before "
                        f"rejecting")
    p.add_argument("--replica-probes", type=int,
                   default=GatewayConfig.replica_probes,
                   help="max peers one pull-through miss consults "
                        "(default: all)")
    p.add_argument("--speculate", action="store_true",
                   help="tiered speculative compilation: cold misses answer "
                        "at the fast opt-1 tier and a background full-effort "
                        "recompile upgrades the cache entry in place")
    p.add_argument("--speculative-limit", type=int,
                   default=GatewayConfig.speculative_limit,
                   help=f"cap{each} on queued background upgrade jobs "
                        f"(default %(default)s; overflow is dropped, not "
                        f"buffered)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(func=_cmd_list)

    p = sub.add_parser("compile", help="compile one benchmark with Paulihedral")
    p.add_argument("name")
    p.add_argument("--scale", default="small", choices=["small", "paper"])
    p.add_argument(
        "--scheduler",
        default=None,
        choices=["gco", "do", "none", "gco-stream", "do-stream"],
    )
    p.add_argument(
        "--opt-level", type=int, default=None, choices=[0, 1, 2, 3],
        help="run the generic pipeline at this level after the frontend "
             "(Table 2 configuration); omits the frontend's own peephole",
    )
    p.add_argument(
        "--frontend", default="ph", choices=["ph", "tk"],
        help="ph (Paulihedral, default) or the TK-style baseline; tk on an "
             "SC benchmark routes through the device coupling map",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="run the Pauli-propagation verifier on the compiled circuit "
             "(any qubit count; exits 1 on mismatch)",
    )
    p.add_argument(
        "--device", default=None, metavar="NAME_OR_JSON",
        help="compile against a registry device (e.g. melbourne-15, "
             "falcon-27, ion-trap-12) or a DeviceSpec snapshot JSON file: "
             "supplies the coupling map and calibration for "
             "reliability-weighted routing, and reports ESP",
    )
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser(
        "compile-batch",
        help="compile a JSONL stream of program specs through the cache "
             "and worker pool (see repro.service.batch for the spec schema)",
    )
    p.add_argument("specs", help="JSONL file, one job spec per line")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool width (1 = serial, no pool)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk cache directory (default: in-memory only)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write one JSONL artifact row per input job")
    p.add_argument(
        "--device", default=None, metavar="NAME_OR_JSON",
        help="default device for specs that name none (registry name or "
             "snapshot JSON; per-spec 'device'/'coupling' keys win)",
    )
    p.set_defaults(func=_cmd_compile_batch)

    p = sub.add_parser(
        "verify",
        help="verify cached compile artifacts against their fingerprinted "
             "programs with the Pauli-propagation oracle",
    )
    p.add_argument("specs", help="JSONL file, one job spec per line "
                                 "(same schema as compile-batch)")
    p.add_argument("--cache", required=True, metavar="DIR",
                   help="on-disk cache directory holding the artifacts")
    p.add_argument("--allow-missing", action="store_true",
                   help="exit 0 even when some specs have no stored artifact")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "check",
        help="static analysis: pipeline pass-contract validation (no "
             "arguments) or IR invariant sweep of cached artifacts "
             "(SPECS.jsonl --cache DIR)",
    )
    p.add_argument("specs", nargs="?", default=None,
                   help="JSONL spec file (same schema as compile-batch); "
                        "omit to check the shipped pipeline contracts")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk cache directory holding the artifacts "
                        "(required with a spec file)")
    p.add_argument("--allow-missing", action="store_true",
                   help="exit 0 even when some specs have no stored artifact")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "serve",
        help="run the async compile gateway daemon (newline-delimited JSON "
             "over a local socket; see repro.service.protocol)",
    )
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="bind a unix-domain socket (wins over --host/--port)")
    p.add_argument("--host", default=GatewayConfig.host)
    p.add_argument("--port", type=int, default=SERVE_PORT,
                   help="TCP port (default %(default)s; 0 = ephemeral)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="on-disk cache directory shared by all clients "
                        "(default: in-memory only)")
    p.add_argument("--per-client-limit", type=int,
                   default=GatewayConfig.per_client_limit,
                   help="max unanswered cold requests per client")
    p.add_argument("--allow-shutdown", action="store_true",
                   help="honor the protocol 'shutdown' verb")
    p.add_argument("--peer-stores", default=None, metavar="DIR,DIR,...",
                   help="comma-separated peer cache directories probed "
                        "(pull-through replication) on a local disk miss")
    _add_node_flags(p, "")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "serve-cluster",
        help="run a sharded multi-node compile fabric: N supervised "
             "gateway nodes behind a consistent-hash router "
             "(see repro.service.cluster)",
    )
    p.add_argument("state_dir", metavar="STATE_DIR",
                   help="directory for node sockets, stores, and logs "
                        "(created if missing)")
    p.add_argument("--nodes", type=int, default=3,
                   help="gateway node count (default %(default)s)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="router socket (default STATE_DIR/router.sock)")
    p.add_argument("--per-client-limit", type=int,
                   default=ClusterConfig.per_client_limit,
                   help="router cap on one client's unanswered requests")
    p.add_argument("--vnodes", type=int, default=ClusterConfig.vnodes,
                   help="virtual nodes per member on the hash ring")
    p.add_argument("--tenant-quota", action="append", metavar="NAME=N",
                   help="cap tenant NAME at N outstanding compiles "
                        "(repeatable)")
    p.add_argument("--allow-shutdown", action="store_true",
                   help="honor the protocol 'shutdown' verb at the router")
    _add_node_flags(p, " per node")
    p.set_defaults(func=_cmd_serve_cluster)

    p = sub.add_parser(
        "client",
        help="stream a JSONL spec file through a running gateway "
             "(same spec schema as compile-batch)",
    )
    p.add_argument("specs", nargs="?", default=None,
                   help="JSONL file, one job spec per line")
    p.add_argument("--socket", default=None, metavar="PATH")
    p.add_argument("--cluster", default=None, metavar="STATE_DIR",
                   help="connect to a serve-cluster router by its state "
                        "directory (shorthand for --socket "
                        "STATE_DIR/router.sock)")
    p.add_argument("--host", default=GatewayConfig.host)
    p.add_argument("--port", type=int, default=SERVE_PORT)
    p.add_argument("--tenant", default=None, metavar="NAME",
                   help="tag compile requests with a tenant identity "
                        "(cluster routers quota by it)")
    p.add_argument("--want", default="metrics",
                   choices=["metrics", "artifact", "ack"])
    p.add_argument("--window", type=int, default=8,
                   help="max requests in flight (pipelining width); for "
                        "cold corpora keep at or below the server's "
                        "--per-client-limit or the excess is rejected "
                        "as overloaded")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request timeout budget in seconds")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write one JSONL response row per input job")
    p.add_argument("--stats", action="store_true",
                   help="print the gateway's stats verb instead of compiling")
    p.add_argument("--wait-upgrade", action="store_true",
                   help="subscribe to speculative upgrade push frames and "
                        "wait for the background opt-3 recompiles to land "
                        "before exiting (needs a --speculate server)")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser("table1", help="regenerate Table 1")
    p.add_argument("--scale", default="small", choices=["small", "paper"])
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="regenerate Table 2 rows")
    p.add_argument("names", nargs="*", default=None)
    p.add_argument("--scale", default="small", choices=["small", "paper"])
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("table3", help="regenerate Table 3 rows")
    p.add_argument("names", nargs="*", default=None)
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("table4", help="regenerate Table 4 rows")
    p.add_argument("names", nargs="*", default=None)
    p.add_argument("--scale", default="small", choices=["small", "paper"])
    p.set_defaults(func=_cmd_table4)

    p = sub.add_parser("fig11", help="regenerate the Figure 11 study")
    p.add_argument("--sizes", type=int, nargs="*", default=[7, 8])
    p.add_argument("--trajectories", type=int, default=120)
    p.set_defaults(func=_cmd_fig11)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
