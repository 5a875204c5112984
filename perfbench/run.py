"""End-to-end benchmark of the Paulihedral compiler and its serving stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-sc --seed 2022 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``compile-sc`` / ``compile-ft`` — in-process closed-loop compiles of a
  fixed corpus (:mod:`compile_wl`);
* ``serve-mixed`` — open-loop mixed warm/cold traffic against a
  ``repro serve`` daemon (:mod:`serve_wl`);
* ``serve-cluster`` — closed-loop warm traffic through
  ``repro serve-cluster`` (:mod:`serve_wl`).  Its sub-millisecond
  latency spreads 10-25% between runs on a 2-core machine, so it is not
  listed in ``BENCHMARK.json``; run it by name for the router numbers.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that records spans around calls into each layer and reports
the per-layer metrics (a layer the workload does not exercise reads 0).
Every metric of one kind is defined for every workload:

* ``setup_s`` — process start to the first timed operation (imports,
  inputs, daemons, pre-warm), the median of this run's set-up and two
  more set-ups in fresh processes, at reference speed: scaled by the
  run's median reference loop, so that set-ups measured in a slow phase
  of the host and in a fast one compare;
* ``latency_ms`` — compile workloads: one pass over the corpus at
  reference speed, the sum over programs of each program's median
  compile, each compile scaled by a fixed reference loop timed next to
  it so that the host's slow phases cancel out (see
  :func:`common.reference_seconds`; measured times are in the report
  line); serve workloads: the median request as measured, timed from
  when it was due;
* ``peak_rss_mb`` — compile workloads: this process; serve workloads: the
  sum of VmHWM over the serving processes (daemon, nodes, workers);
* ``cnot`` / ``gates`` / ``depth`` — sums over the compile corpus, or over
  the served hot set; exact for a given seed.

Failures of any kind (exceptions, verifier or statevector mismatches,
error frames, rejects, timeouts, ledger mismatches, an unclean shutdown)
are counted in ``failed``; ``error_rate`` is printed in the report line.

The seed (default 2022, which reproduces the registry programs; claims
must also hold on seed 7) drives the random programs, the Zipf ranks, the
arrival schedule and the order of passes.  The last line of standard
output is one JSON object; the exit code is non-zero when any correctness
check failed.
"""

from __future__ import annotations

import os
import sys
import time

# perf_counter is system-wide on Linux, so the start time survives the
# re-exec below.
STARTED = float(os.environ.get("PERFBENCH_STARTED", time.perf_counter()))
if os.environ.get("PYTHONHASHSEED") != "0":
    # Registry programs that mix str hash() into their seeds (the synthetic
    # molecules) differ per process unless the string hash seed is fixed;
    # the daemons inherit the setting.
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PERFBENCH_STARTED"] = repr(STARTED)
    os.execv(sys.executable, [sys.executable] + sys.argv)
os.environ.pop("PERFBENCH_STARTED", None)   # not inherited by set-up probes

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("compile-sc", "compile-ft", "serve-mixed", "serve-cluster")
SETUP_PROBES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--inject-fault", action="store_true",
                        help="flip one rz angle of one compile output "
                             "(checks that the correctness gate trips)")
    parser.add_argument("--setup-probe", default=None, metavar="TAG",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args, spec) -> int:
    """Each listed workload in its own process; one column per workload."""
    workloads = [w["name"] for w in spec["workloads"]]
    rows = {}
    status = 0
    for workload in workloads:
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(args.seed), "--trace",
                   str(args.trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        rows[workload] = json.loads(lines[-1]) if lines else None
        if done.returncode:
            sys.stderr.write(done.stderr)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    header = ["workload", "correct"] + [f"{m['name']} [{m['unit']}]"
                                        for m in metrics]
    table = [header]
    for workload, row in rows.items():
        table.append([workload, str(bool(row and row["correct"]))] + [
            f"{row['metrics'][m['name']]['value']:.4f}" if row else "-"
            for m in metrics])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return status


def setup_seconds(args, main_setup: float) -> float:
    """Median of this run's set-up and ``SETUP_PROBES`` more, each in a
    fresh process that sets the workload up and tears it down again."""
    samples = [main_setup]
    for index in range(SETUP_PROBES):
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   args.workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--setup-probe", f"probe{index}"]
        if args.tiny:
            command.append("--tiny")
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=170)
        if done.returncode:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no compiler source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)

    from common import REFERENCE_MS, WORK, run_metadata

    WORK.mkdir(exist_ok=True)
    compiling = args.workload.startswith("compile")
    if compiling:
        import compile_wl as module
    else:
        import serve_wl as module

    if args.setup_probe is not None:
        done = module.setup_probe(args.workload, args.seed, args.seconds,
                                  args.tiny, args.setup_probe)
        print(json.dumps({"setup_s": done - STARTED}))
        return 0

    if args.inject_fault and not compiling:
        print("--inject-fault applies to the compile workloads",
              file=sys.stderr)
        return 2
    if args.trace:
        outcome = module.run_traced(args.workload, args.seed, args.seconds,
                                    args.tiny)
        kind = "per_layer"
    else:
        outcome = module.run(args.workload, args.seed, args.seconds,
                             args.tiny, **({"inject_fault": True}
                                           if args.inject_fault else {}))
        kind = "end_to_end"
        measured = setup_seconds(args, outcome["setup_done"] - STARTED)
        outcome["report"]["setup_s.measured"] = measured
        outcome["report"]["reference_ms"] = 1e3 * outcome["reference_s"]
        outcome["metrics"]["setup_s"] = (
            measured * REFERENCE_MS / (1e3 * outcome["reference_s"]))

    if "tracer" in outcome:
        outcome["tracer"].write(
            WORK / f"trace-{args.workload}-{args.seed}.json")
    failures = outcome["failures"]
    missing = [m["name"] for m in spec[kind]
               if m["name"] not in outcome["metrics"]]
    if kind == "end_to_end" and missing:
        failures.append(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(outcome["metrics"].get(m["name"],
                                                                 0.0)),
                           "unit": m["unit"]}
               for m in spec[kind]}
    for failure in failures:
        print(f"FAILED: {failure}")
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:40s} {metric['value']:14.4f} "
              f"{metric['unit']}")
    attempted = max(1, outcome["attempted"])
    print("report " + json.dumps({
        **outcome.get("report", {}),
        "error_rate": len(failures) / attempted,
        "meta": run_metadata(args.seed),
    }, default=str))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
