"""Experiment drivers: one function per paper table/figure.

Each driver returns plain row dictionaries so the pytest-benchmark harness
(`benchmarks/`) and the examples can both consume them; `format_*` helpers
render them in the paper's layout.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines import naive_compile, qaoa_compile, tk_compile
from ..circuit import QuantumCircuit
from ..core import ft_compile, sc_compile
from ..core.synthesis import naive_program_circuit
from ..ir import PauliProgram
from ..noise import NoiseModel, qaoa_study
from ..pauli.symplectic import PauliTable
from ..transpile import CouplingMap, manhattan_65, melbourne, transpile
from ..workloads import BENCHMARKS, naive_gate_counts_from_table
from .metrics import circuit_metrics, percent_change

__all__ = [
    "table1_inventory",
    "table2_compare",
    "table3_compare",
    "table4_passes",
    "fig11_study",
    "ablation_alignment",
    "ablation_tree_embedding",
]


# ----------------------------------------------------------------------
# Table 1 — benchmark inventory
# ----------------------------------------------------------------------

def table1_inventory(names: Optional[Sequence[str]] = None, scale: str = "small") -> List[Dict]:
    """Qubits, string count, naive gate counts, and weight statistics per
    benchmark.  Gate counts and weights come from the batch symplectic
    kernels, so the driver stays cheap even at paper scale."""
    rows = []
    for name in names or list(BENCHMARKS):
        spec = BENCHMARKS[name]
        program = spec.build(scale)
        table = PauliTable.from_strings(
            ws.string for ws, _ in program.all_weighted_strings()
        )
        cnots, singles = naive_gate_counts_from_table(table)
        weights = table.weights()
        rows.append(
            {
                "name": name,
                "backend": spec.backend,
                "family": spec.family,
                "qubits": program.num_qubits,
                "paulis": program.num_strings,
                "naive_cnot": cnots,
                "naive_single": singles,
                "mean_weight": float(weights.mean()),
                "max_weight": int(weights.max()),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — PH vs TK frontends x generic backends
# ----------------------------------------------------------------------

def _generic_level(generic: str) -> int:
    """Map the paper's generic-compiler names onto our pipeline levels."""
    if generic == "qiskit_l3":
        return 3
    if generic == "tket_o2":
        return 2
    raise ValueError(f"unknown generic compiler {generic!r}")


def _compile_config(
    program: PauliProgram,
    frontend: str,
    generic: str,
    backend: str,
    coupling: Optional[CouplingMap],
) -> Tuple[QuantumCircuit, float, float]:
    """Run one Table 2 configuration.

    Returns ``(circuit, frontend_seconds, generic_seconds)``.
    """
    level = _generic_level(generic)
    sc = backend == "sc"
    start = time.perf_counter()
    if frontend == "ph":
        # Table 2 uses the depth-oriented scheduler (the paper's PH depth
        # numbers — e.g. Ising-1D depth 6 — are only reachable with DO).
        if sc:
            result = sc_compile(program, coupling, scheduler="do", run_peephole=False)
            frontend_circuit = result.circuit
            needs_routing = False
        else:
            result = ft_compile(program, scheduler="do", run_peephole=False)
            frontend_circuit = result.circuit
            needs_routing = False
    elif frontend == "tk":
        frontend_circuit = tk_compile(program).circuit
        needs_routing = sc
    else:
        raise ValueError(f"unknown frontend {frontend!r}")
    frontend_seconds = time.perf_counter() - start

    start = time.perf_counter()
    if needs_routing:
        circuit = transpile(frontend_circuit, coupling=coupling, optimization_level=level)
    else:
        circuit = transpile(frontend_circuit, coupling=None, optimization_level=level)
    generic_seconds = time.perf_counter() - start
    return circuit, frontend_seconds, generic_seconds


def table2_compare(
    name: str,
    scale: str = "small",
    coupling: Optional[CouplingMap] = None,
    generics: Sequence[str] = ("qiskit_l3", "tket_o2"),
) -> Dict:
    """All four Table 2 configurations for one benchmark."""
    spec = BENCHMARKS[name]
    program = spec.build(scale)
    if spec.backend == "sc" and coupling is None:
        coupling = manhattan_65()
    row: Dict = {"name": name, "backend": spec.backend, "qubits": program.num_qubits,
                 "paulis": program.num_strings}
    for frontend in ("ph", "tk"):
        for generic in generics:
            circuit, f_sec, g_sec = _compile_config(
                program, frontend, generic, spec.backend, coupling
            )
            key = f"{frontend}+{generic}"
            row[key] = circuit_metrics(circuit)
            row[key]["frontend_s"] = f_sec
            row[key]["generic_s"] = g_sec
    return row


# ----------------------------------------------------------------------
# Table 3 — PH vs the QAOA compiler
# ----------------------------------------------------------------------

def table3_compare(
    name: str,
    scale: str = "small",
    coupling: Optional[CouplingMap] = None,
    seeds: int = 20,
) -> Dict:
    """PH+generic vs QAOA_Compiler+generic on one MaxCut benchmark."""
    spec = BENCHMARKS[name]
    if spec.family != "QAOA":
        raise ValueError(f"{name} is not a QAOA benchmark")
    program = spec.build(scale)
    coupling = coupling or manhattan_65()

    # Both compilers get random restarts (PH stays ~20x faster even so).
    start = time.perf_counter()
    ph = sc_compile(program, coupling, scheduler="do", restarts=8)
    ph_seconds = time.perf_counter() - start
    ph_metrics = circuit_metrics(ph.circuit)

    start = time.perf_counter()
    qc = qaoa_compile(program, coupling, seeds=seeds)
    qc_seconds = time.perf_counter() - start
    qc_metrics = circuit_metrics(qc.circuit)

    return {
        "name": name,
        "ph": {**ph_metrics, "seconds": ph_seconds},
        "qaoa_compiler": {**qc_metrics, "seconds": qc_seconds},
        "cnot_reduction_pct": -percent_change(ph_metrics["cnot"], qc_metrics["cnot"]),
    }


# ----------------------------------------------------------------------
# Table 4 — pass ablations: DO vs GCO, and BC improvement
# ----------------------------------------------------------------------

def table4_passes(
    name: str,
    scale: str = "small",
    coupling: Optional[CouplingMap] = None,
) -> Dict:
    """DO-vs-GCO deltas and block-wise-compilation improvement for one
    benchmark (paper Table 4's two halves)."""
    spec = BENCHMARKS[name]
    program = spec.build(scale)
    sc = spec.backend == "sc"
    if sc:
        coupling = coupling or manhattan_65()
        do_circ = sc_compile(program, coupling, scheduler="do").circuit
        gco_circ = sc_compile(program, coupling, scheduler="gco").circuit
        naive = naive_compile(program, coupling=coupling)
    else:
        do_circ = ft_compile(program, scheduler="do").circuit
        gco_circ = ft_compile(program, scheduler="gco").circuit
        naive = naive_compile(program)

    do_metrics = circuit_metrics(do_circ)
    gco_metrics = circuit_metrics(gco_circ)
    bc_metrics = do_metrics if sc else gco_metrics  # backend-preferred pass
    naive_metrics = circuit_metrics(naive)

    return {
        "name": name,
        "backend": spec.backend,
        "do": do_metrics,
        "gco": gco_metrics,
        "do_vs_gco_pct": {
            key: percent_change(do_metrics[key], gco_metrics[key])
            for key in ("cnot", "single", "total", "depth")
        },
        "naive": naive_metrics,
        "bc_improvement_pct": {
            key: percent_change(bc_metrics[key], naive_metrics[key])
            for key in ("cnot", "single", "total", "depth")
        },
    }


# ----------------------------------------------------------------------
# Figure 11 — QAOA success probability on the Melbourne device
# ----------------------------------------------------------------------

def fig11_study(
    graphs: Dict[str, "object"],
    seed: int = 11,
    resolution: int = 5,
    trajectories: int = 120,
) -> List[Dict]:
    """ESP/RSP improvement of PH over the default baseline per graph."""
    coupling = melbourne()
    model = NoiseModel.calibrated(coupling, seed=seed)
    rows = []
    for name, graph in graphs.items():
        results = qaoa_study(
            graph, coupling, model, resolution=resolution, trajectories=trajectories
        )
        rows.append(
            {
                "name": name,
                "esp_improvement": results["improvement"]["esp"],
                "rsp_improvement": results["improvement"]["rsp"],
                "baseline": results["baseline"],
                "ph": results["ph"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Extra ablations (DESIGN.md D1-D3)
# ----------------------------------------------------------------------

def ablation_alignment(name: str, scale: str = "small") -> Dict:
    """D2: adaptive junction alignment vs naive plans, same schedule."""
    from ..core.scheduling import gco_schedule, schedule_to_program

    program = BENCHMARKS[name].build(scale)
    adaptive = ft_compile(program, scheduler="gco").circuit
    scheduled_program = schedule_to_program(gco_schedule(program))
    scheduled_only = transpile(
        naive_program_circuit(scheduled_program), optimization_level=3
    )
    return {
        "name": name,
        "adaptive": circuit_metrics(adaptive),
        "scheduled_naive": circuit_metrics(scheduled_only),
    }


def ablation_tree_embedding(name: str, scale: str = "small",
                            coupling: Optional[CouplingMap] = None) -> Dict:
    """D3: Algorithm 3's tree embedding vs synthesize-then-route."""
    spec = BENCHMARKS[name]
    program = spec.build(scale)
    coupling = coupling or manhattan_65()
    embedded = sc_compile(program, coupling, scheduler="do").circuit
    ft_then_route = ft_compile(program, scheduler="gco").circuit
    routed = transpile(ft_then_route, coupling=coupling, optimization_level=3)
    return {
        "name": name,
        "tree_embedding": circuit_metrics(embedded),
        "synthesize_then_route": circuit_metrics(routed),
    }
