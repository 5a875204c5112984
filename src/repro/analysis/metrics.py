"""Circuit metrics and comparison helpers (the paper's reporting columns)."""

from __future__ import annotations

import math
from typing import Dict, Iterable

from ..circuit import QuantumCircuit

__all__ = ["circuit_metrics", "percent_change", "geomean", "ratio"]


def circuit_metrics(circuit: QuantumCircuit) -> Dict[str, int]:
    """The four Table 2 columns: CNOT, single-qubit, total, depth.

    SWAPs count as 3 CNOTs (hardware convention); depth is full gate depth.
    """
    cnot = circuit.cnot_count
    single = circuit.single_qubit_count
    return {
        "cnot": cnot,
        "single": single,
        "total": cnot + single,
        # Three depth steps per SWAP == decompose_swaps().depth(), without
        # materializing the expanded circuit (the counters and the depth
        # walk both read the tape columns directly).
        "depth": circuit.depth(swap_depth=3),
    }


def percent_change(new: float, old: float) -> float:
    """Signed percent change of ``new`` relative to ``old`` (negative = reduction)."""
    if old == 0:
        return 0.0 if new == 0 else math.inf
    return 100.0 * (new - old) / old


def ratio(new: float, old: float) -> float:
    """``new / old`` guarded against zero denominators."""
    return new / old if old else math.inf


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = [v for v in values]
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
