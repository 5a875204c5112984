"""Generic compilation pipeline (the repository's "Qiskit_L3" stand-in).

The paper feeds every frontend's output (Paulihedral, TK, naive) through a
generic industry compiler.  :func:`transpile` reproduces that stage:

* level 0 — no optimization, routing only (if a coupling map is given);
* level 1 — adjacent-pair cancellation + rotation merging;
* level 2 — level 1 plus commutative CNOT cancellation;
* level 3 — all rules including SWAP/CNOT fusion, before *and* after
  routing.

Each level runs its rule subset to a joint fixpoint in a single pass of
the worklist engine (see :mod:`repro.transpile.peephole`).  Routing uses
the SABRE-style router with a dense initial layout, mirroring Qiskit's
default at high optimization levels.  The sequence is the ``generic``
flow of the pass table in :mod:`repro.core.passes`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..circuit import QuantumCircuit
from .coupling import CouplingMap
from .layout import Layout

__all__ = ["transpile"]


def transpile(
    circuit: QuantumCircuit,
    coupling: Optional[CouplingMap] = None,
    optimization_level: int = 3,
    initial_layout: Optional[Layout] = None,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
) -> QuantumCircuit:
    """Generic compile: optimize, route to hardware (optional), re-optimize.

    When ``coupling`` is ``None`` the target is the all-to-all FT backend and
    only gate-level optimization runs.  ``edge_error`` (per-edge two-qubit
    error rates) switches routing to the reliability-weighted scorer; see
    :func:`repro.transpile.route`.
    """
    # Deferred import: the pass driver in repro.core sits above this layer.
    from ..core.passes import Pipeline

    level = max(0, min(3, int(optimization_level)))
    if coupling is None:
        return Pipeline("generic-alltoall", level=level).run(circuit).circuit
    return Pipeline("generic", level=level, noise_aware=bool(edge_error)).run(
        circuit, coupling=coupling, initial_layout=initial_layout,
        edge_error=edge_error,
    ).circuit
