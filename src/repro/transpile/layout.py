"""Qubit layout: logical-to-physical maps and dense initial placement.

Algorithm 3 (line 1) starts by mapping all logical qubits "to the most
connected subgraph in the device coupling map"; :func:`dense_initial_layout`
implements that with a greedy densest-subgraph expansion, which is also what
the generic transpiler uses for the baselines.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from .coupling import CouplingMap

__all__ = ["Layout", "dense_initial_layout", "trivial_layout"]


class Layout:
    """A bijection between logical and physical qubits.

    Only the logical qubits of the program are mapped; unmapped physical
    qubits are free real estate for routing.
    """

    def __init__(self, logical_to_physical: Dict[int, int]):
        self._l2p = dict(logical_to_physical)
        self._p2l = {p: l for l, p in self._l2p.items()}
        if len(self._p2l) != len(self._l2p):
            raise ValueError("layout is not injective")

    @classmethod
    def from_physical_list(cls, physical: Iterable[int]) -> "Layout":
        """Logical qubit ``i`` goes to ``physical[i]``."""
        return cls({i: p for i, p in enumerate(physical)})

    def physical(self, logical: int) -> int:
        return self._l2p[logical]

    def logical(self, physical: int) -> Optional[int]:
        return self._p2l.get(physical)

    @property
    def num_logical(self) -> int:
        return len(self._l2p)

    def physical_qubits(self) -> Tuple[int, ...]:
        return tuple(self._l2p.values())

    def swap_physical(self, p1: int, p2: int) -> None:
        """Update the layout after a SWAP on physical qubits ``p1``/``p2``."""
        l1 = self._p2l.pop(p1, None)
        l2 = self._p2l.pop(p2, None)
        if l2 is not None:
            self._p2l[p1] = l2
            self._l2p[l2] = p1
        if l1 is not None:
            self._p2l[p2] = l1
            self._l2p[l1] = p2

    def copy(self) -> "Layout":
        return Layout(self._l2p)

    def as_dict(self) -> Dict[int, int]:
        return dict(self._l2p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self._l2p == other._l2p

    def __repr__(self) -> str:
        items = ", ".join(f"q{l}->p{p}" for l, p in sorted(self._l2p.items()))
        return f"Layout({items})"


def dense_initial_layout(
    coupling: CouplingMap,
    num_logical: int,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
) -> Layout:
    """Greedy densest-connected-subgraph placement.

    Starts from the highest-degree physical qubit and repeatedly adds the
    neighbouring qubit with the most edges into the chosen set, producing a
    connected, locally dense region of ``num_logical`` physical qubits.

    With ``edge_error`` (per-edge two-qubit error rates), density is scored
    by *reliability-weighted* degree instead of edge count: every edge
    contributes its success probability ``1 - e``, so the chosen region is
    both dense and low-error (paper Section 5.2's calibration-aware
    placement).  Uncalibrated edges pessimistically contribute the worst
    known rate.  Without ``edge_error`` the decision sequence is the
    historical one, bit for bit.
    """
    if num_logical > coupling.num_qubits:
        raise ValueError(
            f"program needs {num_logical} qubits but device has {coupling.num_qubits}"
        )

    if edge_error:
        worst = max(edge_error.values())

        def reliability(a: int, b: int) -> float:
            edge = (a, b) if a < b else (b, a)
            return 1.0 - edge_error.get(edge, worst)

        def incident_weight(q: int) -> float:
            return sum(reliability(q, nbr) for nbr in coupling.neighbors(q))

        start = max(
            range(coupling.num_qubits),
            key=lambda q: (incident_weight(q), coupling.degree(q), -q),
        )
    else:
        start = max(range(coupling.num_qubits), key=coupling.degree)
    chosen = [start]
    chosen_set = {start}
    while len(chosen) < num_logical:
        frontier = {
            nbr
            for q in chosen
            for nbr in coupling.neighbors(q)
            if nbr not in chosen_set
        }
        if not frontier:  # disconnected device; jump to the densest remainder
            remaining = [q for q in range(coupling.num_qubits) if q not in chosen_set]
            frontier = set(remaining[:1])
        if edge_error:
            best = max(
                frontier,
                key=lambda q: (
                    sum(reliability(q, nbr)
                        for nbr in coupling.neighbors(q) if nbr in chosen_set),
                    incident_weight(q),
                    -q,
                ),
            )
        else:
            best = max(
                frontier,
                key=lambda q: (
                    sum(1 for nbr in coupling.neighbors(q) if nbr in chosen_set),
                    coupling.degree(q),
                    -q,
                ),
            )
        chosen.append(best)
        chosen_set.add(best)
    return Layout({i: p for i, p in enumerate(sorted(chosen))})


def trivial_layout(num_logical: int) -> Layout:
    """Identity layout (logical i -> physical i)."""
    return Layout({i: i for i in range(num_logical)})
