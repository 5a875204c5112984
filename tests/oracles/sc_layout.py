"""The SC backend's interaction-aware initial placement with its
interaction counts taken by the per-pair dict loop it used before they
became an incidence-matrix product
(:meth:`repro.core.sc_backend.SCSynthesizer._interaction_aware_layout`).
Kept as the oracle the array-native counts are checked against."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.transpile import CouplingMap, Layout, dense_initial_layout

__all__ = ["dict_interaction_layout"]


def dict_interaction_layout(
    coupling: CouplingMap,
    schedule,
    num_logical: int,
    rng: Optional[random.Random] = None,
) -> Layout:
    """Initial mapping onto the densest region, interaction-first, with
    ``rng`` (when given) choosing among the top candidates as the
    synthesizer's ``rng`` does."""
    interactions: Dict[Tuple[int, int], float] = {}
    for layer in schedule:
        for block in layer:
            for ws in block:
                support = ws.string.support
                for i in range(len(support)):
                    for j in range(i + 1, len(support)):
                        pair = (support[i], support[j])
                        interactions[pair] = interactions.get(pair, 0.0) + 1.0
    if not interactions:
        return dense_initial_layout(coupling, num_logical)

    region = dense_initial_layout(coupling, num_logical).physical_qubits()
    free = set(region)
    weight_of = {q: 0.0 for q in range(num_logical)}
    adjacency: Dict[int, List[Tuple[int, float]]] = {
        q: [] for q in range(num_logical)
    }
    for (a, b), w in interactions.items():
        weight_of[a] += w
        weight_of[b] += w
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))

    placed: Dict[int, int] = {}
    order = sorted(range(num_logical), key=lambda q: -weight_of[q])
    anchor = rng.choice(order[:3]) if rng else order[0]
    start_candidates = sorted(
        free,
        key=lambda p: -sum(1 for n in coupling.neighbors(p) if n in free),
    )
    start = rng.choice(start_candidates[:3]) if rng else start_candidates[0]
    placed[anchor] = start
    free.discard(start)
    unplaced = [q for q in order if q != anchor]
    while unplaced:
        def coupling_to_placed(q: int) -> float:
            return sum(w for other, w in adjacency[q] if other in placed)

        logical = max(unplaced, key=lambda q: (coupling_to_placed(q), weight_of[q]))
        unplaced.remove(logical)
        placed_neighbors = [
            (placed[other], w)
            for other, w in adjacency[logical]
            if other in placed
        ]

        def placement_cost(p: int) -> float:
            return sum(
                w * coupling.distance(p, position)
                for position, w in placed_neighbors
            )

        ranked = sorted(free, key=placement_cost)
        best = rng.choice(ranked[:2]) if rng else ranked[0]
        placed[logical] = best
        free.discard(best)
    return Layout(placed)
