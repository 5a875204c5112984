"""ASCII rendering of block schedules (paper Figure 8 style).

Draws a schedule as a qubit-row / layer-column grid: each cell shows the
Pauli operator a block applies on that qubit, with ``|`` separating layers.
Blocks stacked in the same layer appear in the same column band, visually
confirming the DO scheduler's padding behaviour.
"""

from __future__ import annotations

from typing import List

from ..core.scheduling import Schedule

__all__ = ["render_schedule"]


def render_schedule(schedule: Schedule, max_layers: int = 12) -> str:
    """Render the first ``max_layers`` layers of a schedule as text art."""
    if not schedule:
        raise ValueError("empty schedule")
    num_qubits = schedule[0][0].num_qubits
    shown = schedule[:max_layers]

    # Each layer becomes a band of columns: one column per block, in layer
    # order, where a column cell holds the block's operator on that qubit
    # (first string's operator, '*' if strings differ there, '.' if idle).
    bands: List[List[str]] = []   # bands[layer][column] -> per-qubit chars
    for layer in shown:
        columns = []
        for block in layer:
            cells = []
            for q in range(num_qubits):
                ops = {ws.string[q] for ws in block}
                ops.discard("I")
                if not ops:
                    cells.append(".")
                elif len(ops) == 1:
                    cells.append(next(iter(ops)))
                else:
                    cells.append("*")
            columns.append(cells)
        bands.append(columns)

    lines = []
    header_cells = []
    for index, columns in enumerate(bands):
        header_cells.append(f"L{index}".center(len(columns) * 2 - 1))
    lines.append("        " + " | ".join(header_cells))
    for q in range(num_qubits - 1, -1, -1):
        row = []
        for columns in bands:
            row.append(" ".join(column[q] for column in columns))
        lines.append(f"q{q:<3}    " + " | ".join(row))
    if len(schedule) > max_layers:
        lines.append(f"... ({len(schedule) - max_layers} more layers)")
    return "\n".join(lines)
