"""Shared test utilities: exact references for compiled circuits, and
process liveness for the serving tests."""

import os
import time
from typing import List, Tuple

import numpy as np
import scipy.linalg

from repro.pauli import PauliString
from repro.transpile import Layout


def terms_unitary(terms: List[Tuple[PauliString, float]], num_qubits: int) -> np.ndarray:
    """Exact unitary of ``prod_k exp(i c_k P_k)`` with ``terms[0]`` applied
    first (i.e. rightmost in the operator product)."""
    dim = 2 ** num_qubits
    out = np.eye(dim, dtype=complex)
    for string, coefficient in terms:
        out = scipy.linalg.expm(1j * coefficient * string.to_matrix()) @ out
    return out


def layout_permutation(layout: Layout, num_qubits: int) -> np.ndarray:
    """Permutation matrix sending the logical basis to the physical basis.

    Physical qubit ``p`` carries logical qubit ``layout.logical(p)``; basis
    index bits are little-endian.  Requires a device exactly as wide as the
    program (tests use matched sizes).
    """
    dim = 2 ** num_qubits
    perm = np.zeros((dim, dim), dtype=complex)
    for logical_index in range(dim):
        physical_index = 0
        for p in range(num_qubits):
            logical_qubit = layout.logical(p)
            assert logical_qubit is not None, "test devices must be fully mapped"
            bit = (logical_index >> logical_qubit) & 1
            physical_index |= bit << p
        perm[physical_index, logical_index] = 1.0
    return perm


def process_alive(pid: int) -> bool:
    """Whether ``pid`` is still running.  A zombie counts as gone: it has
    exited, and an orphan's zombie waits on whatever reaps for init."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:  # reaped since the kill, or no procfs
        return not os.path.isdir("/proc")


def wait_until_gone(pids, timeout: float) -> list:
    """Poll until none of ``pids`` is alive or ``timeout`` s pass; returns
    the survivors."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if process_alive(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if process_alive(pid)]
    return alive
