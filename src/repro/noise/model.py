"""Device noise models and Estimated Success Probability (ESP).

The paper's Figure 11 uses two success metrics:

* **ESP** — the standard compiler-guidance estimate (Murali et al. ASPLOS
  2019; Nishio et al. 2020): the product of per-gate success rates and
  per-qubit readout success rates,
  ``ESP = prod_g (1 - e_g) * prod_q (1 - r_q)``;
* **RSP** — real-system success probability, which we obtain from the
  stochastic-Pauli noisy simulator (:mod:`repro.noise.sampler`) since no
  hardware is available offline.

Calibration data is modelled on the public ibmq_16_melbourne numbers:
CNOT error a few percent, single-qubit error ~0.1%, readout error a few
percent, with seeded per-qubit/per-edge spread.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Optional, Tuple

from ..circuit import QuantumCircuit
from ..transpile import CouplingMap

__all__ = ["NoiseModel", "esp"]

#: Rates are quantized to this many decimal digits wherever the model
#: enters a cache identity (see :meth:`NoiseModel.quantized_spec`): raw
#: calibration floats jitter in their low bits between snapshots, and a
#: sub-1e-6 rate change cannot move any routing decision worth a recompile.
_QUANTIZE_DIGITS = 6


class NoiseModel:
    """Per-gate and per-qubit error rates for a device."""

    def __init__(
        self,
        single_qubit_error: Dict[int, float],
        two_qubit_error: Dict[Tuple[int, int], float],
        readout_error: Dict[int, float],
    ):
        self.single_qubit_error = dict(single_qubit_error)
        self.two_qubit_error = {
            tuple(sorted(edge)): rate for edge, rate in two_qubit_error.items()
        }
        self.readout_error = dict(readout_error)
        for label, rates in (
            ("single-qubit", self.single_qubit_error.values()),
            ("two-qubit", self.two_qubit_error.values()),
            ("readout", self.readout_error.values()),
        ):
            for rate in rates:
                if not 0.0 <= rate < 1.0:
                    raise ValueError(
                        f"{label} error rate {rate!r} outside [0, 1)"
                    )

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        coupling: CouplingMap,
        single_qubit: float = 1e-3,
        two_qubit: float = 2e-2,
        readout: float = 3e-2,
    ) -> "NoiseModel":
        return cls(
            {q: single_qubit for q in range(coupling.num_qubits)},
            {edge: two_qubit for edge in coupling.edges},
            {q: readout for q in range(coupling.num_qubits)},
        )

    @classmethod
    def calibrated(
        cls,
        coupling: CouplingMap,
        seed: int = 11,
        single_qubit_mean: float = 1.2e-3,
        two_qubit_mean: float = 2.5e-2,
        readout_mean: float = 4.0e-2,
        spread: float = 0.5,
    ) -> "NoiseModel":
        """Melbourne-style calibration: rates jittered around device means.

        ``spread`` is the relative half-width of the uniform jitter.
        """
        rng = random.Random(seed)

        def jitter(mean: float) -> float:
            return mean * (1.0 + spread * (2.0 * rng.random() - 1.0))

        return cls(
            {q: jitter(single_qubit_mean) for q in range(coupling.num_qubits)},
            {edge: jitter(two_qubit_mean) for edge in coupling.edges},
            {q: jitter(readout_mean) for q in range(coupling.num_qubits)},
        )

    # ------------------------------------------------------------------
    def gate_error(
        self, name: str, qubits: Tuple[int, ...], strict: bool = True
    ) -> float:
        """Error rate of one gate application (SWAP counts as 3 CNOTs).

        ``strict`` controls what a *missing* calibration entry means, the
        same way on both arities: strict (default) raises ``ValueError``
        naming the uncalibrated qubit or edge, lenient returns 0.0.  (The
        historical behaviour — unknown single-qubit indices silently 0.0
        while unknown edges raised — under-reported bad 1q indices and
        crashed FT all-to-all circuits in :func:`esp`.)
        """
        if len(qubits) == 1:
            rate = self.single_qubit_error.get(qubits[0])
            if rate is None:
                if strict:
                    raise ValueError(
                        f"no single-qubit calibration for qubit {qubits[0]}"
                    )
                return 0.0
            return rate
        edge = tuple(sorted(qubits))
        rate = self.two_qubit_error.get(edge)
        if rate is None:
            if strict:
                raise ValueError(f"no calibration for edge {edge}")
            return 0.0
        if name == "swap":
            # SWAP = 3 CNOTs: success = (1 - e)^3.
            return 1.0 - (1.0 - rate) ** 3
        return rate

    def edge_error_map(self) -> Dict[Tuple[int, int], float]:
        """For the SC pass's lowest-error path selection."""
        return dict(self.two_qubit_error)

    def swap_cost(self, a: int, b: int) -> float:
        """Reliability cost of one SWAP on edge ``(a, b)``.

        The additive form of swap success probability: a SWAP is 3 CNOTs,
        so its cost is ``-log((1 - e)^3) = 3 * -log(1 - e)``.  Summing
        these along a path is exactly minimizing the product of swap
        failure-free probabilities — the Section 5.2 "low-error path".
        Raises ``ValueError`` for an uncalibrated edge.
        """
        edge = (a, b) if a < b else (b, a)
        rate = self.two_qubit_error.get(edge)
        if rate is None:
            raise ValueError(f"no calibration for edge {edge}")
        return 3.0 * -math.log(1.0 - rate)

    # ------------------------------------------------------------------
    # Serialization (device registry snapshots + cache identity)
    # ------------------------------------------------------------------
    def to_calibration(self) -> Dict:
        """JSON-able calibration snapshot (exact rates, sorted entries)."""
        return {
            "single_qubit_error": [
                [q, rate] for q, rate in sorted(self.single_qubit_error.items())
            ],
            "two_qubit_error": [
                [a, b, rate]
                for (a, b), rate in sorted(self.two_qubit_error.items())
            ],
            "readout_error": [
                [q, rate] for q, rate in sorted(self.readout_error.items())
            ],
        }

    @classmethod
    def from_calibration(cls, payload: Dict) -> "NoiseModel":
        """Rebuild a model from :meth:`to_calibration` output."""
        return cls(
            {int(q): float(r) for q, r in payload.get("single_qubit_error", [])},
            {(int(a), int(b)): float(r)
             for a, b, r in payload.get("two_qubit_error", [])},
            {int(q): float(r) for q, r in payload.get("readout_error", [])},
        )

    def quantized_spec(self) -> List:
        """Canonical JSON-able identity of this model for fingerprints.

        Rates are rounded to ``1e-6`` so calibration noise below routing
        relevance cannot thrash the compile cache, while any real
        recalibration (rates move by >= 1e-6) produces a distinct spec.
        """
        q = _QUANTIZE_DIGITS
        return [
            [[a, round(r, q)] for a, r in sorted(self.single_qubit_error.items())],
            [[a, b, round(r, q)]
             for (a, b), r in sorted(self.two_qubit_error.items())],
            [[a, round(r, q)] for a, r in sorted(self.readout_error.items())],
        ]


def esp(
    circuit: QuantumCircuit,
    model: NoiseModel,
    measured_qubits: Optional[Iterable[int]] = None,
    strict: bool = True,
) -> float:
    """Estimated Success Probability of a compiled circuit.

    ``strict`` (default) raises ``ValueError`` on the first gate whose
    qubit or edge has no calibration entry — the right default for routed
    circuits, where every operand must sit on calibrated hardware.  Pass
    ``strict=False`` for the documented *lenient* mode: uncalibrated
    operands are treated as error-free (rate 0.0), which is what an FT
    all-to-all circuit scored against a device model needs (its virtual
    long-range edges have no physical calibration).  Readout is lenient in
    both modes: unmeasured or uncalibrated qubits contribute no factor.
    """
    prob = 1.0
    for gate in circuit:
        prob *= 1.0 - model.gate_error(gate.name, gate.qubits, strict=strict)
    if measured_qubits is not None:
        for q in measured_qubits:
            prob *= 1.0 - model.readout_error.get(q, 0.0)
    return prob
