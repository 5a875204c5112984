"""Top-level Paulihedral entry point.

``compile_program`` wires the technology-independent scheduling passes
(Section 4) to the technology-dependent block-wise optimization passes
(Section 5), mirroring Figure 1's flow:

.. code-block:: text

    Pauli IR --(scheduling)--> layers --(block-wise opt)--> gate sequence

Backends:

* ``"ft"`` — fault-tolerant: all-to-all connectivity, gate-cancellation
  maximizing synthesis (Algorithm 2); default scheduler ``gco``.
* ``"sc"`` — superconducting: coupling-constrained tree-embedded synthesis
  (Algorithm 3); requires a coupling map; default scheduler ``do``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString
from ..static.invariants import debug_check
from ..transpile import CouplingMap, DeviceSpec, Layout, get_device
from .cancellation import CompilationCancelled, check_cancel
from .ft_backend import ft_compile
from .passes import Pipeline
from .sc_backend import sc_compile

if TYPE_CHECKING:  # deferred at runtime: repro.service imports this module
    from ..noise.model import NoiseModel
    from ..service.cache import CompileCache
    from ..verify import VerificationReport

__all__ = [
    "CompilationCancelled",
    "CompilationResult",
    "compile_program",
    "resolve_target",
]


def resolve_target(
    coupling: Optional[CouplingMap] = None,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    device: Optional["DeviceSpec | str"] = None,
    noise_model: Optional["NoiseModel"] = None,
) -> Tuple[
    Optional[CouplingMap],
    Optional[Dict[Tuple[int, int], float]],
    Optional["NoiseModel"],
    Optional[str],
]:
    """Resolve device/noise shorthand into concrete compile inputs.

    Returns ``(coupling, edge_error, noise_model, device_name)``.  Shared
    by :func:`compile_program` and the batch layer's fingerprinting so the
    cache key and the actual compilation can never disagree about what a
    ``device`` means.
    """
    device_name: Optional[str] = None
    if device is not None:
        spec = get_device(device) if isinstance(device, str) else device
        if coupling is not None:
            raise ValueError("pass either a device or a coupling map, not both")
        coupling = spec.coupling
        device_name = spec.name
        if noise_model is None:
            noise_model = spec.noise_model
    if noise_model is not None and edge_error is None:
        edge_error = noise_model.edge_error_map()
    return coupling, edge_error, noise_model, device_name


@dataclass
class CompilationResult:
    """Everything a caller needs from one Paulihedral compilation."""

    circuit: QuantumCircuit
    backend: str
    scheduler: str
    emitted_terms: List[Tuple[PauliString, float]] = field(default_factory=list)
    initial_layout: Optional[Layout] = None
    final_layout: Optional[Layout] = None
    #: Content hash of (program, options); set when compiled with a cache.
    fingerprint: Optional[str] = None
    #: True when this result was served from a cache rather than compiled.
    from_cache: bool = False
    #: Pauli-propagation report; set when compiled with ``verify=True``.
    verification: Optional["VerificationReport"] = None
    #: Registry name of the target device; set when compiled with one.
    device: Optional[str] = None
    #: Quality tier this result was compiled at ("full" unless a
    #: ``peephole_level`` override lowered the effort).  Execution
    #: effort only — never part of the cache fingerprint.
    tier: str = "full"
    #: Provenance: the name of the shipped pipeline that ran (e.g.
    #: ``"ft-gco-opt3"``, see :func:`repro.core.passes.shipped_pipelines`);
    #: ``None`` for results built by hand.
    pipeline: Optional[str] = None

    @property
    def metrics(self) -> Dict[str, int]:
        """Paper metrics: CNOT / single-qubit / total gate count and depth."""
        return {
            "cnot": self.circuit.cnot_count,
            "single": self.circuit.single_qubit_count,
            "total": self.circuit.cnot_count + self.circuit.single_qubit_count,
            "depth": self.circuit.depth(),
        }

    def esp(
        self,
        noise_model: "NoiseModel",
        measured_qubits: Optional[List[int]] = None,
        strict: Optional[bool] = None,
    ) -> float:
        """Estimated Success Probability of the compiled circuit.

        ``strict`` defaults per backend: SC circuits are routed, so every
        operand must be calibrated (strict); FT circuits act on virtual
        all-to-all edges with no physical calibration, so they score
        lenient (uncalibrated operands are error-free).  See
        :func:`repro.noise.model.esp`.
        """
        # Deferred import: repro.noise sits above the core compiler.
        from ..noise.model import esp as _esp

        if strict is None:
            strict = self.backend == "sc"
        return _esp(
            self.circuit, noise_model,
            measured_qubits=measured_qubits, strict=strict,
        )


def compile_program(
    program: PauliProgram,
    backend: str = "ft",
    scheduler: Optional[str] = None,
    coupling: Optional[CouplingMap] = None,
    edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    run_peephole: bool = True,
    restarts: int = 1,
    device: Optional["DeviceSpec | str"] = None,
    noise_model: Optional["NoiseModel"] = None,
    cache: Optional["CompileCache"] = None,
    verify: bool = False,
    cancel: Optional[Callable[[], bool]] = None,
    peephole_level: Optional[int] = None,
) -> CompilationResult:
    """Compile a Pauli IR program with Paulihedral.

    Parameters
    ----------
    program:
        The Pauli IR input.
    backend:
        ``"ft"`` or ``"sc"``.
    scheduler:
        ``"gco"``, ``"do"``, ``"none"``, or a streaming variant
        ``"gco-stream"`` / ``"do-stream"`` (bounded-memory scheduling for
        10^5+-term programs, see :mod:`repro.core.streaming`); defaults
        to the backend's preferred pass (``gco`` for FT, ``do`` for SC).
    coupling:
        Device coupling map; required for the SC backend.  Mutually
        exclusive with ``device``, which bundles its own.
    edge_error:
        Optional per-edge error rates guiding SC path selection; defaults
        to the noise model's edge map when one is supplied.
    device:
        A :class:`~repro.transpile.DeviceSpec` or a registry name
        (``repro.transpile.get_device``).  Supplies both the coupling map
        and the noise model, names the compile target for the cache
        fingerprint, and lands on ``result.device``.
    noise_model:
        Calibration for reliability-weighted path selection and ESP
        reporting; part of the cache identity (quantized rates).
        Defaults to the device's model when ``device`` is given.
    run_peephole:
        Apply the generic peephole cleanup after synthesis (the paper always
        runs a generic compiler after Paulihedral).
    restarts:
        SC backend only: number of jittered initial-placement attempts; the
        lowest-CNOT result wins (deterministic, first attempt unjittered).
    cache:
        Optional :class:`~repro.service.cache.CompileCache`.  The program
        and options are content-fingerprinted; on a hit the stored artifact
        is deserialized and returned (``result.from_cache`` is ``True``),
        on a miss the compilation runs and its artifact is stored.
    verify:
        Run the Pauli-propagation verifier (:mod:`repro.verify`) on the
        result — including cache hits, so a corrupted artifact can never
        be served silently.  The report lands on ``result.verification``;
        a failed check raises :class:`~repro.verify.VerificationError`.
        Verification is a check, not a compile option, so it does not
        enter the cache fingerprint.
    cancel:
        Optional zero-argument callable polled on entry, after every pass
        and before each SC restart attempt; returning ``True`` raises
        :class:`CompilationCancelled`.  Cancellation is a
        caller-liveness signal, not a compile option — it never enters
        the fingerprint.  A cache hit is returned even when ``cancel``
        already fires (serving it is cheaper than checking).
    peephole_level:
        Execution-effort override for the speculative fast tier.  ``None``
        (the default) runs the full peephole fixpoint when
        ``run_peephole`` is set; an integer runs only the level's rule
        subset (see :func:`repro.static.contracts.rules_for_level`), so
        level 1 is cancel+merge only.  Like ``cancel``, this is effort
        and not identity: it never enters the fingerprint.  A result
        produced at a reduced level carries ``tier="opt<level>"`` and is
        stored tier-aware (:func:`repro.service.batch.publish`), so it can
        only ever be *upgraded*, never served in place of a stored
        higher-tier artifact — a cache hit below the requested tier is
        treated as a miss and recompiled.

    A string whose rotation angle (``-2 * weight * parameter``) is not
    finite raises ``ValueError`` naming ``program.coefficient-finite``;
    the check runs after the cache lookup, so a hit pays nothing for it.
    """
    coupling, edge_error, noise_model, device_name = resolve_target(
        coupling=coupling, edge_error=edge_error,
        device=device, noise_model=noise_model,
    )

    if backend == "ft":
        resolved_scheduler = scheduler or "gco"
    elif backend == "sc":
        if coupling is None:
            raise ValueError("the SC backend requires a coupling map")
        resolved_scheduler = scheduler or "do"
    else:
        raise ValueError(f"unknown backend {backend!r}; expected 'ft' or 'sc'")

    # The flow ft_compile/sc_compile run (they build the same key); its
    # name is the result's provenance.
    key = Pipeline.for_backend(
        backend, resolved_scheduler, run_peephole, peephole_level, edge_error)
    tier = "full" if key.level >= 3 or not run_peephole else f"opt{key.level}"

    fingerprint: Optional[str] = None
    if cache is not None:
        # Deferred import: repro.service depends on this module.
        from ..service.artifact import dumps_artifact, loads_artifact, tier_rank
        from ..service.fingerprint import canonical_options, compile_fingerprint

        fingerprint = compile_fingerprint(
            program,
            canonical_options(
                backend=backend,
                scheduler=resolved_scheduler,
                coupling=coupling,
                edge_error=edge_error,
                run_peephole=run_peephole,
                restarts=restarts,
                noise_model=noise_model,
                device=device_name,
            ),
        )
        stored = cache.get(fingerprint)
        if stored is not None:
            try:
                result = loads_artifact(stored)
            except (ValueError, KeyError, TypeError, AttributeError):
                # Stale artifact version or corrupted entry: a cache hit
                # must never be worse than a miss — recompile and overwrite.
                result = None
            if result is not None and tier_rank(result.tier) < tier_rank(tier):
                # The stored artifact is a lower tier than this call wants
                # (e.g. a speculative opt-1 placeholder found by the full
                # background recompile): treat it as a miss.
                result = None
            if result is not None:
                result.fingerprint = fingerprint
                result.from_cache = True
                return _maybe_verify(program, result, verify)

    _require_finite_angles(program)
    check_cancel(cancel, "before scheduling")
    debug_check("compile: input program", program=program)

    if backend == "ft":
        run = ft_compile(
            program, scheduler=resolved_scheduler, run_peephole=run_peephole,
            cancel=cancel, peephole_level=peephole_level,
        )
    else:
        run = sc_compile(
            program,
            coupling,
            scheduler=resolved_scheduler,
            edge_error=edge_error,
            run_peephole=run_peephole,
            restarts=restarts,
            cancel=cancel,
            peephole_level=peephole_level,
        )
    result = CompilationResult(
        circuit=run.circuit,
        backend=backend,
        scheduler=resolved_scheduler,
        emitted_terms=run.emitted_terms,
        initial_layout=run.initial_layout,
        final_layout=run.final_layout,
        device=device_name,
    )
    result.fingerprint = fingerprint
    result.tier = tier
    result.pipeline = key.name
    if cache is not None:
        # The serving layer's one tier rule: a reduced-tier result goes
        # through the never-downgrade path, so a concurrent full compile
        # is never clobbered by a speculative placeholder.
        from ..service.batch import publish

        publish(cache, fingerprint, dumps_artifact(result), tier)
    return _maybe_verify(program, result, verify)


def _require_finite_angles(program: PauliProgram) -> None:
    """Reject a string whose rotation angle would not be finite: a NaN or
    infinite weight or block parameter, or a product that overflows."""
    isfinite = math.isfinite
    for index, block in enumerate(program):
        parameter = block.parameter
        for ws in block:
            if not isfinite(-2.0 * (ws.weight * parameter)):
                raise ValueError(
                    f"program.coefficient-finite: block {index}, string "
                    f"{ws.string.label}: weight {ws.weight!r} times "
                    f"parameter {parameter!r} is not a finite angle")


def _maybe_verify(
    program: PauliProgram, result: CompilationResult, verify: bool
) -> CompilationResult:
    if verify:
        # Deferred import: repro.verify sits above the core compiler.
        from ..verify import verify_result

        result.verification = verify_result(program, result)
        result.verification.raise_if_failed()
    return result
