"""One pass table, checked and executed (the paper's Figure 1 pipeline).

Figure 1 presents Paulihedral as a staged pipeline — technology-independent
instruction scheduling, then technology-dependent block-wise optimization,
then a generic gate-level backend — and Section 7 stresses that new
backends plug in by swapping passes.  This module writes that pipeline
down once:

* :func:`pass_sequence` is the only place a stock flow is composed: it
  maps ``(backend, scheduler, peephole level, noise-aware)`` to a tuple of
  contract names from :mod:`repro.static.contracts`.
* :class:`Pipeline` is one such key.  :func:`shipped_pipelines`
  enumerates every key that ``compile_program``, ``ft_compile``,
  ``sc_compile`` and ``transpile`` can run; ``repro check`` proves them.
* :func:`run_pipeline` is the driver.  It validates a sequence with the
  contract checker before any pass runs (once per stock sequence, then
  cached), runs the passes, and after every pass polls ``cancel`` and
  runs the ``REPRO_CHECK_INVARIANTS`` sweep.  With ``restarts > 1`` it
  re-runs everything after scheduling and keeps the lowest-CNOT attempt.

A custom sequence may mix contract names and callables.  A callable's slot
follows from the properties flowing into it: a schedule pass
(``program -> schedule``) until something schedules, a synthesis pass
(``(schedule, program) -> circuit``) until something synthesizes, then a
circuit pass (``circuit -> circuit``).  An undeclared callable gets its
slot's conservative default contract (see
:func:`repro.static.contracts.contract_for`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import (
    Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..circuit import QuantumCircuit
from ..ir import PauliProgram
from ..pauli import PauliString
from ..static.contracts import (
    CONTRACTS,
    PassContract,
    PipelineChecker,
    contract_for,
    register_callable,
    rules_for_level,
)
from ..static.invariants import debug_check
from ..transpile import (
    CouplingMap, Layout, optimize, peephole, route, validate_routed,
)
from . import ft_backend, sc_backend
from .cancellation import check_cancel
from .scheduling import Schedule, do_schedule, gco_schedule
from .streaming import is_streaming_scheduler

__all__ = [
    "SCHEDULERS",
    "Pipeline",
    "PipelineResult",
    "pass_sequence",
    "run_pipeline",
    "shipped_pipelines",
]

# Stock callables resolve to their declared contracts in custom sequences.
register_callable(gco_schedule, "schedule_gco")
register_callable(do_schedule, "schedule_do")
register_callable(optimize, "peephole")

SCHEDULERS: Tuple[str, ...] = ("gco", "do", "none", "gco-stream", "do-stream")

_IR = frozenset({"ir_valid"})
_CIRCUIT = frozenset({"synthesized"})
_ROUTED = frozenset({"synthesized", "routed", "coupling_respected"})
#: backend -> (properties on entry, goal)
_SIGNATURES: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {
    "ft": (_IR, frozenset({"synthesized", "terms_recorded"})),
    "sc": (_IR, _ROUTED),
    "generic": (_CIRCUIT, _ROUTED),
    "generic-alltoall": (_CIRCUIT, _CIRCUIT),
}


def pass_sequence(
    backend: str,
    scheduler: Optional[str] = None,
    level: int = 3,
    noise_aware: bool = False,
) -> Tuple[str, ...]:
    """The contract names a stock flow runs, in order.

    ``backend`` is ``"ft"`` or ``"sc"`` (schedule a Pauli program, then
    synthesize), ``"generic"`` (optimize, route, re-optimize a circuit) or
    ``"generic-alltoall"`` (optimize only).  ``level`` picks the peephole
    rules (:func:`~repro.static.contracts.rules_for_level`); the SC and
    generic flows switch to their calibration-weighted passes when
    ``noise_aware``.  The FT flow synthesizes the raw emission at level 0
    and the residue (``ft_synthesize_residue``) when a level's rules
    follow, so the peephole starts from the slots where a rule can fire.
    """
    rules = tuple(rules_for_level(level))
    if backend == "generic":
        router = "route_sabre_noise" if noise_aware else "route_sabre"
        return (*rules, router, *rules, "validate_routed")
    if backend == "generic-alltoall":
        return rules
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    schedule = f"schedule_{scheduler.replace('-', '_')}"
    if backend == "ft":
        synthesize = "ft_synthesize_residue" if rules else "ft_synthesize"
        return (schedule, synthesize, *rules)
    if backend == "sc":
        synthesize = "sc_synthesize_noise" if noise_aware else "sc_synthesize"
        return (schedule, synthesize, *rules, "validate_routed")
    raise ValueError(f"unknown backend {backend!r}")


class Pipeline(NamedTuple):
    """A stock flow: the key :func:`pass_sequence` composes from."""

    backend: str
    scheduler: Optional[str] = None
    level: int = 3
    noise_aware: bool = False

    @classmethod
    def for_backend(
        cls,
        backend: str,
        scheduler: str,
        run_peephole: bool = True,
        peephole_level: Optional[int] = None,
        edge_error: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> "Pipeline":
        """The flow a backend compile runs: level 0 with the peephole off,
        the full fixpoint (3) without an override, else the override
        clamped to 0-3; SC synthesis is noise-aware with calibrations."""
        if not run_peephole:
            level = 0
        elif peephole_level is None:
            level = 3
        else:
            level = max(0, min(3, int(peephole_level)))
        return cls(backend, scheduler, level, backend == "sc" and bool(edge_error))

    @property
    def name(self) -> str:
        """Provenance name, e.g. ``ft-gco-opt3`` or ``sc-noise-do-opt1``."""
        parts = (self.backend, "noise" if self.noise_aware else "",
                 self.scheduler or "", f"opt{self.level}")
        return "-".join(part for part in parts if part)

    @property
    def passes(self) -> Tuple[str, ...]:
        return pass_sequence(*self)

    @property
    def initial(self) -> FrozenSet[str]:
        return _SIGNATURES[self.backend][0]

    @property
    def goal(self) -> FrozenSet[str]:
        return _SIGNATURES[self.backend][1]

    def run(self, subject, **options) -> "PipelineResult":
        """Run this flow on a program (``ft``/``sc``) or circuit
        (``generic*``); ``options`` as for :func:`run_pipeline`."""
        return run_pipeline(self.passes, subject, backend=self.backend,
                            name=self.name, **options)


def shipped_pipelines() -> List[Pipeline]:
    """Every stock flow at optimization levels 0-3: FT and SC under each
    scheduler (SC distance-only and noise-aware), plus the generic
    transpile sequences."""
    keys: List[Pipeline] = []
    for level in range(4):
        keys += [Pipeline("ft", s, level) for s in SCHEDULERS]
        keys += [Pipeline("sc", s, level, noise)
                 for noise in (False, True) for s in SCHEDULERS]
        keys += [Pipeline("generic", None, level, noise)
                 for noise in (False, True)]
        keys.append(Pipeline("generic-alltoall", None, level))
    return keys


@dataclass
class PipelineResult:
    """What flows through a run: the input, the target options the stock
    passes read, and what the passes produced."""

    program: Optional[PauliProgram] = None
    circuit: Optional[QuantumCircuit] = None
    schedule: Optional[Schedule] = None
    emitted_terms: List[Tuple[PauliString, float]] = field(default_factory=list)
    initial_layout: Optional[Layout] = None
    final_layout: Optional[Layout] = None
    transition_swaps: int = 0
    backend: str = "ft"
    coupling: Optional[CouplingMap] = None
    edge_error: Optional[Dict[Tuple[int, int], float]] = None
    junction_policy: str = "paired"
    seed: int = 7
    attempt: int = 0
    streaming: bool = False
    #: What the last step left the peephole (residue synthesis), or None.
    seams: Optional["Seams"] = None


class Seams(NamedTuple):
    """A synthesis's hint to the peephole step right after it (the FT
    residue, or the SC emission): its circuit's tape comes linked, and
    the step rewrites it in place."""

    slots: List[int]  # the worklist to start from: where a rule can fire
    raw: Callable[[], QuantumCircuit]  # the raw emission it stands in for


# ---------------------------------------------------------------------------
# The stock passes, by contract name
# ---------------------------------------------------------------------------

def _scheduler(name: str) -> Callable[[PipelineResult], None]:
    def schedule(state: PipelineResult) -> None:
        # Looked up on the flow's backend module at call time, so a
        # profiler can rebind one backend's scheduling.
        module = sc_backend if state.backend == "sc" else ft_backend
        if name == "none":
            state.schedule = [[block] for block in state.program]
        elif is_streaming_scheduler(name):
            state.streaming = True
            state.schedule = module.stream_schedule(state.program, name)
        else:
            fn = {"gco": module.gco_schedule, "do": module.do_schedule}[name]
            state.schedule = fn(state.program)

    return schedule


def _ft_synthesize(state: PipelineResult) -> None:
    state.emitted_terms = ft_backend._flatten_schedule(
        state.schedule, release=state.streaming)
    state.circuit = ft_backend.ft_synthesize(
        state.emitted_terms, state.program.num_qubits,
        junction_policy=state.junction_policy)


def _ft_synthesize_residue(state: PipelineResult) -> None:
    terms = state.emitted_terms = ft_backend._flatten_schedule(
        state.schedule, release=state.streaming)
    num_qubits, policy = state.program.num_qubits, state.junction_policy
    state.circuit, slots = ft_backend._synthesize_residue(
        terms, num_qubits, junction_policy=policy)
    state.seams = Seams(slots, lambda: ft_backend.ft_synthesize(
        terms, num_qubits, junction_policy=policy))


def _sc_synthesizer(seeded: bool) -> Callable[[PipelineResult], None]:
    """The SC synthesis step; ``seeded`` when a peephole step follows it:
    the emission then comes as a linked tape with the slots where a rule
    can fire, and the raw emission as that step's fallback."""
    def sc_synthesize(state: PipelineResult) -> None:
        if not isinstance(state.schedule, list):
            # The SC pass walks the schedule twice (interaction-aware
            # layout, then synthesis) and restarts re-run it, so a streamed
            # layer *structure* is materialized; block views are not, and
            # release_views drops each one after synthesis.
            state.schedule = [list(layer) for layer in state.schedule]
        rng = random.Random(state.seed + state.attempt) if state.attempt else None
        result, seeds = sc_backend.SCSynthesizer(
            state.coupling, state.edge_error, rng=rng,
            release_views=state.streaming,
        )._run(state.schedule, state.program.num_qubits, seeded)
        state.circuit = result.circuit
        state.initial_layout = result.initial_layout
        state.final_layout = result.final_layout
        state.emitted_terms = result.emitted_terms
        state.transition_swaps = result.transition_swaps
        if seeds is not None:
            state.seams = Seams(*seeds)

    return sc_synthesize


_sc_synthesize = _sc_synthesizer(seeded=False)
_sc_synthesize_seeded = _sc_synthesizer(seeded=True)


def _route(state: PipelineResult) -> None:
    state.circuit = route(
        state.circuit, state.coupling, initial_layout=state.initial_layout,
        edge_error=state.edge_error,
    ).circuit


def _validate_routed(state: PipelineResult) -> None:
    validate_routed(state.circuit, state.coupling)


#: Peephole rule contracts and their engine flags.  Consecutive rules run
#: as one joint fixpoint (a single engine call).
_RULE_FLAGS = {
    "peephole_cancel": "do_cancel",
    "peephole_merge": "do_merge",
    "peephole_commute": "do_commute",
    "peephole_fuse": "do_fuse",
}


def _rules(names: Sequence[str]) -> Callable[[PipelineResult], None]:
    flags = {flag: name in names for name, flag in _RULE_FLAGS.items()}

    def peephole_step(state: PipelineResult) -> None:
        seams = state.seams
        if seams is not None:
            # The seeded circuit is the pipeline's own: the synthesis step
            # right before built it and nothing else holds it, so the
            # engine rewrites its tape in place instead of on a copy.
            tape = state.circuit.tape
            if peephole._engine(tape, seeds=seams.slots, strict=True,
                                **flags) is not None:
                state.circuit = QuantumCircuit.from_tape(
                    tape.compact(), name=state.circuit.name)
                return
            # A rewrite could end differently from the seeds than from
            # every slot of the raw emission: drop the half-rewritten tape
            # and run the raw emission's fixpoint instead.
            state.circuit = seams.raw()
        state.circuit, _ = peephole._run(state.circuit, **flags)

    return peephole_step


_PASSES: Dict[str, Callable[[PipelineResult], None]] = {
    **{f"schedule_{s.replace('-', '_')}": _scheduler(s) for s in SCHEDULERS},
    "ft_synthesize": _ft_synthesize,
    "ft_synthesize_residue": _ft_synthesize_residue,
    "sc_synthesize": _sc_synthesize,
    "sc_synthesize_noise": _sc_synthesize,
    **{rule: _rules([rule]) for rule in _RULE_FLAGS},
    "peephole": _rules(list(_RULE_FLAGS)),
    "route_sabre": _route,
    "route_sabre_noise": _route,
    "validate_routed": _validate_routed,
}


def _custom(slot: str, fn: Callable) -> Callable[[PipelineResult], None]:
    """Adapt a user callable to its slot's calling convention."""
    def run(state: PipelineResult) -> None:
        if slot == "schedule":
            state.schedule = fn(state.program)
        elif slot == "synthesize":
            state.circuit = fn(state.schedule, state.program)
        else:
            state.circuit = fn(state.circuit)

    return run


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class _Step(NamedTuple):
    label: str
    run: Callable[[PipelineResult], None]
    routed: bool  # coupling_respected holds afterwards
    rules: Tuple[str, ...] = ()  # the peephole rules this step runs


_CHECKER = PipelineChecker()


def _plan(
    passes: Tuple, name: str, initial: FrozenSet[str], goal: FrozenSet[str],
) -> Tuple[Tuple[_Step, ...], int]:
    """Check ``passes`` and turn them into steps; returns the steps and
    how many of them lead as the schedule slot (run once per compile)."""
    contracts: List[PassContract] = []
    steps: List[_Step] = []
    missing: List[str] = []
    split = 0
    properties = initial
    for entry in passes:
        if isinstance(entry, str):
            if entry not in CONTRACTS:
                raise ValueError(f"unknown pass {entry!r}")
            contract, run, label = CONTRACTS[entry], _PASSES.get(entry), entry
            if run is None:
                missing.append(entry)
        else:
            slot = ("circuit" if "synthesized" in properties else
                    "synthesize" if "scheduled" in properties else "schedule")
            contract = contract_for(entry, default=f"{slot}_opaque")
            run, label = _custom(slot, entry), getattr(entry, "__name__", slot)
        if not properties & {"scheduled", "synthesized"}:
            split += 1
        contracts.append(contract)
        properties = contract.apply(properties)
        routed = "coupling_respected" in properties
        rules = (entry,) if isinstance(entry, str) and entry in _RULE_FLAGS else ()
        if rules and steps and steps[-1].rules:
            rules = steps[-1].rules + rules
            steps[-1] = _Step("+".join(rules), _rules(rules), routed, rules)
        else:
            if rules and steps and steps[-1].run is _sc_synthesize:
                # The SC synthesis hands the peephole step right after it
                # the slots where a rule can fire.
                steps[-1] = steps[-1]._replace(run=_sc_synthesize_seeded)
            steps.append(_Step(label, run, routed, rules))
    _CHECKER.check(contracts, initial=initial, goal=goal, name=name)
    if missing:
        raise ValueError(
            f"pipeline {name!r}: no stock pass implements {missing!r}; "
            f"pass a callable registered to that contract instead")
    return tuple(steps), split


#: Stock sequences are checked once; 128 entries hold all shipped ones.
_stock_plan = lru_cache(maxsize=128)(_plan)


def _run_step(step: _Step, state: PipelineResult, name: str,
          cancel: Optional[Callable[[], bool]]) -> None:
    seams = state.seams
    step.run(state)
    if state.seams is seams:
        # Seams hold for the circuit of the step that reported them, so
        # they reach the next step only; any other step drops them.
        state.seams = None
    check_cancel(cancel, f"after {step.label}")
    stage = f"{name}: {step.label}"
    if state.circuit is None:
        debug_check(stage, program=state.program)
    else:
        debug_check(stage, tape=state.circuit.tape,
                    coupling=state.coupling if step.routed else None)


def run_pipeline(
    passes: Sequence,
    subject,
    backend: str = "ft",
    name: str = "custom",
    goal: Optional[FrozenSet[str]] = None,
    cancel: Optional[Callable[[], bool]] = None,
    restarts: int = 1,
    **options,
) -> PipelineResult:
    """Check ``passes``, then run them on ``subject``.

    ``subject`` is a :class:`~repro.ir.PauliProgram` (entry property
    ``ir_valid``) or an already synthesized circuit (``synthesized``).
    ``backend`` picks the default ``goal`` and where the stock schedule
    passes look their scheduler up.  A miscomposed sequence raises
    :class:`~repro.static.contracts.PipelineContractError` before any pass
    runs.  ``cancel`` is polled after every pass and before each restart
    (see :mod:`repro.core.cancellation`).  ``options`` set the remaining
    :class:`PipelineResult` fields the stock passes read (``coupling``,
    ``edge_error``, ``junction_policy``, ``seed``, ``initial_layout``).
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    is_circuit = isinstance(subject, QuantumCircuit)
    initial = _CIRCUIT if is_circuit else _IR
    goal = _SIGNATURES[backend][1] if goal is None else frozenset(goal)
    passes = tuple(passes)
    plan = (_stock_plan if all(isinstance(p, str) for p in passes) else _plan)
    steps, split = plan(passes, name, initial, goal)
    state = PipelineResult(backend=backend, **options)
    if is_circuit:
        state.circuit = subject
    else:
        state.program = subject
    for step in steps[:split]:
        _run_step(step, state, name, cancel)
    best: Optional[PipelineResult] = None
    for attempt in range(restarts):
        if attempt:
            check_cancel(cancel, f"before restart attempt {attempt}")
        state.attempt = attempt
        for step in steps[split:]:
            _run_step(step, state, name, cancel)
        if best is None or state.circuit.cnot_count < best.circuit.cnot_count:
            best = replace(state)
    return best
