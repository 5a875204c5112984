"""Pass contracts and the pipeline composition checker.

Paulihedral's passes compose safely only because each pass preserves the
semantic properties the next pass assumes — the scheduler leaves blocks
mutually commuting within a layer, SC synthesis leaves every two-qubit
gate on a coupled edge, the peephole rules never move a gate across
wires.  Until now those assumptions were implicit.  This module makes
them declarations: every pass carries a :class:`PassContract` stating
which properties it ``requires`` on entry, which it ``establishes`` on
exit, and which it ``preserves`` (everything else is conservatively
assumed destroyed).  :class:`PipelineChecker` then runs a simple forward
dataflow over a pass sequence and rejects any ordering whose
requirements cannot be met, *before any gate is emitted*, with a
diagnostic naming the offending pass, the unmet property, and the pass
that dropped it.

The module is deliberately **stdlib-only and imports nothing from the
rest of the package** — it is pure metadata, so the pass driver in
:mod:`repro.core.passes` can import it without layering cycles.  Stock
callables are bound to contract names via :func:`register_callable` at
their own modules' import time.  The pass table itself, and the list of
shipped pipelines ``repro check`` proves, live in
:mod:`repro.core.passes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence

__all__ = [
    "VOCABULARY",
    "ALL",
    "PassContract",
    "PipelineContractError",
    "PipelineChecker",
    "CONTRACTS",
    "preserves_all_except",
    "contract_for",
    "register_callable",
    "rules_for_level",
]

#: The closed property vocabulary.  Contracts may only mention these
#: names; a typo in a contract is itself a static error.
VOCABULARY: FrozenSet[str] = frozenset(
    {
        # IR-level properties.
        "ir_valid",                   # Pauli program passed the invariant analyzer
        "scheduled",                  # blocks grouped into an ordered layer schedule
        "blocks_commuting_grouped",   # blocks within each layer mutually commute
        # Circuit-level properties.
        "synthesized",                # a gate circuit exists
        "terms_recorded",             # emitted (string, coefficient) order captured
        "routed",                     # circuit mapped onto physical qubits
        "coupling_respected",         # every 2q gate sits on a coupled edge
        "no_dead_gates",              # peephole fixpoint: no adjacent inverse pairs
        "canonical_angles",           # rotations folded mod 2*pi, zero-angle dropped
    }
)


def preserves_all_except(*dropped: str) -> FrozenSet[str]:
    """Preservation set for a pass that keeps every property except ``dropped``."""
    unknown = set(dropped) - VOCABULARY
    if unknown:
        raise ValueError(f"unknown properties {sorted(unknown)!r}")
    return VOCABULARY - set(dropped)


#: A pass that touches nothing it does not explicitly establish.
ALL: FrozenSet[str] = preserves_all_except()


@dataclass(frozen=True)
class PassContract:
    """What a pass assumes, guarantees, and leaves alone.

    The transfer function is ``out = (in & preserves) | establishes``; a
    sequence is well-composed when every pass's ``requires`` is a subset
    of the properties flowing into it.
    """

    name: str
    requires: FrozenSet[str] = frozenset()
    establishes: FrozenSet[str] = frozenset()
    preserves: FrozenSet[str] = ALL
    description: str = ""

    def __post_init__(self) -> None:
        for kind in ("requires", "establishes", "preserves"):
            names = getattr(self, kind)
            object.__setattr__(self, kind, frozenset(names))
            unknown = frozenset(names) - VOCABULARY
            if unknown:
                raise ValueError(
                    f"contract {self.name!r}: {kind} mentions unknown "
                    f"properties {sorted(unknown)!r}"
                )

    def apply(self, properties: FrozenSet[str]) -> FrozenSet[str]:
        return (properties & self.preserves) | self.establishes


class PipelineContractError(ValueError):
    """A pass sequence is statically miscomposed.

    Carries the pipeline name, the offending pass (``None`` when the
    *goal* is unmet rather than a pass requirement), the unmet property,
    and the pass that dropped it (``None`` when it was never
    established), so tests and tools can assert on structure instead of
    parsing the message.
    """

    def __init__(
        self,
        pipeline: str,
        unmet: str,
        pass_name: Optional[str],
        position: Optional[int],
        dropped_by: Optional[str],
        message: str,
    ):
        super().__init__(message)
        self.pipeline = pipeline
        self.unmet = unmet
        self.pass_name = pass_name
        self.position = position
        self.dropped_by = dropped_by


# ---------------------------------------------------------------------------
# Built-in contracts
# ---------------------------------------------------------------------------

def _contract_table() -> Dict[str, PassContract]:
    table: Dict[str, PassContract] = {}

    def add(contract: PassContract) -> None:
        table[contract.name] = contract

    # -- scheduling passes (PauliProgram -> Schedule) -----------------------
    add(PassContract(
        "schedule_gco",
        establishes=frozenset({"scheduled", "blocks_commuting_grouped"}),
        description="Gate-count-oriented lexicographic scheduling (Algorithm 1).",
    ))
    add(PassContract(
        "schedule_do",
        establishes=frozenset({"scheduled", "blocks_commuting_grouped"}),
        description="Depth-oriented layered scheduling (Section 4.2).",
    ))
    add(PassContract(
        "schedule_gco_stream",
        establishes=frozenset({"scheduled", "blocks_commuting_grouped"}),
        description="Streaming gate-count-oriented scheduling: compact-key "
                    "sort plus incremental emission, O(window) realized "
                    "profiles (core/streaming.py).",
    ))
    add(PassContract(
        "schedule_do_stream",
        establishes=frozenset({"scheduled", "blocks_commuting_grouped"}),
        description="Streaming depth-oriented scheduling: bounded frontier "
                    "window over the Algorithm 1 layering, O(window) "
                    "realized profiles (core/streaming.py).",
    ))
    add(PassContract(
        "schedule_none",
        establishes=frozenset({"scheduled"}),
        description="Program order passthrough (ablation baseline); layers "
                    "are singletons, so no commuting-group guarantee.",
    ))

    # -- synthesis passes (Schedule -> QuantumCircuit) ----------------------
    # Synthesis creates the circuit, so circuit-level properties from any
    # earlier life are meaningless afterwards: preserve only IR facts.
    ir_only = preserves_all_except(
        "synthesized", "terms_recorded", "routed", "coupling_respected",
        "no_dead_gates", "canonical_angles",
    )
    add(PassContract(
        "ft_synthesize",
        requires=frozenset({"scheduled"}),
        establishes=frozenset({"synthesized", "terms_recorded"}),
        preserves=ir_only,
        description="Adaptive FT synthesis (Algorithm 2): all-to-all target, "
                    "junction-aligned chains.",
    ))
    add(PassContract(
        "ft_synthesize_residue",
        requires=frozenset({"scheduled"}),
        establishes=frozenset({"synthesized", "terms_recorded"}),
        preserves=ir_only,
        description="ft_synthesize without the inverse pairs the cancel "
                    "rule would remove anyway (shared X/Y basis changes and "
                    "common chain-prefix CNOTs at junctions, shared X/Y "
                    "basis changes of terms that meet on a wire across "
                    "terms that leave it alone); reports the slots where "
                    "a rule can fire as the next peephole step's worklist, "
                    "with the raw emission as that step's fallback.",
    ))
    add(PassContract(
        "sc_synthesize",
        requires=frozenset({"scheduled"}),
        establishes=frozenset({
            "synthesized", "terms_recorded", "routed", "coupling_respected",
        }),
        preserves=ir_only,
        description="Coupling-constrained tree-embedded SC synthesis "
                    "(Section 5.2); emits only coupled-edge CNOTs.",
    ))
    add(PassContract(
        "sc_synthesize_noise",
        requires=frozenset({"scheduled"}),
        establishes=frozenset({
            "synthesized", "terms_recorded", "routed", "coupling_respected",
        }),
        preserves=ir_only,
        description="SC synthesis with calibration-weighted path selection: "
                    "qubit movement follows lowest swap-failure paths "
                    "(3 * -log(1-e) edge cost) instead of hop counts; same "
                    "guarantees as sc_synthesize.",
    ))

    # -- gate-level peephole rules -----------------------------------------
    # The shipped rules are local: they delete or fuse gates in place and
    # never move a gate to a new wire pair, so routing survives them.
    add(PassContract(
        "peephole_cancel",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"no_dead_gates"}),
        description="Remove adjacent inverse pairs (coupling-safe: deletes only).",
    ))
    add(PassContract(
        "peephole_merge",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"canonical_angles"}),
        description="Fuse equal-axis rotation runs mod 2*pi; single-qubit only.",
    ))
    add(PassContract(
        "peephole_commute",
        requires=frozenset({"synthesized"}),
        preserves=preserves_all_except("canonical_angles"),
        description="Cancel CNOT pairs through commuting interiors; the "
                    "closing cancellation can expose new mergeable runs.",
    ))
    add(PassContract(
        "peephole_fuse",
        requires=frozenset({"synthesized"}),
        preserves=preserves_all_except("no_dead_gates"),
        description="Absorb a CNOT into an adjacent same-pair SWAP; the "
                    "replacement can form a fresh adjacent inverse pair.",
    ))
    add(PassContract(
        "peephole",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"no_dead_gates", "canonical_angles"}),
        description="All rules to a joint fixpoint (transpile.optimize).",
    ))
    # A rule class the repository intentionally does NOT ship after
    # routing: anything that re-synthesizes or reorders two-qubit gates
    # across wire pairs (template matching, KAK resynthesis, mirror-gate
    # commutation).  Its contract exists so pipelines that try to run one
    # post-routing are rejected statically -- see the miscomposition tests.
    add(PassContract(
        "peephole_reorder2q",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"no_dead_gates"}),
        preserves=preserves_all_except("routed", "coupling_respected"),
        description="Cross-wire two-qubit resynthesis: may emit gates on "
                    "uncoupled pairs, so it invalidates routing.",
    ))

    # -- routing and validation --------------------------------------------
    add(PassContract(
        "route_sabre",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"routed", "coupling_respected"}),
        preserves=preserves_all_except("no_dead_gates", "canonical_angles"),
        description="SABRE-style routing; inserted SWAPs create new "
                    "cancellation opportunities.",
    ))
    add(PassContract(
        "route_sabre_noise",
        requires=frozenset({"synthesized"}),
        establishes=frozenset({"routed", "coupling_respected"}),
        preserves=preserves_all_except("no_dead_gates", "canonical_angles"),
        description="Reliability-weighted SABRE: swaps scored against the "
                    "all-pairs 3 * -log(1-e) cost matrix with a noise-seeded "
                    "dense layout; same structural guarantees as route_sabre "
                    "(falls back to it for uniform/absent calibrations).",
    ))
    add(PassContract(
        "validate_routed",
        requires=frozenset({"routed", "coupling_respected"}),
        description="Pure check: every 2q gate on a coupled edge.",
    ))

    # -- slot defaults for unregistered callables --------------------------
    # Custom passes plugged into a pass sequence without a declared contract
    # are trusted to do their slot's job but nothing more: an opaque
    # circuit pass is assumed to destroy routing, peephole fixpoints and
    # angle canonicalization, which is exactly what makes an undeclared
    # post-routing pass before validate_routed a static error.
    add(PassContract(
        "schedule_opaque",
        establishes=frozenset({"scheduled"}),
        description="Unregistered schedule pass: trusted to schedule, "
                    "commuting-group guarantee not assumed.",
    ))
    add(PassContract(
        "synthesize_opaque",
        requires=frozenset({"scheduled"}),
        establishes=frozenset({"synthesized"}),
        preserves=ir_only,
        description="Unregistered synthesis pass: trusted to emit a circuit, "
                    "routing and term recording not assumed.",
    ))
    add(PassContract(
        "circuit_opaque",
        requires=frozenset({"synthesized"}),
        preserves=preserves_all_except(
            "routed", "coupling_respected", "no_dead_gates", "canonical_angles",
        ),
        description="Unregistered circuit pass: assumed to rewrite gates "
                    "arbitrarily, so only IR/synthesis facts survive.",
    ))
    return table


CONTRACTS: Dict[str, PassContract] = _contract_table()

#: Attribute stamped on pass callables by :func:`register_callable`.
#: (An id()-keyed registry would be unsound: ids are reused after GC,
#: and the pipeline factories build fresh closures per call.)
_CONTRACT_ATTR = "__pass_contract__"


def register_callable(fn: Callable, contract_name: str) -> Callable:
    """Bind a pass callable to a contract name for :func:`contract_for`;
    returns the callable so it can wrap a definition."""
    if contract_name not in CONTRACTS:
        raise ValueError(f"unknown contract {contract_name!r}")
    setattr(fn, _CONTRACT_ATTR, contract_name)
    return fn


def contract_for(obj, default: str = "circuit_opaque") -> PassContract:
    """Resolve a pass (by contract name or registered callable) to its
    contract, falling back to the named slot default."""
    if isinstance(obj, str):
        contract = CONTRACTS.get(obj)
        if contract is not None:
            return contract
    else:
        name = getattr(obj, _CONTRACT_ATTR, None)
        if name is not None and name in CONTRACTS:
            return CONTRACTS[name]
    return CONTRACTS[default]


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

class PipelineChecker:
    """Forward property-flow analysis over a pass sequence.

    ``check`` walks the sequence applying each contract's transfer
    function and raises :class:`PipelineContractError` at the first pass
    whose ``requires`` set is not satisfied, or — after the walk — when
    the pipeline's declared ``goal`` is not met.  The diagnostic names
    the property, the pass that needed it, and the pass that dropped it
    (or states it was never established), which is the actionable part:
    the fix is always "move/remove the dropper" or "insert an
    establisher".
    """

    def __init__(self, contracts: Optional[Dict[str, PassContract]] = None):
        self._contracts = contracts if contracts is not None else CONTRACTS

    def resolve(self, sequence: Sequence) -> List[PassContract]:
        resolved: List[PassContract] = []
        for entry in sequence:
            if isinstance(entry, PassContract):
                resolved.append(entry)
            elif isinstance(entry, str) and entry in self._contracts:
                resolved.append(self._contracts[entry])
            else:
                resolved.append(contract_for(entry))
        return resolved

    def check(
        self,
        sequence: Sequence,
        initial: Iterable[str] = (),
        goal: Iterable[str] = (),
        name: str = "pipeline",
    ) -> FrozenSet[str]:
        """Validate a pass sequence; returns the final property set.

        ``sequence`` entries may be contract names, :class:`PassContract`
        objects, or callables previously passed to
        :func:`register_callable`.
        """
        contracts = self.resolve(sequence)
        properties = frozenset(initial)
        unknown = properties - VOCABULARY
        if unknown:
            raise ValueError(f"unknown initial properties {sorted(unknown)!r}")
        # Last pass to drop each property; None means never established.
        dropped_by: Dict[str, Optional[str]] = {}
        for position, contract in enumerate(contracts):
            missing = contract.requires - properties
            if missing:
                unmet = min(missing)  # deterministic pick for the message
                raise PipelineContractError(
                    name, unmet, contract.name, position,
                    dropped_by.get(unmet),
                    self._explain(name, unmet, contract.name, position,
                                  dropped_by.get(unmet)),
                )
            after = contract.apply(properties)
            for prop in properties - after:
                dropped_by[prop] = contract.name
            properties = after
        missing_goal = frozenset(goal) - properties
        if missing_goal:
            unmet = min(missing_goal)
            raise PipelineContractError(
                name, unmet, None, None, dropped_by.get(unmet),
                self._explain(name, unmet, None, None, dropped_by.get(unmet)),
            )
        return properties

    @staticmethod
    def _explain(
        pipeline: str,
        unmet: str,
        pass_name: Optional[str],
        position: Optional[int],
        dropper: Optional[str],
    ) -> str:
        if pass_name is not None:
            head = (
                f"pipeline {pipeline!r} is miscomposed: pass #{position} "
                f"({pass_name!r}) requires property {unmet!r}"
            )
        else:
            head = (
                f"pipeline {pipeline!r} is miscomposed: its goal requires "
                f"property {unmet!r}"
            )
        if dropper is not None:
            cause = (
                f", which pass {dropper!r} dropped; run {dropper!r} earlier "
                f"or re-establish {unmet!r} after it"
            )
        else:
            cause = (
                f", which no earlier pass establishes; insert a pass that "
                f"establishes {unmet!r} first"
            )
        return head + cause


# ---------------------------------------------------------------------------
# Peephole levels
# ---------------------------------------------------------------------------

def rules_for_level(level: int) -> List[str]:
    """The peephole rule subset every pipeline runs at ``level``; each
    level's rules are a superset of the level below."""
    if level <= 0:
        return []
    rules = ["peephole_cancel", "peephole_merge"]
    if level >= 2:
        rules.append("peephole_commute")
    if level >= 3:
        rules.append("peephole_fuse")
    return rules

