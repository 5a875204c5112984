"""Static analysis: pass contracts, IR invariants, and pipeline checking.

The eighth architectural layer.  Everything here runs *before* (or
instead of) a compile: the contract checker proves a pass pipeline is
well-composed without emitting a gate, and the invariant analyzer
machine-checks the structural properties the passes silently rely on.
The dynamic counterpart — the Pauli-propagation verifier in
:mod:`repro.verify` — catches miscompilations after the fact; this layer
catches miscompositions before any of that work is spent.

* :mod:`repro.static.contracts` — the ``requires`` / ``preserves`` /
  ``establishes`` property vocabulary, per-pass :class:`PassContract`
  declarations for every built-in pass, and the :class:`PipelineChecker`
  that validates pass-order composition (the pass driver in
  :mod:`repro.core.passes` checks every sequence before running it).
* :mod:`repro.static.invariants` — cheap structural checkers for
  :class:`~repro.circuit.tape.GateTape` and Pauli IR programs, runnable
  between passes under ``REPRO_CHECK_INVARIANTS=1`` and as the
  ``repro check`` CLI subcommand.

The repository linter (``tools/lint_repro.py``) is the third leg: an
AST-based tool enforcing repo-specific discipline (no blocking calls in
the gateway's event loop, no gate-tape column mutation outside
``circuit/tape.py``, CacheStats lock discipline, no float equality on
angles).  It is a standalone stdlib-only script so CI can run it without
installing the compiler's dependencies.
"""

from .contracts import (
    ALL,
    CONTRACTS,
    PassContract,
    PipelineChecker,
    PipelineContractError,
    VOCABULARY,
    contract_for,
    preserves_all_except,
    rules_for_level,
)
from .invariants import (
    InvariantIssue,
    InvariantReport,
    InvariantViolation,
    check_program,
    check_result,
    check_tape,
    debug_check,
    debug_invariants_enabled,
)

__all__ = [
    "ALL",
    "CONTRACTS",
    "VOCABULARY",
    "PassContract",
    "PipelineChecker",
    "PipelineContractError",
    "contract_for",
    "preserves_all_except",
    "rules_for_level",
    "InvariantIssue",
    "InvariantReport",
    "InvariantViolation",
    "check_program",
    "check_result",
    "check_tape",
    "debug_check",
    "debug_invariants_enabled",
]
