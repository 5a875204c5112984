"""Paulihedral core: synthesis, scheduling, and backend optimization passes."""

from .cancellation import CompilationCancelled, check_cancel
from .compiler import CompilationResult, compile_program, resolve_target
from .controlled import (
    controlled_pauli_evolution_circuit,
    controlled_pauli_rotation_gates,
    controlled_program_circuit,
    controlled_rz_gates,
)
from .ft_backend import (
    ft_compile,
    ft_synthesize,
    most_overlap_sort,
    plan_junctions,
)
from .passes import Pipeline, PipelineResult, run_pipeline, shipped_pipelines
from .sc_backend import EmbeddedTree, SCResult, SCSynthesizer, sc_compile
from .trotter import (
    symmetric_trotterize,
    trotter_error_bound,
    trotter_steps_for,
    trotterize,
)
from .scheduling import (
    Schedule,
    do_schedule,
    gco_schedule,
    schedule_depth_estimate,
    schedule_to_program,
)
from .streaming import (
    DEFAULT_WINDOW,
    stream_schedule,
    streaming_do_schedule,
    streaming_gco_schedule,
)
from .synthesis import (
    SynthesisPlan,
    aligned_chain_plan,
    chain_plan,
    naive_program_circuit,
    pauli_evolution_circuit,
    pauli_rotation_gates,
)

__all__ = [
    "CompilationCancelled",
    "CompilationResult",
    "EmbeddedTree",
    "Pipeline",
    "PipelineResult",
    "SCResult",
    "SCSynthesizer",
    "Schedule",
    "SynthesisPlan",
    "aligned_chain_plan",
    "chain_plan",
    "check_cancel",
    "compile_program",
    "resolve_target",
    "controlled_pauli_evolution_circuit",
    "controlled_pauli_rotation_gates",
    "controlled_program_circuit",
    "controlled_rz_gates",
    "DEFAULT_WINDOW",
    "do_schedule",
    "ft_compile",
    "ft_synthesize",
    "gco_schedule",
    "most_overlap_sort",
    "naive_program_circuit",
    "pauli_evolution_circuit",
    "pauli_rotation_gates",
    "plan_junctions",
    "run_pipeline",
    "schedule_depth_estimate",
    "schedule_to_program",
    "shipped_pipelines",
    "stream_schedule",
    "streaming_do_schedule",
    "streaming_gco_schedule",
    "symmetric_trotterize",
    "trotter_error_bound",
    "trotter_steps_for",
    "trotterize",
]
