"""Streaming scheduler equivalence and memory-bound tests.

The streaming schedulers (``core/streaming.py``) are pinned against the
materialized references layer for layer: with the default window they must
reproduce ``gco_schedule`` / ``do_schedule`` exactly, and with a tiny
window they must still emit every term exactly once, into DO layers that
keep ``do_schedule``'s padding rule.  The closed-form Hubbard generator
is pinned against the operator expansion, and a tracemalloc ceiling
checks the frontier actually bounds scheduling memory.
"""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import do_schedule, gco_schedule, schedule_to_program
from repro.core.streaming import (
    DEFAULT_WINDOW,
    is_streaming_scheduler,
    scan_blocks,
    stream_schedule,
)
from repro.ir import PauliBlock, PauliProgram
from repro.workloads import (
    hubbard_hamiltonian,
    iter_hubbard_terms,
    scale_hubbard_program,
    scale_random_program,
)


def prog(*block_specs, parameter=1.0):
    blocks = [
        PauliBlock(labels if isinstance(labels, list) else [labels], parameter=parameter)
        for labels in block_specs
    ]
    return PauliProgram(blocks)


def signature(schedule):
    return [
        [tuple(ws.string.label for ws in block) for block in layer]
        for layer in schedule
    ]


_labels = st.text(alphabet="IXYZ", min_size=4, max_size=4).filter(
    lambda s: set(s) != {"I"}
)
_block_specs = st.lists(
    st.one_of(_labels, st.lists(_labels, min_size=2, max_size=3)),
    min_size=1,
    max_size=12,
)


# ----------------------------------------------------------------------
# Exact equivalence to the materialized schedulers (default window)
# ----------------------------------------------------------------------

@given(_block_specs)
@settings(max_examples=60, deadline=None)
def test_gco_stream_matches_materialized(specs):
    p = prog(*specs)
    assert signature(stream_schedule(p, "gco-stream")) == signature(gco_schedule(p))


@given(_block_specs)
@settings(max_examples=60, deadline=None)
def test_do_stream_matches_materialized(specs):
    p = prog(*specs)
    assert signature(stream_schedule(p, "do-stream")) == signature(do_schedule(p))


@pytest.mark.parametrize("scheduler,reference", [
    ("gco-stream", gco_schedule),
    ("do-stream", do_schedule),
])
def test_mid_scale_seeded_equivalence(scheduler, reference):
    """Layer-for-layer equality on seeded mid-scale programs: the paper's
    random k-local ensemble and a deep-Trotter Hubbard lattice."""
    for program in (
        scale_random_program(24, 400, seed=7),
        scale_hubbard_program(4, steps=3),
    ):
        assert signature(stream_schedule(program, scheduler)) == \
            signature(reference(program))


def test_generator_source_equals_program_source():
    """A one-shot block generator schedules identically to the program."""
    program = scale_random_program(16, 120, seed=11)
    for scheduler in ("gco-stream", "do-stream"):
        from_program = signature(stream_schedule(program, scheduler))
        from_generator = signature(
            stream_schedule((block for block in program), scheduler)
        )
        assert from_generator == from_program


# ----------------------------------------------------------------------
# Tiny windows: semantics survive even when the frontier truncates
# ----------------------------------------------------------------------

@given(_block_specs, st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_small_window_preserves_term_multiset(specs, window):
    p = prog(*specs, parameter=0.3)
    for scheduler in ("gco-stream", "do-stream"):
        layers = list(stream_schedule(p, scheduler, window=window))
        assert schedule_to_program(layers).multiset_of_terms() == \
            p.multiset_of_terms()


def assert_do_padding_rule(layers, program):
    """A DO layer is its first block, the primary, plus padding: each
    padding block shares no qubit with the primary, and the padding
    stacked on any one qubit stays within the primary's depth estimate.
    Padding blocks may share qubits with each other."""
    for layer in layers:
        primary, padding = layer[0], layer[1:]
        stacked = Counter()
        for block in padding:
            assert not set(block.active_qubits) & set(primary.active_qubits)
            for qubit in block.active_qubits:
                stacked[qubit] += block.depth_estimate()
        assert max(stacked.values(), default=0) <= primary.depth_estimate()

    def terms(blocks):
        return Counter(tuple(sorted(ws.string.label for ws in block))
                       for block in blocks)
    assert terms(block for layer in layers for block in layer) == \
        terms(program)


@given(_block_specs, st.integers(min_value=1, max_value=4))
@example(["IIIX", "IIIX", "IXXI"], 3)   # padding stacked on qubit 0
@settings(max_examples=40, deadline=None)
def test_small_window_do_layers_qubit_disjoint(specs, window):
    p = prog(*specs)
    assert_do_padding_rule(do_schedule(p), p)
    assert_do_padding_rule(
        list(stream_schedule(p, "do-stream", window=window)), p)


# ----------------------------------------------------------------------
# Scan keys and dispatch
# ----------------------------------------------------------------------

def test_scan_keys_order_like_lex_keys():
    program = scale_random_program(20, 150, seed=3)
    blocks, keys, lengths, num_qubits = scan_blocks(program, chunk_strings=16)
    assert num_qubits == 20
    assert len(blocks) == len(keys) == len(lengths) == 150
    by_key = sorted(range(len(blocks)), key=keys.__getitem__)
    by_lex = sorted(range(len(blocks)), key=lambda i: blocks[i].view.lex_key)
    assert [blocks[i] for i in by_key] == [blocks[i] for i in by_lex]
    for block, length in zip(blocks, lengths):
        assert int(length) == block.active_length


def test_is_streaming_scheduler():
    assert is_streaming_scheduler("gco-stream")
    assert is_streaming_scheduler("do-stream")
    assert not is_streaming_scheduler("gco")
    assert not is_streaming_scheduler("do")
    assert not is_streaming_scheduler(None)


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="unknown streaming scheduler"):
        list(stream_schedule(prog("XX"), "depth-stream"))


# ----------------------------------------------------------------------
# Closed-form Hubbard generator pin (promised in iter_hubbard_terms)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("num_sites", [2, 3, 4])
@pytest.mark.parametrize("periodic", [False, True])
def test_hubbard_generator_matches_operator_expansion(num_sites, periodic):
    expanded = {}
    for string, weight in hubbard_hamiltonian(
        num_sites, hopping=0.7, interaction=2.3, periodic=periodic
    ).real_weighted_strings():
        if not string.is_identity:
            expanded[string.label] = expanded.get(string.label, 0.0) + weight
    streamed = {}
    for string, weight in iter_hubbard_terms(
        num_sites, hopping=0.7, interaction=2.3, periodic=periodic
    ):
        streamed[string.label] = streamed.get(string.label, 0.0) + weight
    assert streamed.keys() == expanded.keys()
    for label, weight in expanded.items():
        assert streamed[label] == pytest.approx(weight, abs=1e-12)


# ----------------------------------------------------------------------
# Bounded memory: the frontier, not the program, sets the ceiling
# ----------------------------------------------------------------------

def test_do_stream_scheduling_memory_bounded():
    """A full ``do-stream`` drain of a mid-scale program must allocate far
    less than the materialized profile matrix would.

    8k blocks on 60 qubits materialized is 8k ``BlockView`` instances and
    an (8k, 3, 8) profile stack that is rescanned per layer; the streaming
    frontier realizes at most ``DEFAULT_WINDOW`` profile rows.  The 48 MB
    ceiling is ~6x the measured traced peak — tight enough to catch any
    return to whole-program materialization, loose enough for allocator
    noise.
    """
    program = scale_random_program(60, 8_000, seed=5)
    program.release_views()
    tracemalloc.start()
    blocks_seen = sum(
        len(layer) for layer in stream_schedule(program, "do-stream")
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert blocks_seen == 8_000
    assert DEFAULT_WINDOW < 8_000  # the frontier genuinely truncates here
    assert peak < 48 * 2**20, (
        f"do-stream traced peak {peak / 2**20:.1f} MB exceeds the 48 MB "
        f"scheduling ceiling"
    )
