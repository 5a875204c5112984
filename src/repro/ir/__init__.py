"""Pauli IR: block-structured intermediate representation (paper Section 3)."""

from .blocks import BlockView, PauliBlock, WeightedString
from .parser import format_program, parse_program
from .program import PauliProgram

__all__ = [
    "BlockView",
    "PauliBlock",
    "PauliProgram",
    "WeightedString",
    "format_program",
    "parse_program",
]
