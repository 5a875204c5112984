"""Generic transpilation substrate: coupling maps, layout, routing, peephole."""

from .coupling import (
    CouplingMap,
    falcon_27,
    full,
    ion_trap,
    sycamore_like,
    grid,
    heavy_hex,
    linear,
    manhattan_65,
    melbourne,
    ring,
)
from .layout import Layout, dense_initial_layout, trivial_layout
from .peephole import optimize, run_rules
from .pipeline import transpile
from .routing import (
    RoutingResult,
    reliability_cost_matrix,
    route,
    validate_routed,
)
from .devices import DeviceSpec, device_names, get_device, load_device

__all__ = [
    "CouplingMap",
    "DeviceSpec",
    "Layout",
    "RoutingResult",
    "dense_initial_layout",
    "device_names",
    "falcon_27",
    "full",
    "ion_trap",
    "sycamore_like",
    "grid",
    "heavy_hex",
    "linear",
    "manhattan_65",
    "melbourne",
    "get_device",
    "load_device",
    "optimize",
    "reliability_cost_matrix",
    "ring",
    "route",
    "run_rules",
    "transpile",
    "trivial_layout",
    "validate_routed",
]
