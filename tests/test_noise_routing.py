"""Noise-aware routing equivalence suite and calibration-aware cache tests.

The Issue 8 contract, in test form:

* no noise model (or a uniform one, which carries no routing signal) —
  the routed circuit is **gate-identical** to the seed reference router;
* melbourne/falcon calibrated models — ``validate_routed`` passes and the
  ESP of the noise-aware route is >= the distance-only route on the
  UCCSD-8 / QAOA corpus;
* identical programs compiled for differently-calibrated same-topology
  devices get distinct fingerprints and distinct cache entries.
"""

import math

import pytest

from repro.core import compile_program
from repro.service import CompileCache
from repro.core.ft_backend import ft_compile
from repro.noise.model import NoiseModel, esp
from repro.service.fingerprint import canonical_options, compile_fingerprint
from repro.transpile import (
    CouplingMap,
    Layout,
    get_device,
    heavy_hex,
    linear,
    melbourne,
    reliability_cost_matrix,
    route,
    validate_routed,
)
from oracles.transpile import seed_route
from repro.workloads import maxcut_program, regular_graph, uccsd_program


def gates(circuit):
    tape = circuit.tape
    return [
        (tape.op[s], tape.q0[s], tape.q1[s], tape.param[s])
        for s in tape.iter_slots()
    ]


@pytest.fixture(scope="module")
def corpus():
    """Logical (unrouted) circuits for the UCCSD-8 / QAOA corpus."""
    return {
        "uccsd-8": ft_compile(uccsd_program(8), scheduler="gco").circuit,
        "qaoa-12-4": ft_compile(
            maxcut_program(regular_graph(12, 4, seed=3)), scheduler="gco"
        ).circuit,
    }


DEVICES = ("melbourne-15", "falcon-27")


class TestReferenceEquivalence:
    @pytest.mark.parametrize("dev_name", DEVICES)
    def test_no_noise_is_gate_identical_to_seed(self, corpus, dev_name):
        dev = get_device(dev_name)
        for circ in corpus.values():
            ref_circ, _, _, _ = seed_route(circ, dev.coupling)
            assert gates(route(circ, dev.coupling).circuit) == gates(ref_circ)

    @pytest.mark.parametrize("dev_name", DEVICES)
    def test_uniform_model_is_gate_identical_to_seed(self, corpus, dev_name):
        dev = get_device(dev_name)
        uniform = {e: 0.02 for e in dev.coupling.edges}
        for circ in corpus.values():
            ref_circ, _, _, _ = seed_route(circ, dev.coupling)
            routed = route(circ, dev.coupling, edge_error=uniform)
            assert gates(routed.circuit) == gates(ref_circ)

    def test_empty_edge_error_is_gate_identical_to_seed(self, corpus):
        dev = get_device("melbourne-15")
        circ = corpus["qaoa-12-4"]
        ref_circ, _, _, _ = seed_route(circ, dev.coupling)
        assert gates(route(circ, dev.coupling, edge_error={}).circuit) == gates(ref_circ)


class TestNoiseAwareRouting:
    @pytest.mark.parametrize("dev_name", DEVICES)
    def test_calibrated_route_validates_and_never_loses_esp(self, corpus, dev_name):
        dev = get_device(dev_name)
        for name, circ in corpus.items():
            base = route(circ, dev.coupling)
            noisy = route(circ, dev.coupling, edge_error=dev.edge_error())
            validate_routed(noisy.circuit, dev.coupling)
            e_base = esp(base.circuit, dev.noise_model, strict=True)
            e_noisy = esp(noisy.circuit, dev.noise_model, strict=True)
            assert e_noisy >= e_base, (dev_name, name)

    def test_calibrated_route_strictly_improves_somewhere(self, corpus):
        improved = 0
        for dev_name in DEVICES:
            dev = get_device(dev_name)
            for circ in corpus.values():
                base = route(circ, dev.coupling)
                noisy = route(circ, dev.coupling, edge_error=dev.edge_error())
                if esp(noisy.circuit, dev.noise_model, strict=True) > esp(
                    base.circuit, dev.noise_model, strict=True
                ):
                    improved += 1
        assert improved > 0

    def test_portfolio_is_deterministic(self, corpus):
        dev = get_device("falcon-27")
        circ = corpus["qaoa-12-4"]
        first = route(circ, dev.coupling, edge_error=dev.edge_error())
        second = route(circ, dev.coupling, edge_error=dev.edge_error())
        assert gates(first.circuit) == gates(second.circuit)
        assert first.swap_count == second.swap_count

    def test_explicit_layout_is_honored(self, corpus):
        dev = get_device("melbourne-15")
        circ = corpus["qaoa-12-4"]
        layout = Layout({q: q for q in range(circ.num_qubits)})
        routed = route(circ, dev.coupling, initial_layout=layout,
                       edge_error=dev.edge_error())
        assert routed.initial_layout == layout
        validate_routed(routed.circuit, dev.coupling)

    def test_disconnected_map_raises(self):
        cmap = heavy_hex(rows=2, row_len=4, trim=1)
        circ = ft_compile(uccsd_program(4), scheduler="gco").circuit
        with pytest.raises(ValueError, match="disconnected"):
            route(circ, cmap)


class TestReliabilityCostMatrix:
    def test_none_for_absent_or_uniform(self):
        cmap = linear(4)
        assert reliability_cost_matrix(cmap, None) is None
        assert reliability_cost_matrix(cmap, {}) is None
        uniform = {e: 0.01 for e in cmap.edges}
        assert reliability_cost_matrix(cmap, uniform) is None

    def test_swap_cost_form_and_symmetry(self):
        cmap = linear(3)
        ee = {(0, 1): 0.01, (1, 2): 0.05}
        cost = reliability_cost_matrix(cmap, ee)
        assert cost[0][1] == pytest.approx(3.0 * -math.log(0.99))
        assert cost[1][2] == pytest.approx(3.0 * -math.log(0.95))
        assert cost[0][2] == pytest.approx(cost[0][1] + cost[1][2])
        for a in range(3):
            for b in range(3):
                assert cost[a][b] == pytest.approx(cost[b][a])

    def test_prefers_reliable_detour(self):
        # Square 0-1-2-3-0 where the direct edge (0, 1) is terrible: the
        # Dijkstra cost of 0->1 should be the three-edge detour.
        cmap = CouplingMap([(0, 1), (1, 2), (2, 3), (3, 0)], num_qubits=4)
        ee = {(0, 1): 0.5, (1, 2): 0.001, (2, 3): 0.001, (0, 3): 0.001}
        cost = reliability_cost_matrix(cmap, ee)
        detour = 3 * 3.0 * -math.log(1 - 0.001)
        assert cost[0][1] == pytest.approx(detour)

    def test_out_of_range_rate_raises(self):
        cmap = linear(3)
        with pytest.raises(ValueError, match="outside"):
            reliability_cost_matrix(cmap, {(0, 1): 1.5, (1, 2): 0.01})


class TestGateErrorModes:
    @pytest.fixture
    def model(self):
        return NoiseModel.uniform(linear(3), single_qubit=1e-3, two_qubit=2e-2)

    def test_strict_raises_symmetrically(self, model):
        # Historically unknown 1q indices silently scored 0.0 while unknown
        # edges raised; both arities now behave the same way.
        with pytest.raises(ValueError, match="qubit 7"):
            model.gate_error("h", (7,))
        with pytest.raises(ValueError, match=r"\(0, 2\)"):
            model.gate_error("cx", (0, 2))

    def test_lenient_is_error_free_symmetrically(self, model):
        assert model.gate_error("h", (7,), strict=False) == 0.0
        assert model.gate_error("cx", (0, 2), strict=False) == 0.0

    def test_esp_strict_raises_on_uncalibrated_edge(self, model):
        from repro.circuit import QuantumCircuit

        qc = QuantumCircuit(3)
        qc.cx(0, 2)  # not a coupled edge of linear(3)
        with pytest.raises(ValueError):
            esp(qc, model, strict=True)
        assert esp(qc, model, strict=False) == 1.0

    def test_esp_readout_lenient_in_both_modes(self, model):
        from repro.circuit import QuantumCircuit

        qc = QuantumCircuit(3)
        # Qubit 9 has no readout calibration; both modes skip it.
        assert esp(qc, model, measured_qubits=[9], strict=True) == 1.0
        assert esp(qc, model, measured_qubits=[9], strict=False) == 1.0

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="outside"):
            NoiseModel({0: 1.5}, {}, {})
        with pytest.raises(ValueError, match="outside"):
            NoiseModel({}, {(0, 1): -0.1}, {})


def _device_pair():
    """Two same-topology devices with different calibrations."""
    a = get_device("melbourne-15")
    from repro.transpile import DeviceSpec

    recal = DeviceSpec(
        "melbourne-15",
        melbourne(),
        NoiseModel.calibrated(melbourne(), seed=9999),
    )
    return a, recal


class TestCacheDiscrimination:
    def test_distinct_fingerprints_for_different_calibrations(self):
        a, b = _device_pair()
        program = uccsd_program(4)
        fps = [
            compile_fingerprint(
                program,
                canonical_options(
                    backend="sc", scheduler="do", coupling=dev.coupling,
                    edge_error=dev.edge_error(),
                    noise_model=dev.noise_model, device=dev.name,
                ),
            )
            for dev in (a, b)
        ]
        assert fps[0] != fps[1]

    def test_distinct_cache_entries_for_different_calibrations(self, tmp_path):
        a, b = _device_pair()
        program = uccsd_program(4)
        cache = CompileCache(tmp_path)
        first = compile_program(program, backend="sc", device=a, cache=cache)
        second = compile_program(program, backend="sc", device=b, cache=cache)
        assert first.fingerprint != second.fingerprint
        assert not first.from_cache
        assert not second.from_cache
        # Same device again is a hit.
        again = compile_program(program, backend="sc", device=a, cache=cache)
        assert again.from_cache
        assert again.fingerprint == first.fingerprint

    def test_sub_quantum_recalibration_shares_fingerprint(self):
        # Rates moving by less than the 1e-6 quantum must not thrash the
        # cache; a real recalibration (>= 1e-6) must miss.
        base = get_device("melbourne-15").noise_model
        tiny = NoiseModel(
            {q: r + 1e-9 for q, r in base.single_qubit_error.items()},
            base.two_qubit_error,
            base.readout_error,
        )
        real = NoiseModel(
            {q: r + 1e-4 for q, r in base.single_qubit_error.items()},
            base.two_qubit_error,
            base.readout_error,
        )
        opts = lambda m: canonical_options(
            backend="sc", scheduler="do", noise_model=m
        )
        assert opts(base) == opts(tiny)
        assert opts(base) != opts(real)


class TestBatchDeviceSpecs:
    def test_device_and_coupling_keys_are_exclusive(self):
        from repro.service.batch import resolve_spec

        with pytest.raises(ValueError, match="'device' or 'coupling'"):
            resolve_spec(
                {"benchmark": "UCCSD-8", "backend": "sc",
                 "device": "melbourne-15", "coupling": "manhattan_65"}
            )

    def test_registry_name_and_snapshot_fingerprint_identically(self):
        from repro.service.batch import resolve_spec

        dev = get_device("melbourne-15")
        by_name = resolve_spec(
            {"benchmark": "UCCSD-8", "backend": "sc", "device": "melbourne-15"}
        )
        by_snapshot = resolve_spec(
            {"benchmark": "UCCSD-8", "backend": "sc",
             "device": dev.to_snapshot()}
        )
        assert by_name.fingerprint() == by_snapshot.fingerprint()

    def test_device_spec_compiles_routed(self):
        from repro.service.batch import compile_batch

        dev = get_device("melbourne-15")
        batch = compile_batch(
            [{"benchmark": "UCCSD-8", "backend": "sc", "device": "melbourne-15"}]
        )
        result = batch.entries[0].result()
        assert result.device == "melbourne-15"
        validate_routed(result.circuit, dev.coupling)


class TestDeviceCompile:
    def test_sc_compile_with_device(self):
        dev = get_device("melbourne-15")
        result = compile_program(uccsd_program(4), backend="sc", device="melbourne-15")
        assert result.device == "melbourne-15"
        validate_routed(result.circuit, dev.coupling)
        assert 0.0 < result.esp(dev.noise_model) < 1.0

    def test_ft_compile_with_device_scores_lenient(self):
        dev = get_device("ion-trap-8")
        result = compile_program(uccsd_program(8), backend="ft", device=dev)
        assert result.device == "ion-trap-8"
        # FT circuits act on virtual all-to-all edges; lenient is default.
        assert 0.0 < result.esp(dev.noise_model) <= 1.0

    def test_device_and_coupling_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            compile_program(
                uccsd_program(4), backend="sc",
                device="melbourne-15", coupling=melbourne(),
            )
