"""CLI exit codes and malformed-input paths.

Contract: 0 = success, 1 = the work ran but something failed
(verification mismatch, failed job), 2 = the invocation itself was bad
(unreadable specs, unknown benchmark, busy port, no server).  These are
what CI scripts and the nightly soak wrapper branch on, so they get
pinned here; all tests drive ``repro.cli.main`` in-process for speed.
"""

import json
import socket

import pytest

from repro.cli import main
from repro.service import (
    CompileCache,
    canonical_options,
    compile_fingerprint,
)
from repro.ir import parse_program

GOOD_SPEC = {"text": "{(XXI, 1.0), (YYI, 0.5), 0.3};", "label": "a"}


def write_specs(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write((row if isinstance(row, str) else json.dumps(row)) + "\n")
    return str(path)


class TestCompileBatchErrors:
    def test_truncated_jsonl_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [
            GOOD_SPEC,
            '{"text": "{(XX, 1.0), 0.5};", "lab',   # truncated mid-object
        ])
        assert main(["compile-batch", specs]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["compile-batch", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_empty_file_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "empty.jsonl", ["# only a comment"])
        assert main(["compile-batch", specs]) == 2
        assert "no job specs" in capsys.readouterr().err

    def test_unresolvable_spec_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "bad.jsonl", [{"label": "keyless"}])
        assert main(["compile-batch", specs]) == 2
        assert "bad job spec" in capsys.readouterr().err

    def test_good_batch_exits_0(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "ok.jsonl", [GOOD_SPEC])
        out = str(tmp_path / "artifacts.jsonl")
        assert main(["compile-batch", specs, "--out", out]) == 0
        assert len(open(out).readlines()) == 1


class TestVerifyErrors:
    def test_missing_cache_entry_exits_1_without_allow_missing(
            self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        empty = str(tmp_path / "cache")
        assert main(["verify", specs, "--cache", empty]) == 1
        assert "missing" in capsys.readouterr().err
        assert main(["verify", specs, "--cache", empty, "--allow-missing"]) == 0

    def test_corrupt_artifact_exits_1(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        cache = CompileCache(tmp_path / "cache")
        fingerprint = compile_fingerprint(
            parse_program(GOOD_SPEC["text"]), canonical_options("ft", "gco"))
        cache.put(fingerprint, '{"version": 1, "kind": "garbage"')
        assert main(["verify", specs, "--cache", str(tmp_path / "cache")]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_verified_artifact_exits_0(self, tmp_path):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        cache_dir = str(tmp_path / "cache")
        assert main(["compile-batch", specs, "--cache", cache_dir]) == 0
        assert main(["verify", specs, "--cache", cache_dir]) == 0

    def test_unresolvable_spec_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "bad.jsonl", [{"label": "keyless"}])
        assert main(["verify", specs, "--cache", str(tmp_path / "c")]) == 2
        assert "bad job spec on line 0" in capsys.readouterr().err


class TestCheckErrors:
    """Exit-code pins for the static-analysis subcommand: 0 = every
    checked invariant holds, 1 = a named invariant is broken, 2 = the
    invocation itself was bad."""

    def test_pipeline_contract_mode_exits_0(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "well-composed" in out
        assert "sc-do-opt3" in out
        assert "sc-none-opt0" in out

    def test_pipeline_contract_mode_exits_1_on_miscomposition(
            self, monkeypatch, capsys):
        from repro.static import CONTRACTS, PassContract, preserves_all_except

        monkeypatch.setitem(CONTRACTS, "peephole_cancel", PassContract(
            "peephole_cancel", requires=frozenset({"synthesized"}),
            preserves=preserves_all_except("routed", "coupling_respected")))
        assert main(["check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_clean_artifact_exits_0_and_reports_ok(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        cache_dir = str(tmp_path / "cache")
        assert main(["compile-batch", specs, "--cache", cache_dir]) == 0
        capsys.readouterr()
        assert main(["check", specs, "--cache", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_corrupt_artifact_exits_1_naming_the_invariant(
            self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        cache = CompileCache(tmp_path / "cache")
        fingerprint = compile_fingerprint(
            parse_program(GOOD_SPEC["text"]), canonical_options("ft", "gco"))
        cache.put(fingerprint, '{"version": 1, "kind": "garbage"')
        assert main(["check", specs, "--cache", str(tmp_path / "cache")]) == 1
        out = capsys.readouterr().out
        assert "artifact.decode" in out
        assert "FAIL" in out

    def test_broken_invariant_in_stored_artifact_is_named(
            self, tmp_path, capsys):
        # A well-formed artifact whose tape violates a structural
        # invariant the decoder does not police: round-trip a real
        # compile, then collapse one CNOT onto identical operands.
        from repro.core import compile_program
        from repro.service import dumps_artifact

        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        result = compile_program(parse_program(GOOD_SPEC["text"]))
        tape = result.circuit.tape
        slot = next(s for s in range(len(tape.op)) if tape.q1[s] >= 0)
        tape.q1[slot] = tape.q0[slot]
        cache = CompileCache(tmp_path / "cache")
        fingerprint = compile_fingerprint(
            parse_program(GOOD_SPEC["text"]), canonical_options("ft", "gco"))
        cache.put(fingerprint, dumps_artifact(result))
        assert main(["check", specs, "--cache", str(tmp_path / "cache")]) == 1
        out = capsys.readouterr().out
        assert "tape.operand-arity" in out

    def test_missing_artifact_exits_1_without_allow_missing(
            self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        empty = str(tmp_path / "cache")
        assert main(["check", specs, "--cache", empty]) == 1
        assert "missing" in capsys.readouterr().err
        assert main(["check", specs, "--cache", empty,
                     "--allow-missing"]) == 0

    def test_specs_without_cache_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        assert main(["check", specs]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_unresolvable_spec_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "bad.jsonl", [{"label": "keyless"}])
        assert main(["check", specs, "--cache", str(tmp_path / "c")]) == 2
        assert "bad job spec" in capsys.readouterr().err


class TestCompileErrors:
    def test_unknown_benchmark_exits_2(self, capsys):
        assert main(["compile", "No-Such-Benchmark"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestServeErrors:
    def test_busy_tcp_port_exits_2(self, capsys):
        squatter = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            squatter.bind(("127.0.0.1", 0))
            squatter.listen(1)
            port = squatter.getsockname()[1]
            assert main(["serve", "--port", str(port), "--workers", "0"]) == 2
            assert "cannot bind gateway" in capsys.readouterr().err
        finally:
            squatter.close()

    def test_busy_unix_socket_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "gw.sock")
        squatter = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            squatter.bind(path)
            squatter.listen(1)
            assert main(["serve", "--socket", path, "--workers", "0"]) == 2
            assert "cannot bind gateway" in capsys.readouterr().err
        finally:
            squatter.close()

    @pytest.mark.parametrize("occupant", ["file", "listener"])
    def test_unbindable_router_path_launches_no_node(
            self, tmp_path, capsys, occupant):
        """serve-cluster checks its router path before it starts the
        node fleet: a path that is busy or not a socket exits 2 and no
        node is ever launched (the supervisor's logs/ never appears)."""
        state = tmp_path / "state"
        path = str(tmp_path / "router.sock")
        squatter = None
        if occupant == "file":
            with open(path, "w") as handle:
                handle.write("not a socket")
        else:
            squatter = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            squatter.bind(path)
            squatter.listen(1)
        try:
            assert main(["serve-cluster", str(state), "--socket", path,
                         "--nodes", "1", "--workers", "0"]) == 2
            assert "cannot bind cluster router" in capsys.readouterr().err
            assert not (state / "logs").exists()
        finally:
            if squatter is not None:
                squatter.close()

    def test_stale_unix_socket_is_reclaimed(self, tmp_path):
        """A dead gateway's leftover socket file must not wedge restarts:
        prepare_unix_path unlinks it when nothing is listening."""
        from repro.service import prepare_unix_path

        path = tmp_path / "stale.sock"
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(str(path))
        dead.close()               # socket file left behind, no listener
        assert path.exists()
        prepare_unix_path(str(path))
        assert not path.exists()


class TestClientErrors:
    def test_no_server_exits_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", [GOOD_SPEC])
        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["client", specs, "--port", str(port)]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_no_specs_and_no_stats_exits_2(self, capsys):
        assert main(["client"]) == 2
        assert "SPECS.jsonl" in capsys.readouterr().err

    def test_truncated_specs_exit_2(self, tmp_path, capsys):
        specs = write_specs(tmp_path / "specs.jsonl", ['{"text": "{(X'])
        assert main(["client", specs, "--port", "1"]) == 2
        assert "cannot read spec file" in capsys.readouterr().err
