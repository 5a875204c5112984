"""Tests for the repo-specific AST linter (tools/lint_repro.py).

Each rule family gets positive fixtures (the violation fires), negative
fixtures (idiomatic code stays clean), and a pragma fixture (in-place
suppression works).  The final test is the one CI relies on: the actual
source tree under ``src/repro`` must lint clean.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_repro  # noqa: E402  (path set up above)


def findings_for(tmp_path, source, display="src/repro/service/mod.py"):
    path = tmp_path / Path(display).name
    path.write_text(textwrap.dedent(source))
    return lint_repro.lint_file(path, display)


def rules(found):
    return [finding.rule for finding in found]


class TestAsyncBlocking:
    def test_blocking_call_in_async_service_def_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            import time
            async def handler():
                time.sleep(1)
        """)
        assert rules(found) == ["RS101"]
        assert "time.sleep" in found[0].message
        assert "run_in_executor" in found[0].message

    @pytest.mark.parametrize("call", [
        "os.unlink('x')",
        "shutil.rmtree('d')",
        "tempfile.mkdtemp()",
        "open('f')",
        "path.read_text()",
        "cache.sweep_stale_tmp()",
        "self.cache.get_disk(fp)",
        "publish(cache, fp, 'text', 'full')",
        "batch.compile_and_publish(job, cache)",
    ])
    def test_known_blocking_shapes_flagged(self, tmp_path, call):
        found = findings_for(tmp_path, f"""
            import os, shutil, tempfile  # lint: allow-unused-import
            async def handler(path, cache, fp):
                {call}
        """)
        assert rules(found) == ["RS101"]

    def test_sync_def_and_non_service_paths_exempt(self, tmp_path):
        clean = """
            import time
            def worker():
                time.sleep(1)
        """
        assert findings_for(tmp_path, clean) == []
        # Same blocking call in an async def, but outside service/.
        found = findings_for(tmp_path, """
            import time
            async def handler():
                time.sleep(1)
        """, display="src/repro/core/mod.py")
        assert found == []

    def test_lambda_and_nested_def_are_executor_boundaries(self, tmp_path):
        # The idiom the rule pushes you toward must itself be clean.
        found = findings_for(tmp_path, """
            import asyncio, tempfile
            async def handler(cache, fp):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, lambda: tempfile.mkdtemp())
                await loop.run_in_executor(None, cache.get_disk, fp)
                def hop():
                    return open("f").read()
                await loop.run_in_executor(None, hop)
        """)
        assert found == []

    def test_pragma_silences_on_the_flagged_line(self, tmp_path):
        found = findings_for(tmp_path, """
            import time
            async def handler():
                time.sleep(0)  # lint: allow-blocking
        """)
        assert found == []


class TestLockDiscipline:
    def test_unlocked_mutation_in_locked_class_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            import threading
            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0
                def bump(self):
                    self.hits += 1
        """)
        assert rules(found) == ["RS102"]
        assert "self.hits" in found[0].message

    def test_locked_mutation_and_init_exempt(self, tmp_path):
        found = findings_for(tmp_path, """
            import threading
            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.hits = 0
                def bump(self):
                    with self._lock:
                        self.hits += 1
                        self.table["k"] = 1
        """)
        assert found == []

    def test_lockless_class_exempt(self, tmp_path):
        found = findings_for(tmp_path, """
            class Plain:
                def bump(self):
                    self.hits = 1
        """)
        assert found == []

    def test_pragma_for_caller_held_lock(self, tmp_path):
        found = findings_for(tmp_path, """
            import threading
            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()
                def _bump_locked(self):
                    self.hits = 1  # lint: caller-holds-lock
        """)
        assert found == []


class TestTapeEncapsulation:
    def test_column_write_outside_tape_module_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            def kill(tape, slot):
                tape.alive[slot] = False
        """, display="src/repro/transpile/peephole.py")
        assert rules(found) == ["RS103"]
        assert ".alive[...]" in found[0].message

    def test_bookkeeping_attr_write_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            def drift(tape):
                tape.alive_count += 1
        """, display="src/repro/transpile/peephole.py")
        assert rules(found) == ["RS103"]

    def test_tape_module_itself_exempt(self, tmp_path):
        found = findings_for(tmp_path, """
            class GateTape:
                def remove(self, slot):
                    self.alive[slot] = False
                    self.alive_count -= 1
        """, display="src/repro/circuit/tape.py")
        assert found == []

    def test_reads_and_unrelated_receivers_clean(self, tmp_path):
        found = findings_for(tmp_path, """
            def inspect(tape, table, slot):
                value = tape.alive[slot]
                table.counts[slot] = 1
                return value
        """, display="src/repro/transpile/peephole.py")
        assert found == []


class TestFloatEquality:
    def test_angle_equality_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            def same(gate):
                return gate.param == 0.0
        """, display="src/repro/core/mod.py")
        assert rules(found) == ["RS104"]

    def test_inequality_and_bare_weight_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            def differ(weight, other):
                return weight != other
        """, display="src/repro/core/mod.py")
        assert rules(found) == ["RS104"]

    def test_comparisons_and_other_names_clean(self, tmp_path):
        found = findings_for(tmp_path, """
            def fine(gate, count):
                return gate.param < 1e-9 or count == 3
        """, display="src/repro/core/mod.py")
        assert found == []

    def test_pragma_for_structural_identity(self, tmp_path):
        found = findings_for(tmp_path, """
            def eq(self, other):
                return self.weight == other.weight  # lint: allow-float-eq
        """, display="src/repro/core/mod.py")
        assert found == []


class TestUnusedImports:
    def test_unused_module_imports_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            import os
            import os.path as osp
            from typing import Dict, List
            def f(x: List[int]) -> int:
                return len(x)
        """, display="src/repro/core/mod.py")
        assert rules(found) == ["RS105"] * 3
        assert [f.message for f in found] == [
            "unused import 'os'", "unused import 'osp'",
            "unused import 'Dict'"]
        assert [f.line for f in found] == [2, 3, 4]

    def test_type_checking_and_try_imports_flagged(self, tmp_path):
        found = findings_for(tmp_path, """
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from decimal import Decimal
            try:
                import numpy
            except ImportError:
                numpy = None
            def f():
                return numpy
        """, display="src/repro/core/mod.py")
        assert [f.message for f in found] == ["unused import 'Decimal'"]

    def test_exemptions_stay_clean(self, tmp_path):
        found = findings_for(tmp_path, """
            from __future__ import annotations
            import random
            from typing import TYPE_CHECKING, Optional
            from .sibling import exported
            if TYPE_CHECKING:
                from decimal import Decimal
            __all__ = ["exported"]
            def f(rng: Optional["random.Random"] = None) -> "Decimal":
                import math
                return rng
        """, display="src/repro/core/mod.py")
        assert found == []

    def test_init_modules_exempt(self, tmp_path):
        found = findings_for(tmp_path, """
            from .mod import helper
        """, display="src/repro/core/__init__.py")
        assert found == []

    def test_pragma_keeps_an_import_read_by_attribute(self, tmp_path):
        found = findings_for(tmp_path, """
            from .scheduling import gco_schedule  # lint: allow-unused-import
        """, display="src/repro/core/mod.py")
        assert found == []


class TestHarness:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        found = findings_for(tmp_path, "def broken(:\n")
        assert rules(found) == ["RS100"]

    def test_blanket_ignore_pragma(self, tmp_path):
        found = findings_for(tmp_path, """
            import time
            async def handler():
                time.sleep(0)  # lint: ignore
        """)
        assert found == []

    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        # Path must route through service/ detection via display name —
        # lint a file directly, so use a tape write, which is path-keyed
        # only by *not* being tape.py.
        dirty.write_text("def f(tape, s):\n    tape.alive[s] = 0\n")
        assert lint_repro.main([str(dirty)]) == 1
        out = capsys.readouterr()
        assert "RS103" in out.out
        assert lint_repro.main([str(tmp_path / "missing.py")]) == 2

    def test_repo_source_tree_is_clean(self):
        # The CI contract: the shipped tree has zero findings.
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "lint_repro.py"),
             str(REPO / "src" / "repro")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
