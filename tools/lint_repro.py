#!/usr/bin/env python3
"""Repo-specific AST linter: the discipline rules generic linters can't know.

Five rule families, each encoding an invariant this codebase actually
relies on (stdlib-only, so CI can run it without the package installed):

* **RS101 — no blocking calls in the gateway's event loop.**  Inside an
  ``async def`` in ``src/repro/service/``, calls to known-blocking APIs
  (``time.sleep``, ``subprocess.*``, sync ``os``/``shutil``/``tempfile``
  file I/O, pathlib read/write/stat methods, the cache's disk-walking
  maintenance methods) stall every connected client.  Blocking work
  belongs on the executor (``loop.run_in_executor``) — lambdas and
  nested ``def`` bodies are therefore exempt: by construction they run
  off-loop.
* **RS102 — CacheStats lock discipline.**  In ``src/repro/service/``,
  a class that creates ``self._lock`` promises that shared mutable state
  is only written under it: any ``self.x = ...`` / ``self.x[...] = ...``
  / augmented assignment outside a ``with self._lock:`` block (and
  outside ``__init__``/``__post_init__``) is a data race waiting for a
  second thread.
* **RS103 — GateTape columns are private to ``circuit/tape.py``.**  The
  tape's parallel columns and wire links are one consistency domain
  (``alive`` vs ``alive_count`` vs ``counts`` vs the linked lists);
  writing ``tape.alive[s] = ...`` from outside the tape module bypasses
  the splice bookkeeping and desynchronizes them.
* **RS104 — no float equality on angles/weights.**  Rotation parameters
  and term weights are accumulated floats; ``==``/``!=`` against them is
  almost always a latent epsilon bug (canonicalize mod 2*pi or compare
  with a tolerance instead).
* **RS105 — no unused module-level imports.**  A name a module imports
  and never reads is a dead dependency that hides what the module really
  uses.  ``__init__.py`` files (re-export hubs), ``from __future__``,
  names listed in ``__all__`` and names read only inside string
  annotations (``"DeviceSpec | str"``) are exempt.

False positives are silenced in place with a pragma comment on the
offending line: ``# lint: allow-blocking``, ``# lint: caller-holds-lock``,
``# lint: allow-tape-write``, ``# lint: allow-float-eq``,
``# lint: allow-unused-import``, or the blanket
``# lint: ignore``.  Exit status: 0 clean, 1 findings, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import List, Optional, Tuple

# --- RS101 tables ----------------------------------------------------------

#: Dotted call paths that block the event loop.
BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.unlink", "os.remove", "os.replace", "os.rename", "os.stat",
    "os.listdir", "os.scandir", "os.makedirs", "os.mkdir", "os.rmdir",
    "os.path.exists", "os.path.isfile", "os.path.isdir", "os.path.getsize",
    "shutil.rmtree", "shutil.copy", "shutil.copyfile", "shutil.copytree",
    "shutil.move",
    "tempfile.mkdtemp", "tempfile.mkstemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryDirectory",
    "socket.create_connection", "socket.getaddrinfo",
}

#: Bare-name calls that block.
BLOCKING_NAMES = {"open", "input"}

#: Method names that are file/socket I/O on their usual receivers
#: (pathlib.Path, CompileCache); flagged regardless of receiver type —
#: a rare same-named in-memory method earns a pragma, not a type system.
BLOCKING_METHODS = {
    "read_text", "write_text", "read_bytes", "write_bytes",
    "touch", "rmdir", "iterdir", "glob", "rglob",
    "sweep_stale_tmp", "_write_disk", "get_disk",
    # CompileCache mutators (disk I/O under the publish lock).  `discard`
    # is deliberately absent: set.discard() is ubiquitous in async code
    # and would drown the signal — its disk path is caught via
    # _write_disk/read_text inside the cache itself.
    "put", "put_tiered", "upgrade", "pull_through",
    # The serving layer's compile-and-publish step and its tier rule
    # (service/batch.py): a compile, then a put into the store.
    "publish", "compile_and_publish",
}

# --- RS104 tables ----------------------------------------------------------

#: Terminal identifiers treated as float-valued angle/weight quantities.
FLOAT_NAMES = {"param", "parameter", "angle", "theta", "weight", "phase"}

PRAGMAS = {
    "RS101": ("allow-blocking",),
    "RS102": ("caller-holds-lock", "allow-unlocked"),
    "RS103": ("allow-tape-write",),
    "RS104": ("allow-float-eq",),
    "RS105": ("allow-unused-import",),
}

#: GateTape parallel columns: subscript stores on these attribute names
#: outside circuit/tape.py bypass the tape's bookkeeping.
TAPE_COLUMNS = {
    "op", "q0", "q1", "param", "alive",
    "nxt0", "prv0", "nxt1", "prv1", "head", "tail", "counts",
}
#: GateTape scalar bookkeeping attributes.
TAPE_ATTRS = {"alive_count", "_links_ready"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_self_lock_with(node: ast.With) -> bool:
    """True for ``with self._lock:`` (any position among the items)."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Attribute) and expr.attr == "_lock":
            if isinstance(expr.value, ast.Name) and expr.value.id == "self":
                return True
    return False


class Finding:
    def __init__(self, path: Path, line: int, col: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.col = col
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class FileLinter(ast.NodeVisitor):
    """One file's walk; context is tracked with explicit stacks."""

    def __init__(self, path: Path, display: str, source: str):
        self.path = path
        self.display = display
        self.lines = source.splitlines()
        self.findings: List[Finding] = []
        self.in_service = "/service/" in display.replace("\\", "/")
        self.is_tape_module = display.replace("\\", "/").endswith(
            "circuit/tape.py")
        # (kind, name) where kind is "async" | "sync" | "lambda"
        self.func_stack: List[Tuple[str, str]] = []
        # Per locked-class frame: name of the class; parallel stack of
        # with-lock nesting depth active inside it.
        self.class_stack: List[Tuple[str, bool]] = []
        self.lock_depth = 0

    # -- plumbing ----------------------------------------------------------
    def report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        if "# lint: ignore" in text:
            return
        for tag in PRAGMAS[rule]:
            if f"# lint: {tag}" in text:
                return
        self.findings.append(
            Finding(Path(self.display), line, node.col_offset, rule, message))

    # -- scope tracking ----------------------------------------------------
    def _class_declares_lock(self, node: ast.ClassDef) -> bool:
        """Does any method of this class assign ``self._lock``?"""
        for child in ast.walk(node):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "_lock"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        return True
        return False

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append((node.name, self._class_declares_lock(node)))
        outer_depth, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = outer_depth
        self.class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.func_stack.append(("sync", node.name))
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.func_stack.append(("async", node.name))
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.func_stack.append(("lambda", "<lambda>"))
        self.generic_visit(node)
        self.func_stack.pop()

    def visit_With(self, node: ast.With) -> None:
        locked = is_self_lock_with(node)
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    # -- RS101: blocking calls in async defs -------------------------------
    def _in_async_scope(self) -> bool:
        return bool(self.func_stack) and self.func_stack[-1][0] == "async"

    def visit_Call(self, node: ast.Call) -> None:
        if self.in_service and self._in_async_scope():
            func = node.func
            dotted = dotted_name(func)
            blocked = None
            if dotted is not None and dotted in BLOCKING_CALLS:
                blocked = dotted
            elif isinstance(func, ast.Name) and (
                    func.id in BLOCKING_NAMES or func.id in BLOCKING_METHODS):
                blocked = func.id
            elif isinstance(func, ast.Attribute) and func.attr in BLOCKING_METHODS:
                blocked = f"...{func.attr}"
            if blocked is not None:
                scope = self.func_stack[-1][1]
                self.report(
                    node, "RS101",
                    f"blocking call {blocked}() inside 'async def {scope}' "
                    f"stalls the event loop; move it onto the executor "
                    f"(loop.run_in_executor)",
                )
        self.generic_visit(node)

    # -- RS102 + RS103: assignments ----------------------------------------
    def _check_store(self, node: ast.AST, target: ast.AST) -> None:
        self._check_lock_discipline(node, target)
        self._check_tape_write(node, target)

    def _check_lock_discipline(self, node: ast.AST, target: ast.AST) -> None:
        if not self.in_service or not self.class_stack:
            return
        class_name, has_lock = self.class_stack[-1]
        if not has_lock or self.lock_depth > 0:
            return
        if self.func_stack and self.func_stack[-1][1] in (
            "__init__", "__post_init__",
        ):
            return
        # self.attr = ... or self.attr[...] = ...
        inner = target
        if isinstance(inner, ast.Subscript):
            inner = inner.value
        if (
            isinstance(inner, ast.Attribute)
            and isinstance(inner.value, ast.Name)
            and inner.value.id == "self"
            and inner.attr != "_lock"
        ):
            self.report(
                node, "RS102",
                f"mutation of self.{inner.attr} in locked class "
                f"{class_name} outside 'with self._lock'",
            )

    def _check_tape_write(self, node: ast.AST, target: ast.AST) -> None:
        if self.is_tape_module:
            return
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attribute = target.value
            if attribute.attr in TAPE_COLUMNS and terminal_name(
                attribute.value
            ) in {"tape", "_tape", "out", "self"}:
                self.report(
                    node, "RS103",
                    f"direct write to tape column .{attribute.attr}[...] "
                    f"outside circuit/tape.py bypasses splice bookkeeping",
                )
        elif isinstance(target, ast.Attribute) and target.attr in TAPE_ATTRS:
            self.report(
                node, "RS103",
                f"direct write to tape attribute .{target.attr} outside "
                f"circuit/tape.py bypasses count bookkeeping",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            targets = target.elts if isinstance(
                target, (ast.Tuple, ast.List)) else [target]
            for single in targets:
                self._check_store(node, single)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node, node.target)
        self.generic_visit(node)

    # -- RS104: float equality ---------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in (node.left, *node.comparators):
                name = terminal_name(side)
                if name in FLOAT_NAMES:
                    self.report(
                        node, "RS104",
                        f"float equality against {name!r}; compare with a "
                        f"tolerance or canonicalize first",
                    )
                    break
        self.generic_visit(node)


# -- RS105: unused module-level imports ----------------------------------

def _module_imports(body: List[ast.stmt]) -> List[Tuple[str, ast.alias]]:
    """``(bound name, alias)`` for every import at module level, including
    those under a module-level ``if`` (``TYPE_CHECKING``) or ``try``."""
    bound: List[Tuple[str, ast.alias]] = []
    for node in body:
        if isinstance(node, ast.Import):
            bound.extend((alias.asname or alias.name.split(".")[0], alias)
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((alias.asname or alias.name, alias)
                         for alias in node.names if alias.name != "*")
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body,
                          *(h.body for h in getattr(node, "handlers", [])),
                          node.orelse, getattr(node, "finalbody", [])):
                bound.extend(_module_imports(block))
    return bound


def _annotation_names(annotation: Optional[ast.AST]) -> List[str]:
    """Names read inside the string parts of one annotation."""
    names: List[str] = []
    if annotation is None:
        return names
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.extend(n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name))
    return names


def _read_names(tree: ast.Module) -> set:
    """Every name the module reads: loads, string annotations and the
    string entries of ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            read.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read.update(_annotation_names(node.returns))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                read.update(n.value for n in ast.walk(node.value)
                            if isinstance(n, ast.Constant)
                            and isinstance(n.value, str))
    return read


def check_unused_imports(tree: ast.Module, linter: FileLinter) -> None:
    if Path(linter.display).name == "__init__.py":
        return
    read = _read_names(tree)
    for name, alias in _module_imports(tree.body):
        if name not in read:
            linter.report(alias, "RS105", f"unused import {name!r}")


def lint_file(path: Path, display: str) -> List[Finding]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(Path(display), exc.lineno or 1, exc.offset or 0,
                        "RS100", f"syntax error: {exc.msg}")]
    linter = FileLinter(path, display, source)
    linter.visit(tree)
    check_unused_imports(tree, linter)
    return linter.findings


def iter_targets(roots: List[Path]) -> List[Tuple[Path, str]]:
    targets: List[Tuple[Path, str]] = []
    for root in roots:
        if root.is_file():
            targets.append((root, str(root)))
        elif root.is_dir():
            for path in sorted(root.rglob("*.py")):
                targets.append((path, str(path)))
        else:
            raise FileNotFoundError(str(root))
    return targets


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_repro",
        description="repo-specific AST lint (async-safety, lock discipline, "
                    "tape encapsulation, float equality, unused imports)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the all-clear summary line",
    )
    options = parser.parse_args(argv)
    try:
        targets = iter_targets([Path(p) for p in options.paths])
    except FileNotFoundError as exc:
        print(f"lint_repro: no such path: {exc}", file=sys.stderr)
        return 2
    findings: List[Finding] = []
    for path, display in targets:
        findings.extend(lint_file(path, display))
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_repro: {len(findings)} finding(s) in "
              f"{len(targets)} file(s)", file=sys.stderr)
        return 1
    if not options.quiet:
        print(f"lint_repro: clean ({len(targets)} files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
