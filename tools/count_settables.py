"""Count the repo's settable values and print the total.

A settable value is an argparse ``add_argument`` call in ``src/`` or
``tools/``, or a defaulted parameter of a public function or method in
``src/`` (``__init__`` included; keyword-only defaults count too).  The
count is read off the AST, so comments and strings never add to it.

Usage: ``python tools/count_settables.py`` (stdlib only, no options).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(directory):
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_add_argument(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument")


def _defaulted(node):
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return 0
    if node.name.startswith("_") and node.name != "__init__":
        return 0
    args = node.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count_settables():
    flags = sum(_is_add_argument(node)
                for directory in ("src", "tools")
                for tree in _trees(directory) for node in ast.walk(tree))
    params = sum(_defaulted(node)
                 for tree in _trees("src") for node in ast.walk(tree))
    return flags + params


if __name__ == "__main__":
    print(count_settables())
