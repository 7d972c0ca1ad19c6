"""No helper that nothing uses.

Every function or method defined in ``src/microcas`` must be named
somewhere in the program (``src/microcas`` or ``perfbench``), or be a
public name of the package.  A use is a name, an attribute, or a word
of a string constant other than a docstring, which covers names looked
up from text such as ``perfbench/spans.py``'s ``"CanonicalFraction.make"``.
Tests do not count as users: a helper only a test calls is dead code
with a test.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import microcas

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = (ROOT / "src" / "microcas", ROOT / "perfbench")

# Definitions the program does not use but keeps, each with its reason.
ALLOWED: dict[str, str] = {}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring constants of a module, class or function."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _uses_and_defs() -> tuple[set[str], list[tuple[str, int, str]]]:
    used: set[str] = set()
    defs: list[tuple[str, int, str]] = []
    for base in PROGRAM:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            docs = _docstrings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
                    used.update(re.findall(r"\w+", node.value))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and base is PROGRAM[0]:
                    defs.append((path.name, node.lineno, node.name))
    return used, defs


def test_every_definition_is_used_by_the_program():
    used, defs = _uses_and_defs()
    public = set(microcas.__all__) | used | set(ALLOWED)
    dead = [
        f"{file}:{line} {name}"
        for file, line, name in defs
        if name not in public and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []
    assert set(ALLOWED) <= {name for _, _, name in defs}, "an allowed name that is no longer defined"
