"""`src/` holds no code that only tests use.

Every public top-level function and class of `src/ehatp`, and every public
method, must be named somewhere in `src/ehatp` or `planbench` other than its
own definition: as a name, an attribute, or a part of a dotted string (the
benchmark's tracer names the functions it wraps that way). No module but
`cli.py` catches an exception, and no module imports another's underscore
name.  Outside the parser and the front end, every `raise` is listed: a new
model error needs a parser rule instead.  No function writes a field with
`object.__setattr__`: a value is whole once built.  Declaring a value type
costs no import: no module imports `dataclasses`, and importing the CLI
loads neither it nor `inspect`.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ehatp").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "planbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _definitions(tree: ast.Module):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _used(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def test_every_public_definition_in_src_is_used_outside_the_tests():
    used = set()
    for path in FILES:
        used.update(_used(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [f"{path.name}: {name}"
              for path in SOURCES
              for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name.rsplit(".", 1)[-1] not in used]
    assert unused == []


def test_only_the_cli_catches_exceptions():
    """The parser rejects every malformed model, so a search or replay meets
    no exception as a normal outcome: only `cli.py`, which turns errors into
    exit codes, holds a `try` statement."""
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))  # ``except*`` from 3.11
    trying = [path.name for path in SOURCES if path.name != "cli.py"
              if any(isinstance(node, kinds)
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))]
    assert trying == []


def test_no_module_imports_another_modules_private_name():
    """An underscore name is its module's own: a name another module needs
    is public, so the check above sees whether anything uses it."""
    private = [f"{path.name}: {node.module or '.'}.{alias.name}"
               for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "ehatp")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


# Each ``raise`` in ``src/ehatp`` outside ``dsl.py`` and ``cli.py``, by module
# and enclosing function, once per statement.  None of them is a model error:
# the parser rejects those before a search or replay starts.
RAISES = [
    ("model.py", "Frozen.__setattr__"),  # bases, worlds, states, events are immutable
    ("model.py", "_require_ground"),  # groundness, for atom_bit and entails
    ("model.py", "atom_bit"),  # a base stores positive atoms only
    ("solver.py", "extract_joint_solution"),  # called only on a settled root
    ("solver.py", "synthesize_communication"),  # asked only about a disagreement
]


def _where(node: ast.AST, hit, scope: tuple[str, ...] = ()):
    """The enclosing function's dotted name for each node under ``node``
    that ``hit`` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _where(child, hit, scope + (child.name,))
        else:
            if hit(child):
                yield ".".join(scope)
            yield from _where(child, hit, scope)


def test_every_raise_outside_the_parser_and_cli_is_listed():
    found = sorted((path.name, where) for path in SOURCES
                   if path.name not in ("dsl.py", "cli.py")
                   for where in _where(ast.parse(path.read_text(encoding="utf-8")),
                                       lambda n: isinstance(n, ast.Raise)))
    assert found == RAISES


# Each function in ``src/ehatp`` that calls ``object.__setattr__``: none.  A
# value fills its slots in its constructor, through the slot descriptors.
SETATTRS = []


def _object_setattr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_every_object_setattr_in_src_is_listed():
    found = sorted({(path.name, where) for path in SOURCES
                    for where in _where(ast.parse(path.read_text(encoding="utf-8")),
                                        _object_setattr)})
    assert found == SETATTRS


# Modules a planner run would import only to declare its value types.
SLOW_IMPORTS = {"dataclasses", "inspect"}


def test_no_module_of_src_imports_dataclasses():
    importing = [f"{path.name}: {name}" for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for name in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                              else [alias.name for alias in node.names])
                 if name.split(".")[0] == "dataclasses"]
    assert importing == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter, as each ``ehatp`` run is: the modules that
    ``import ehatp.cli`` adds to the ones the interpreter starts with."""
    code = ("import sys; before = set(sys.modules); import ehatp.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code],
                           env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                           capture_output=True, text=True, check=True).stdout.split()
    assert "ehatp.cli" in added
    assert SLOW_IMPORTS.isdisjoint(added)
