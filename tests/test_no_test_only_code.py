"""`src/` holds no code that only tests use.

Every public top-level function and class of `src/ehatp`, and every public
method, must be named somewhere in `src/ehatp` or `planbench` other than its
own definition: as a name, an attribute, or a part of a dotted string (the
benchmark's tracer names the functions it wraps that way). No module but
`cli.py` catches an exception, and no module imports another's underscore
name.  Outside the parser and the front end, every `raise` is listed: a new
model error needs a parser rule instead.
"""

import ast
import re
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


def _raises(node: ast.AST, scope: tuple[str, ...] = ()):
    """The enclosing function's dotted name for each ``raise`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _raises(child, scope + (child.name,))
        else:
            if isinstance(child, ast.Raise):
                yield ".".join(scope)
            yield from _raises(child, scope)


def test_every_raise_outside_the_parser_and_cli_is_listed():
    found = sorted((path.name, where) for path in SOURCES
                   if path.name not in ("dsl.py", "cli.py")
                   for where in _raises(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == RAISES
