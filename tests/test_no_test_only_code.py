"""`src/` holds no code that only tests use.

The call census: one fresh interpreter runs each of the planner's entry
points under ``sys.setprofile`` (``program_session.py``: ``plan``,
``simulate --exhaustive`` and ``--interactive``, ``bench``, parse errors,
a validation warning, and the benchmark's library calls).  Every function,
method and lambda defined in `src/ehatp` must have run in it, or be listed
in ``KEPT`` with what still needs it; ``__str__`` and ``__repr__``, text
for people, are exempt.  A definition is matched by its module, its line
and its code name, so two methods that share a name, or a dunder, are told
apart.

The other checks read the source: no module but `cli.py` catches an
exception, and no module imports another's underscore name.  Outside the
parser and the front end, every `raise` is listed: a new model error needs
a parser rule instead.  No function writes a field with
`object.__setattr__`: a value is whole once built.  Declaring a value type
costs no import: no module imports `dataclasses`, and importing the CLI
loads neither it nor `inspect`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ehatp").glob("*.py"))

# Definitions the program never calls, by module and dotted name, with what
# keeps each: a release gate (tests/test_acceptance.py), the benchmark
# (planbench/, whose files change only in a change of the benchmark), or
# safety.
KEPT = {
    "kernel.py: EpistemicAction.__init__":
        "gate 1 builds its actions from a flat tuple of events",
    "kernel.py: EpistemicAction.events":
        "planbench/tracer.py's _events hook counts kernel.events_per_action from it",
    "model.py: Frozen.__setattr__":
        "guards immutability: a memo shares every value it holds",
    "model.py: Frozen._same_fields":
        "the equality of parsed models that gate 5's reparse suite compares",
    "model.py: Frozen._hash_fields":
        "the hash that goes with that equality",
    "model.py: World.__new__":
        "gate 1 builds its worlds from three belief bases",
    "model.py: World.key":
        "a planbench/tracer.py target (model.World.key)",
    "model.py: World.wid":
        "gate 1 reads it, and it is a planbench/tracer.py target (model.World.wid)",
}
TEXT = ("__str__", "__repr__")


def _functions(node: ast.AST, scope: tuple[str, ...] = ()):
    """``(first line, code name, dotted name)`` of each function, method and
    lambda under ``node``: the first line of a decorated function is its
    first decorator's, as in its code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (child.name,)
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield first, child.name, ".".join(inner)
        elif isinstance(child, ast.Lambda):
            inner = scope
            yield child.lineno, "<lambda>", ".".join(scope + (f"<lambda>:{child.lineno}",))
        else:
            inner = scope + (child.name,) if isinstance(child, ast.ClassDef) else scope
        yield from _functions(child, inner)


def test_every_function_in_src_runs_in_the_program(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tests" / "program_session.py"), str(tmp_path)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    called = {tuple(row) for row in json.loads((tmp_path / "called.json").read_text())}
    unrun = {f"{path.name}: {dotted}"
             for path in SOURCES
             for line, name, dotted in _functions(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, line, name) not in called and name not in TEXT}
    assert sorted(unrun - KEPT.keys()) == []
    # A kept definition the program now calls, or one that is gone, leaves
    # the table.
    assert sorted(KEPT.keys() - unrun) == []


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
