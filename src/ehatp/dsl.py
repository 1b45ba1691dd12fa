"""Parsing, validation, and pretty-printing of `.ehatp` domain/problem files.

The concrete syntax is a small block-structured language: a `domain { ... }`
block declares types, places, objects, predicates (each tagged `observable`
or `inferable`), knowledge rules, the co-presence formula, actions, and
methods; a `problem { ... }` block selects a domain, the turn budget `k`,
whether communication is allowed, start places, root tasks, the initial
ground truth, and any initially diverging human beliefs.  `#` starts a
comment.  Identifiers beginning with an uppercase letter are variables,
except the reserved agent names `R` and `H`.

Parsing is deterministic and raises :class:`ParseError` (a diagnostic with
file/line/column) on the first error, so every entry point rejects a
malformed model the same way: syntax, references, types, a second declaration
of a name, a knowledge rule on an inferable-only predicate, a name that is
both an action and a method task, a recursive task decomposition, an action
that could leave an agent at two places or none, and an action whose add and
delete can name one atom (`_effect_error`).  In every conjunction the planner
grounds, an earlier positive literal must bind each negative's variables.
So the search meets no model error at run time.
:func:`validate` only warns about conventions and notes false beliefs.
"""

from __future__ import annotations

import re
import sys
from importlib import resources
from itertools import islice, product
from operator import itemgetter
from typing import Iterable, Iterator, KeysView, NamedTuple

from .model import (
    AGENTS,
    BeliefBase,
    EhatpError,
    Frozen,
    Literal,
    Task,
    atom_bit,
    effect_masks,
    is_variable,
    known_bit,
    unify,
)

OBSERVER = "observer"
_tuple = tuple.__new__  # builds a named tuple without its Python ``__new__``
BUILTIN_TYPES = ("agent", "place")


class Diagnostic(NamedTuple):
    file: str
    line: int
    col: int
    severity: str  # error | warning | note
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"


class ParseError(EhatpError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class Param(NamedTuple):
    name: str
    type: str

    def __str__(self) -> str:
        return f"{self.name} {self.type}"


class PredicateDecl(NamedTuple):
    name: str
    param_types: tuple[str, ...]
    observable: bool

    def __str__(self) -> str:
        sig = self.name if not self.param_types else f"{self.name}({','.join(self.param_types)})"
        return f"{sig} {'observable' if self.observable else 'inferable'}"


class ActionSchema(NamedTuple):
    name: str
    actor: str
    params: tuple[Param, ...]
    place: str  # a place constant or a place-typed parameter name
    pre: tuple[Literal, ...]
    adds: tuple[Literal, ...]
    dels: tuple[Literal, ...]

    def ground(self, args: tuple[str, ...]) -> "GroundAction":
        return GroundAction(self, args)


class GroundAction(Frozen):
    """An action schema with its parameters bound to ``args``, one for each:
    the parser checks the arity of every subtask and root task.  Equal,
    hashed and shown by its first six fields, never by the masks or
    the text.

    Its masks are built here, preconditions first, so every atom they name
    is interned before any base can hold it: a mask pair stays valid for
    the life of the process, and a non-ground precondition raises
    :class:`MalformedLiteralError` from every call.
    """

    __slots__ = ("name", "args", "actor", "pre", "adds", "dels",
                 "need", "forbid", "add", "drop", "text")
    _compared = __slots__[:6]
    name: str
    args: tuple[str, ...]
    actor: str
    pre: tuple[Literal, ...]
    adds: tuple[Literal, ...]
    dels: tuple[Literal, ...]
    # The preconditions hold in a base ``m`` when ``m & need == need and not
    # m & forbid``; the effects make it ``(m & ~drop) | add``.  The parser
    # rejects a schema whose add and delete can name the same atom, so
    # ``add`` and ``drop`` are disjoint.
    need: int
    forbid: int
    add: int
    drop: int
    # ``name(arg,...)``, or the bare name: the offer label, the sort key of
    # refinements and ``str()``, written once here
    text: str

    def __init__(self, schema: ActionSchema, args: tuple[str, ...]) -> None:
        binding = {p.name: a for p, a in zip(schema.params, args)}
        pre = tuple(l.substitute(binding) for l in schema.pre)
        need = forbid = 0
        for l in pre:
            if l.positive:
                need |= atom_bit(l)
            else:
                forbid |= atom_bit(l.atom)
        adds = tuple(l.substitute(binding) for l in schema.adds)
        dels = tuple(l.substitute(binding) for l in schema.dels)
        text = schema.name if not args else f"{schema.name}({','.join(args)})"
        self._fill(schema.name, args, schema.actor, pre, adds, dels,
                   need, forbid, *effect_masks(adds, dels), text)

    def __str__(self) -> str:
        return self.text


class MethodSchema(NamedTuple):
    task: str
    params: tuple[Param, ...]
    label: str
    pre: tuple[Literal, ...]
    subtasks: tuple[Task, ...]


class KnowledgeRule(NamedTuple):
    name: str
    target: Literal
    antecedent: tuple[Literal, ...]


# A model's declarations: they decide its equality and its ground table.
_DECLARATIONS = ("name", "types", "places", "objects", "predicates", "rules",
                 "copresence", "actions", "methods")


class DomainModel(Frozen):
    """A parsed domain: the declarations its constructor takes, which decide
    its equality, and what is built from them.  Slots are typed by the
    constructor; ``objects`` holds ``(name, type)`` pairs."""

    __slots__ = _DECLARATIONS + ("table", "memo", "declared_at", "_predicates", "_actions",
                                 "_methods", "_types", "_of_type")
    _compared = _DECLARATIONS
    # Ground instances built on first use: an action's or a method's
    # (``htn._ground``), keyed by a ``Task`` (a name and a tuple of names);
    # the kernel's questions (``kernel._question``), ``(bit, instances)``
    # pairs with the mask of the atoms they test, keyed by a co-presence
    # rule (a tuple of literals) or, for the view, by the string ``"view"``;
    # each ground task's relevance (``htn.relevant``), keyed ``("relevant",
    # task)``: two fields like a ``Task``, but the second is a ``Task``,
    # which holds a tuple, not a name; and the nearest foreign action of a
    # root task (``_foreign_action``, four fields).  So no two keys compare equal.
    # They depend on the declarations alone, so every model with equal
    # declarations shares one table from ``_TABLES`` while it is kept there:
    # each parse and each ``with_fresh_memo`` copy.
    table: dict
    # The HTN's answer record for each (agenda, mask), under the exact mask
    # and under its projection onto the agenda's relevant atoms, both
    # ``("htn", agenda, mask)`` (see ``htn.answers``); state evaluation's
    # verdict per world, ``("done", world)``; under ``"view"`` and
    # ``"copresent"``, the kernel's two questions, each with its answers
    # keyed by the truth projected onto the atoms the question tests
    # (``kernel._answer``); the kernel's world transitions; and the
    # ``EHATP_LOG`` flag.
    # One search or one loaded policy file works on its own copy
    # (``kernel.with_call_memo``), so the memo lives as long as that call
    # or that loaded model.
    memo: dict
    # (line, column) of each observable predicate's name, by ``("predicate",
    # name)``, and of the ``copresent`` keyword, by ``("copresent", "")``:
    # where `validate` warns
    declared_at: dict
    # ``_predicates``, ``_actions`` and ``_methods`` hold the declarations by
    # name (the parser rejects a repeated name; methods: all, in order),
    # ``_types`` each constant's type and ``_of_type`` the constants of each.

    def __init__(self, name: str, types: tuple[str, ...], places: tuple[str, ...],
                 objects: tuple[tuple[str, str], ...], predicates: tuple[PredicateDecl, ...],
                 rules: tuple[KnowledgeRule, ...], copresence: tuple[Literal, ...],
                 actions: tuple[ActionSchema, ...], methods: tuple[MethodSchema, ...],
                 declared_at: dict | None = None) -> None:
        declarations = (name, types, places, objects, predicates, rules, copresence,
                        actions, methods)
        by_task: dict[str, tuple[MethodSchema, ...]] = {}
        for m in methods:
            by_task[m.task] = by_task.get(m.task, ()) + (m,)
        type_of = dict(objects)
        type_of.update({p: "place" for p in places} | {a: "agent" for a in AGENTS})
        of_type = {t: tuple(n for n, k in type_of.items() if k == t)
                   for t in set(type_of.values())}
        table = _TABLES.pop(declarations, None)  # moved to the recent end
        if table is None and len(_TABLES) >= TABLES_KEPT:
            del _TABLES[next(iter(_TABLES))]
        _TABLES[declarations] = table = {} if table is None else table
        self._fill(*declarations, table, {},
                   {} if declared_at is None else declared_at,
                   {p.name: p for p in predicates}, {a.name: a for a in actions},
                   by_task, type_of, of_type)

    def with_fresh_memo(self) -> "DomainModel":
        """A copy with an empty ``memo``; it shares every other field,
        ``table`` included, as every model with these declarations does."""
        dom = object.__new__(DomainModel)
        dom._fill(*[{} if name == "memo" else getattr(self, name) for name in self.__slots__])
        return dom

    def predicate(self, name: str) -> PredicateDecl | None:
        return self._predicates.get(name)

    def action(self, name: str) -> ActionSchema | None:
        return self._actions.get(name)

    def methods_for(self, task: str) -> tuple[MethodSchema, ...]:
        return self._methods.get(task, ())

    def task_names(self) -> KeysView[str]:
        return self._methods.keys()

    def instances(self, literals: Iterable[Literal], binding: dict[str, str],
                  ) -> list[tuple[dict[str, str], int, int]]:
        """``literals`` solved as a matcher would solve them against a base
        holding every atom the declared types allow: each binding extending
        ``binding``, with the ``(need, forbid)`` masks a base must pass for
        the literals to hold under it.

        Bindings come in the matcher's order: literal by literal, a free
        positive literal's atoms in the order of their strings.  A free
        argument ranges over the constants ``constant_type`` gives its
        declared type, so the instances grow as the objects to the power of
        the free variables.  The parser has checked that each predicate is
        declared and each negative literal is ground once the literals
        before it are bound; ``atom_bit`` rejects one that is not.
        """
        sols: list[tuple] = [(binding, 0, 0)]
        for l in literals:
            nxt = []
            for b, need, forbid in sols:
                g = l.substitute(b)
                if not g.positive:
                    nxt.append((b, need, forbid | atom_bit(g.atom)))
                    continue
                if g.is_ground():
                    nxt.append((b, need | atom_bit(g), forbid))
                    continue
                pools = [self._of_type.get(t, ()) if is_variable(a) else (a,)
                         for a, t in zip(g.args, self._predicates[g.pred].param_types)]
                for atom in sorted((Literal(g.pred, args) for args in product(*pools)), key=str):
                    trial = unify(g, atom, b)
                    if trial is not None:
                        nxt.append((trial, need | atom_bit(atom), forbid))
            sols = nxt
        return sols

    def constant_type(self, name: str) -> str | None:
        return self._types.get(name)


# The tables of the `TABLES_KEPT` most recently parsed sets of declarations,
# least recent first.  The key is the declarations, not a model, so no memo
# is kept alive, and a model keeps its own table once it is dropped here.
TABLES_KEPT = 16
_TABLES: dict[tuple, dict] = {}


class ProblemInstance(Frozen):
    """A parsed problem, with the fields its constructor takes.
    ``belief_deltas`` are the human's initial divergences from the truth and
    ``belief_at`` the (line, column) of the ``believe`` of each, for
    diagnostics: two problems are equal whatever those positions."""

    __slots__ = ("name", "domain_name", "k", "comm_allowed", "robot_place", "human_place",
                 "root_task_r", "root_task_h", "ground_truth", "belief_deltas", "belief_at")
    _compared = __slots__[:-1]

    def __init__(self, name: str, domain_name: str, k: int, comm_allowed: bool,
                 robot_place: str, human_place: str, root_task_r: Task, root_task_h: Task,
                 ground_truth: BeliefBase, belief_deltas: tuple[Literal, ...],
                 belief_at: tuple[tuple[int, int], ...]) -> None:
        self._fill(name, domain_name, k, comm_allowed, robot_place, human_place,
                   root_task_r, root_task_h, ground_truth, belief_deltas, belief_at)

    @property
    def initial_mask_h(self) -> int:
        """The human's initial beliefs: the truth, each divergence forced."""
        mask = self.ground_truth.mask
        for d in self.belief_deltas:
            mask = mask | atom_bit(d) if d.positive else mask & ~known_bit(d.atom)
        return mask


# --------------------------------------------------------------------------
# Lexer


# A token is ``(layout, ident, mark, word)``, one match of ``_TOKEN``: the
# layout (blanks, newlines, ``#`` comments) before it, then its text in one
# of three groups, the other two empty: an identifier, a mark (a punctuation
# mark or an integer), or a word that `_split_words` takes apart.  No token
# from `_lex` holds a word, and the end of input is the one with neither an
# identifier nor a mark.  Offsets are counted only when a position is
# reported (`_tokenize`).
_Token = tuple[str, str, str, str]

# ``\w`` is exactly ``str.isalnum()`` or ``_``: an identifier's tail.  A run
# of word characters the ASCII groups cannot take (a non-ASCII start, or
# digits before a non-ASCII character), a ``-`` before no digit and any other
# character fall to the word group, which `_split_words` checks with the
# ``str`` tests.  No atomic groups or possessive quantifiers: Python 3.10 has
# neither.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (?: ([A-Za-z_]\w*)
      | ([{}(),:]|-?[0-9]+(?![0-9]|[^\x00-\x7f]))
      | (-?\w+|.)
      | \Z )
""", re.VERBOSE | re.DOTALL)
_WORD = itemgetter(3)


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``index`` in ``text``."""
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


def _lex(text: str, filename: str) -> list[_Token]:
    """The tokens of ``text``, the end of input last."""
    tokens = _TOKEN.findall(text)
    if len(tokens) > 1 and not any(tokens[-2][1:]):
        tokens.pop()  # the empty match after trailing layout
    return _split_words(text, filename, tokens) if any(map(_WORD, tokens)) else tokens


def _split_words(text: str, filename: str, tokens: list[_Token]) -> list[_Token]:
    """``tokens`` with each word replaced by the integer and the identifier
    it holds; raise on the first character that starts neither."""
    out: list[_Token] = []
    i = 0
    for layout, ident, mark, word in tokens:
        i += len(layout)
        if not word:
            out.append((layout, ident, mark, word))
            i += len(ident or mark)
            continue
        j = 0
        if word[0].isdigit() or (word[0] == "-" and word[1:2].isdigit()):
            j = 1
            while j < len(word) and word[j].isdigit():
                j += 1
            out.append((layout, "", word[:j], ""))
            layout = ""
        if j < len(word):
            if not (word[j].isalpha() or word[j] == "_"):
                line, col = _position(text, i + j)
                raise ParseError(Diagnostic(filename, line, col, "error",
                                            f"unexpected character {word[j]!r}"))
            out.append((layout, word[j:], "", ""))
        i += len(word)
    return out


def _tokenize(text: str, tokens: list[_Token]) -> Iterator[tuple[str, str, int]]:
    """``(kind, text, index)`` of each of ``text``'s tokens, as `_lex` gives
    them: ``kind`` is ident | int | punct | eof and ``index`` is the offset
    of the token's first character."""
    i = 0
    for layout, ident, mark, _ in islice(tokens, len(tokens) - 1):
        i += len(layout)
        yield ("ident", ident, i) if ident else ("punct" if mark in "{}(),:" else "int", mark, i)
        i += len(ident or mark)
    # A comment's characters take no column, which shows only when the last
    # line ends in one: the end of input is then placed where it starts.
    comment = text.find("#", text.rfind("\n") + 1)
    yield "eof", "", len(text) if comment < 0 else comment


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _lex(text, filename)
        self.pos = 0
        # The index of each declaration's token by ``(kind, name)``: a second
        # one is an error, and a domain's reference errors are raised at the
        # first.  Places, objects and the agents share one namespace of
        # constants; an agent's token is never reported.
        self._decl_tok: dict[tuple[str, str], int] = {("constant", a): -1 for a in AGENTS}
        self._view = _tokenize(text, self.tokens)
        self._seen: list[tuple[str, str, int]] = []  # what `_view` gave so far

    # -- token plumbing ----------------------------------------------------
    # A keyword is read off a token's ``[1]`` and a mark off its ``[2]``;
    # lists are read straight off ``tokens`` with a local index.

    def at(self, k: int) -> tuple[int, int]:
        """Line and column of token ``k``: offsets are counted once, up to
        the furthest token asked for."""
        seen = self._seen
        if k >= len(seen):
            seen.extend(islice(self._view, k + 1 - len(seen)))
        return _position(self.text, seen[k][2])

    def error(self, k: int, message: str) -> ParseError:
        line, col = self.at(k)
        return ParseError(Diagnostic(self.filename, line, col, "error", message))

    def expected(self, k: int, what: str) -> ParseError:
        text = self.tokens[k][1] or self.tokens[k][2]
        return self.error(k, f"expected {what}, got {text!r}" if text else f"expected {what}")

    def ident(self, what: str) -> str:
        """The next token, which must be an identifier (``what``)."""
        name = self.tokens[self.pos][1]
        if not name:
            raise self.expected(self.pos, what)
        self.pos += 1
        return name

    def expect(self, word: str) -> None:
        """Skip the next token, which must read ``word``."""
        tok = self.tokens[self.pos]
        if tok[1] != word and tok[2] != word:
            raise self.expected(self.pos, repr(word))
        self.pos += 1

    def _remember(self, kind: str, name: str, k: int, what: str = "",
                  at: int | None = None) -> None:
        """Keep ``k``, the token of the declaration of ``name``; raise
        "duplicate ``what``" (``kind 'name'`` when empty) at token ``at``
        (``k`` when None) if ``name`` is declared already as a ``kind``."""
        key = (kind, name)
        if key in self._decl_tok:
            raise self.error(k if at is None else at, f"duplicate {what or f'{kind} {name!r}'}")
        self._decl_tok[key] = k

    # -- shared pieces -----------------------------------------------------

    def parens(self, types: list[str] | None = None) -> tuple:
        """``(Name type, ...)`` parameters or, given ``types``, ``(type, ...)``
        with each one of them or built in; possibly empty, or nothing when no
        ``(`` follows."""
        toks = self.tokens
        i = self.pos
        if toks[i][2] != "(":
            return ()
        out: list = []
        if toks[i + 1][2] != ")":
            while True:
                i += 1
                name = toks[i][1]
                if types is not None:
                    if not name:
                        raise self.expected(i, "a type")
                    if name not in types and name not in BUILTIN_TYPES:
                        raise self.error(i, f"undeclared type {name!r}")
                    out.append(name)
                else:
                    if not name:
                        raise self.expected(i, "a parameter name")
                    if not is_variable(name):
                        raise self.error(i, f"parameter {name!r} must start uppercase")
                    i += 1
                    if not toks[i][1]:
                        raise self.expected(i, "a parameter type")
                    out.append(_tuple(Param, (name, toks[i][1])))
                i += 1
                if toks[i][2] != ",":
                    break
            if toks[i][2] != ")":
                raise self.expected(i, "')'")
        self.pos = i + 1 if out else i + 2
        return tuple(out)

    def terms(self, what: str, one: bool = False, effect: bool = False) -> tuple[tuple, int]:
        """One ``[not] name[(arg, ...)]`` or, unless ``one``, more separated
        by commas, and the index of the last one's name: literals, or tasks
        (which take no ``not``) when ``what`` is "a task name".  An ``effect``
        literal is a positive atom: its ``not`` is an error."""
        toks = self.tokens
        i = self.pos
        task = what == "a task name"
        out = []
        while True:
            positive = task or toks[i][1] != "not"
            if not positive:
                if effect:
                    raise self.error(i, "an effect is a positive atom: "
                                        "'add' and 'del' take no 'not'")
                i += 1
            head = i
            name = toks[i][1]
            if not name:
                raise self.expected(i, what)
            args: list[str] = []
            if toks[i + 1][2] != "(":
                i += 1
            elif toks[i + 2][2] == ")":
                i += 3
            else:
                while True:
                    arg = toks[i + 2][1]
                    if not arg:
                        raise self.expected(i + 2, "an argument")
                    args.append(arg)
                    i += 2
                    if toks[i + 1][2] != ",":
                        break
                if toks[i + 1][2] != ")":
                    raise self.expected(i + 1, "')'")
                i += 2
            out.append(_tuple(Task, (name, tuple(args))) if task
                       else _tuple(Literal, (name, tuple(args), positive)))
            if one or toks[i][2] != ",":
                self.pos = i
                return tuple(out), head
            i += 1


# --------------------------------------------------------------------------
# Domain parsing


class _DomainParser(_Parser):
    def _ref_error(self, kind: str, name: str, message: str) -> ParseError:
        return self.error(self._decl_tok[kind, name], message)

    def parse(self) -> DomainModel:
        self.expect("domain")
        name = self.ident("a domain name")
        self.expect("{")
        types: list[str] = []
        places: list[str] = []
        objects: list[tuple[str, str]] = []
        predicates: list[PredicateDecl] = []
        rules: list[KnowledgeRule] = []
        copresence: tuple[Literal, ...] | None = None
        actions: list[ActionSchema] = []
        methods: list[MethodSchema] = []
        declared_at: dict[tuple[str, str], tuple[int, int]] = {}

        toks = self.tokens
        while toks[self.pos][2] != "}":
            k = self.pos
            word = toks[k][1]
            if word == "action":
                actions.append(self.parse_action())
            elif word == "method":
                methods.append(self.parse_method())
            elif word in ("type", "place", "object", "predicate", "rule"):
                self.pos += 1
                decl = self.ident(f"{'an object' if word == 'object' else f'a {word}'} name")
                self._remember("constant" if word in ("place", "object") else word, decl, k + 1)
                if word == "type":
                    types.append(decl)
                elif word == "place":
                    places.append(decl)
                elif word == "object":
                    otype = self.ident("an object type")
                    if otype not in types and otype not in BUILTIN_TYPES:
                        raise self.error(k + 2, f"undeclared type {otype!r}")
                    objects.append((decl, otype))
                elif word == "predicate":
                    ptypes = self.parens(types)
                    klass = self.ident("'observable' or 'inferable'")
                    if klass not in ("observable", "inferable"):
                        raise self.error(self.pos - 1, "predicate class must be 'observable' or 'inferable'")
                    predicates.append(_tuple(PredicateDecl, (decl, ptypes, klass == "observable")))
                    if klass == "observable":  # what `validate` may warn about
                        declared_at["predicate", decl] = self.at(k + 1)
                else:
                    self.expect(":")
                    (target,), _ = self.terms("a predicate name", one=True)
                    self.expect("when")
                    rules.append(_tuple(KnowledgeRule, (decl, target, self.terms("a predicate name")[0])))
            elif word == "copresent":
                self.pos += 1
                self._remember("copresent", "", k, "copresent rule")
                declared_at["copresent", ""] = self.at(k)
                self.expect("when")
                copresence = self.terms("a predicate name")[0]
            else:
                text = word or toks[k][2]
                raise self.error(k, f"unexpected {text!r} in domain block" if text
                                 else "unterminated domain block")
        self.pos += 1

        if copresence is None:
            # Default: same place.
            copresence = (Literal("at", ("R", "P")), Literal("at", ("H", "P")))
        if not any(p.name == "at" for p in predicates):
            # Agent positions are framework-level; declare implicitly.
            predicates.insert(0, PredicateDecl("at", ("agent", "place"), False))
        if next(p for p in predicates if p.name == "at").param_types != ("agent", "place"):
            raise self.error(1, "predicate 'at' must be declared as at(agent, place)")

        dom = DomainModel(name, tuple(types), tuple(places), tuple(objects),
                          tuple(predicates), tuple(rules), copresence, tuple(actions),
                          tuple(methods), declared_at)
        self._check_references(dom)
        return dom

    def parse_action(self) -> ActionSchema:
        self.pos += 1
        k = self.pos
        name = self.ident("an action name")
        self._remember("action", name, k)
        params = self.parens()
        self.expect("by")
        actor = self.ident("an actor (R or H)")
        if actor not in AGENTS:
            raise self.error(self.pos - 1, f"actor must be R or H, got {actor!r}")
        self.expect("at")
        place = self.ident("a place or place-typed parameter")
        self.expect("{")
        body: dict[str, tuple[Literal, ...]] = {"pre": (), "add": (), "del": ()}
        while (word := self.tokens[self.pos])[2] != "}":
            if word[1] not in body:
                raise self.error(self.pos, "expected 'pre', 'add', 'del', or '}' in action body")
            self.pos += 1
            body[word[1]] = self.terms("a predicate name", effect=word[1] != "pre")[0]
        self.pos += 1
        return _tuple(ActionSchema, (name, actor, params, place, body["pre"], body["add"], body["del"]))

    def parse_method(self) -> MethodSchema:
        self.pos += 1
        k = self.pos
        task = self.ident("a task name")
        params = self.parens()
        label = self.ident("a method label")
        self._remember("method", f"{task}/{label}", k,
                       f"method label {label!r} for task {task!r}", at=self.pos - 1)
        self.expect("{")
        body: dict[str, tuple] = {"pre": (), "sub": ()}
        while (word := self.tokens[self.pos])[2] != "}":
            if word[1] not in body:
                raise self.error(self.pos, "expected 'pre', 'sub', or '}' in method body")
            self.pos += 1
            body[word[1]] = self.terms("a task name" if word[1] == "sub" else "a predicate name")[0]
        self.pos += 1
        return _tuple(MethodSchema, (task, params, label, body["pre"], body["sub"]))

    # -- reference/arity checks (hard errors) -------------------------------

    def _check_references(self, dom: DomainModel) -> None:
        predicates, constants, actions, task_names = (
            dom._predicates, dom._types, dom._actions, dom._methods)
        # Each scope starts from the constants that are not variables, so one
        # lookup gives an argument's type: a constant's, or a variable's once
        # bound.
        plain = {c: t for c, t in constants.items() if not is_variable(c)}

        def check_literal(l: Literal, kind: str, name: str, where: str, bound: dict[str, str]) -> None:
            decl = predicates.get(l.pred)
            if decl is None:
                raise self._ref_error(kind, name, f"undeclared predicate {l.pred!r} in {where}")
            if len(l.args) != len(decl.param_types):
                raise self._ref_error(kind, name,
                                      f"arity mismatch for {l.pred!r} in {where}: "
                                      f"expected {len(decl.param_types)}, got {len(l.args)}")
            for arg, want in zip(l.args, decl.param_types):
                if bound.get(arg) == want or (arg == OBSERVER and kind == "rule"):
                    continue
                if is_variable(arg):
                    have = bound.setdefault(arg, want)
                    if have != want:
                        raise self._ref_error(kind, name,
                                              f"variable {arg!r} used as {want!r} and {have!r} in {where}")
                else:
                    ctype = constants.get(arg)
                    raise self._ref_error(kind, name, f"unknown object {arg!r} in {where}" if ctype is None
                                          else f"object {arg!r} has type {ctype!r}, expected {want!r} in {where}")

        def check_conjunction(literals: tuple[Literal, ...], kind: str, name: str, where: str,
                              what: str, bound: dict[str, str]) -> None:
            """``check_literal`` each of ``literals``, solved left to right, adding
            their variables to ``bound``: a negative one may use only those bound."""
            for l in literals:
                free = () if l.positive else [a for a in l.args if a not in bound and is_variable(a)]
                check_literal(l, kind, name, where, bound)
                if free:
                    raise self._ref_error(kind, name, f"variable {free[0]!r} in a negative {what} "
                                                      "is not bound by an earlier positive")

        for rule in dom.rules:
            bound = dict(plain)
            check_literal(rule.target, "rule", rule.name, f"rule {rule.name}", bound)
            if not predicates[rule.target.pred].observable:
                raise self._ref_error("rule", rule.name,
                                      f"knowledge rule {rule.name!r} targets inferable-only "
                                      f"predicate {rule.target.pred!r}")
            check_conjunction(rule.antecedent, "rule", rule.name, f"rule {rule.name}",
                              f"antecedent of rule {rule.name}", bound)

        check_conjunction(dom.copresence, "copresent", "", "copresent rule",
                          "literal of the copresent rule", dict(plain))

        for act in dom.actions:
            bound = plain | {p.name: p.type for p in act.params}
            if constants.get(act.place) != "place" and bound.get(act.place) != "place":
                raise self._ref_error("action", act.name,
                                      f"action {act.name}: execution place {act.place!r} is neither "
                                      "a place nor a place-typed parameter")
            declared = len(bound)
            for group, gname in ((act.pre, "pre"), (act.adds, "add"), (act.dels, "del")):
                where = f"action {act.name} {gname}"
                for l in group:
                    check_literal(l, "action", act.name, where, bound)
                    if len(bound) > declared:  # a variable that is not a parameter
                        arg = next(a for a in l.args if is_variable(a)
                                   and a not in (p.name for p in act.params))
                        raise self._ref_error("action", act.name,
                                              f"variable {arg!r} in action {act.name} is not a parameter")
            why = _effect_error(act)
            if why is not None:
                raise self._ref_error("action", act.name, f"action {act.name} {why}")

        edges: dict[str, set[str]] = {}  # each task to the tasks its methods expand into
        for m in dom.methods:
            mkey = f"{m.task}/{m.label}"
            if m.task in actions:
                raise self._ref_error("method", mkey,
                                      f"{m.task!r} is both an action and a method task name")
            edges.setdefault(m.task, set()).update(
                st.name for st in m.subtasks if st.name in task_names)
            bound = plain | {p.name: p.type for p in m.params}
            if m.pre:
                check_conjunction(m.pre, "method", mkey, f"method {mkey}", f"precondition of {mkey}", bound)
            for st in m.subtasks:
                schema = actions.get(st.name)
                if schema is not None:
                    if len(st.args) != len(schema.params):
                        raise self._ref_error("method", mkey,
                                              f"subtask {st.name} in {mkey}: arity mismatch")
                elif st.name not in task_names:
                    raise self._ref_error("method", mkey,
                                          f"subtask {st.name!r} in {mkey} resolves to "
                                          "neither an action nor a method")
                for arg in st.args:
                    if arg not in bound and is_variable(arg):
                        raise self._ref_error("method", mkey,
                                              f"subtask argument {arg!r} in {mkey} is unbound")
                why = _argument_type_error(dom, st, bound)
                if why is not None:
                    raise self._ref_error("method", mkey, f"subtask {why} in {mkey}")

        # Decomposition must terminate: one depth-first pass over the task
        # graph, in name order, rejects the first cycle it meets.
        on_path: dict[str, bool] = {}  # True while on the path, False once left
        for start in sorted(edges):
            if start in on_path:
                continue
            path, stack = [start], [iter(sorted(edges[start]))]
            on_path[start] = True
            while stack:
                nxt = next(stack[-1], None)
                if nxt is None:
                    stack.pop()
                    on_path[path.pop()] = False
                elif on_path.get(nxt):
                    cycle = path[path.index(nxt):] + [nxt]
                    first = dom.methods_for(nxt)[0]
                    raise self._ref_error("method", f"{first.task}/{first.label}",
                                          f"recursive task decomposition: {' -> '.join(cycle)}")
                elif nxt not in on_path:
                    on_path[nxt] = True
                    path.append(nxt)
                    stack.append(iter(sorted(edges[nxt])))


def _argument_type_error(dom: DomainModel, task: Task, types: dict[str, str]) -> str | None:
    """Why ``task``'s arguments do not fit the action it names or every method
    of its arity, or None when they do; ``types`` gives each argument's type,
    a constant's or a variable's.

    Effects then add only atoms whose arguments have the declared types, the
    atoms ``DomainModel.instances`` grounds free variables over.
    """
    schema = dom._actions.get(task.name)
    if schema is not None and len(schema.params) != len(task.args):
        return f"{task} expects {len(schema.params)} arguments"
    fitting = ([schema.params] if schema is not None else
               [m.params for m in dom._methods.get(task.name, ()) if len(m.params) == len(task.args)])
    if not fitting:
        return f"{task} has no method taking {len(task.args)} arguments"
    for params in fitting:
        for arg, p in zip(task.args, params):
            if types.get(arg) != p.type:
                return f"argument {arg!r} of {task} has type {types.get(arg)!r}, expected {p.type!r}"
    return None


def _effect_error(act: ActionSchema) -> str | None:
    """Why ``act`` could leave an agent at two places or none (a), or add
    and delete one atom (b); None when it cannot.

    (a) Adding ``at(A, P)`` takes deleting and requiring one ``at(A, Q)``,
    and no other ``at`` whose agent term unifies with ``A``; deleting an
    ``at`` takes adding one for the same term.  With one start place per
    agent and no agent's ``at`` in ``init`` or ``believe``, every reachable
    truth then puts each agent at exactly one place.
    (b) No add unifies with a delete, unless the unifier makes the
    preconditions contradict (``move``: ``not at(H, To)`` when ``To = From``).
    """
    pre = set(act.pre)
    moves = [l.atom for l in act.adds if l.pred == "at"]
    leaves = [l.atom for l in act.dels if l.pred == "at"]
    for i, l in enumerate(moves):
        agent = l.args[0]
        if not any(d.args[0] == agent and d in pre for d in leaves):
            return f"adds {l} without deleting a place of {agent} it requires"
        for other in moves[i + 1:]:
            if unify(Literal("at", (agent,)), Literal("at", other.args[:1])) is not None:
                return f"adds {l} and {other}, two places for one agent"
    for d in leaves:
        if all(l.args[0] != d.args[0] for l in moves):
            return f"deletes {d} without adding a place of {d.args[0]}"
    for a in act.adds:
        for d in act.dels:
            mgu = unify(a.atom, d.atom)
            if mgu is None:
                continue
            bound = {l.substitute(mgu) for l in act.pre}
            if not any(l.negate() in bound for l in bound):
                when = " and ".join(f"{v} = {t}" for v, t in mgu.items())
                return (f"adds {a} and deletes {d}, one atom"
                        + (f" when {when}" if when else ""))
    return None


def _foreign_action(dom: DomainModel, task: Task, agent: str) -> ActionSchema | None:
    """The nearest action of the agent other than ``agent`` that ``task``
    can decompose to, or None: one breadth-first pass, in declaration order,
    over the ``(name, arity)`` pairs reachable through methods that fit.
    A fact of the declarations, so kept in ``dom.table``."""
    key = ("foreign", task.name, len(task.args), agent)
    if key in dom.table:
        return dom.table[key]
    actions, methods = dom._actions, dom._methods
    found = None
    todo = [key[1:3]]
    seen = set(todo)
    for name, arity in todo:  # ``todo`` grows while it is walked
        schema = actions.get(name)
        if schema is not None:
            if schema.actor != agent:
                found = schema
                break
            continue
        for m in methods.get(name, ()):
            if len(m.params) == arity:
                for st in m.subtasks:
                    pair = (st.name, len(st.args))
                    if pair not in seen:
                        seen.add(pair)
                        todo.append(pair)
    dom.table[key] = found
    return found


# --------------------------------------------------------------------------
# Problem parsing


class _ProblemParser(_Parser):
    def __init__(self, text: str, dom: DomainModel, filename: str):
        super().__init__(text, filename)
        self.dom = dom

    def parse(self) -> ProblemInstance:
        self.expect("problem")
        name = self.ident("a problem name")
        self.expect("{")
        domain_name: str | None = None
        k: int | None = None
        comm: bool | None = None
        robot_place: str | None = None
        human_place: str | None = None
        task_r: Task | None = None
        task_h: Task | None = None
        init_atoms: list[Literal] = []
        deltas: list[tuple[Literal, tuple[int, int]]] = []

        toks = self.tokens
        while toks[self.pos][2] != "}":
            kw = self.pos
            word = toks[kw][1]
            if word == "init":
                self.pos += 1
                self.expect("{")
                while toks[self.pos][2] != "}":
                    if not toks[self.pos][1] and not toks[self.pos][2]:
                        raise self.error(self.pos, "unterminated init block")
                    (l,), head = self.terms("a predicate name", one=True)
                    if not l.positive:
                        raise self.error(head, "init atoms must be positive (closed world)")
                    self._check_ground_literal(l, head, "init")
                    init_atoms.append(l)
                    if toks[self.pos][2] == ",":
                        self.pos += 1
                self.pos += 1
            elif word == "task":
                self.pos += 1
                actor = self.ident("R or H")
                if actor not in AGENTS:
                    raise self.error(self.pos - 1, "task actor must be R or H")
                self._remember("line", f"task {actor}", kw)
                (t,), head = self.terms("a task name", one=True)
                if t.name not in self.dom.task_names() and self.dom.action(t.name) is None:
                    raise self.error(head, f"root task {t.name!r} is not declared in the domain")
                self._check_ground_args(t.args, head)
                why = _argument_type_error(self.dom, t, self.dom._types)
                if why is not None:
                    raise self.error(head, f"root task {why}")
                # An agenda is refined for its owner alone, so it may reach
                # only that agent's actions.
                foreign = _foreign_action(self.dom, t, actor)
                if foreign is not None:
                    raise self.error(head, f"root task {t.name!r} of {actor} decomposes to "
                                           f"{foreign.name!r}, an action of {foreign.actor}")
                if actor == "R":
                    task_r = t
                else:
                    task_h = t
            elif word in ("robot", "human"):
                self.pos += 1
                self._remember("line", f"{word} at", kw)
                self.expect("at")
                place = self.ident("a place")
                if self.dom.constant_type(place) != "place":
                    raise self.error(self.pos - 1, f"unknown place {place!r}")
                if word == "robot":
                    robot_place = place
                else:
                    human_place = place
            elif word == "believe":
                self.pos += 1
                (l,), head = self.terms("a predicate name", one=True)
                self._check_ground_literal(l, head, "believe")
                self._remember("believe", str(l.atom), head, f"belief about {l.atom}")
                deltas.append((l, self.at(kw)))
            elif word == "domain":
                self.pos += 1
                self._remember("line", "domain", kw)
                domain_name = self.ident("a domain name")
                if domain_name != self.dom.name:
                    raise self.error(kw, f"problem references domain {domain_name!r}, "
                                         f"but {self.dom.name!r} was loaded")
            elif word == "k":
                self._remember("line", "k", kw)
                # ``int()`` takes only decimal digits; the lexer also reads
                # ``²`` as one.
                num = toks[kw + 1][2]
                digits = num.lstrip("-")
                if not digits.isdecimal():
                    raise self.error(kw + 1, "expected an integer after 'k'")
                # What ``int()`` refuses; Python before 3.10.7 sets no limit.
                limit = getattr(sys, "get_int_max_str_digits", None)
                if limit is not None and 0 < limit() < len(digits):
                    raise self.error(kw + 1, "k has too many digits")
                self.pos += 2
                k = int(num)
                if k < 0:
                    raise self.error(kw + 1, "k must be >= 0")
            elif word == "communication":
                self.pos += 1
                self._remember("line", "communication", kw)
                mode = self.ident("'on' or 'off'")
                if mode not in ("on", "off"):
                    raise self.error(self.pos - 1, "communication must be 'on' or 'off'")
                comm = mode == "on"
            else:
                text = word or toks[kw][2]
                raise self.error(kw, f"unexpected {text!r} in problem block" if text
                                 else "unterminated problem block")
        self.pos += 1

        missing = [label for label, v in (
            ("domain", domain_name), ("k", k), ("communication", comm),
            ("robot place", robot_place), ("human place", human_place),
            ("task R", task_r), ("task H", task_h),
        ) if v is None]
        if missing:
            raise self.error(self.pos, "problem is missing: " + ", ".join(missing))

        deltas.sort(key=lambda d: str(d[0]))
        truth = BeliefBase(frozenset(init_atoms)
                           | {Literal("at", ("R", robot_place)), Literal("at", ("H", human_place))})
        return ProblemInstance(name, domain_name, k, comm, robot_place, human_place, task_r,
                               task_h, truth, tuple(l for l, _ in deltas),
                               tuple(at for _, at in deltas))

    def _check_ground_args(self, args: tuple[str, ...], head: int) -> None:
        for arg in args:
            if is_variable(arg):
                raise self.error(head, f"problem declarations must be ground, found variable {arg!r}")
            if self.dom.constant_type(arg) is None:
                raise self.error(head, f"unknown object {arg!r}")

    def _check_ground_literal(self, l: Literal, head: int, line: str) -> None:
        """Check ``l``, read on an ``init`` or ``believe`` ``line``: both
        agents start where the problem puts them, and the human knows it."""
        if l.pred == "at" and l.args and l.args[0] in AGENTS:
            raise self.error(head, "agent positions are set by the "
                                   f"'robot at'/'human at' lines, not {line}")
        decl = self.dom.predicate(l.pred)
        if decl is None:
            raise self.error(head, f"undeclared predicate {l.pred!r}")
        if len(l.args) != len(decl.param_types):
            raise self.error(head, f"arity mismatch for {l.pred!r}: "
                                   f"expected {len(decl.param_types)}, got {len(l.args)}")
        self._check_ground_args(l.args, head)
        for arg, want in zip(l.args, decl.param_types):
            have = self.dom.constant_type(arg)
            if have != want:
                raise self.error(head, f"object {arg!r} has type {have!r}, expected {want!r}")


def parse_domain(text: str, filename: str = "<domain>") -> DomainModel:
    return _DomainParser(text, filename).parse()


def parse_problem(text: str, dom: DomainModel, filename: str = "<problem>") -> ProblemInstance:
    return _ProblemParser(text, dom, filename).parse()


# --------------------------------------------------------------------------
# Validation (warnings and notes; every error is raised by the parser)


def validate(dom: DomainModel, prob: ProblemInstance | None = None,
             filename: str = "<domain>", problem_file: str = "<problem>") -> list[Diagnostic]:
    """Warnings about conventions a parsed model may break, each at its
    declaration in ``filename`` (``0:0`` for a model the parser did not
    build), and a note for each initial false belief of ``prob``'s human, at
    its ``believe`` in ``problem_file``.  Never an error: the parser rejects
    every malformed model with a positioned diagnostic."""
    out: list[Diagnostic] = []

    def warn(key: tuple[str, str], msg: str) -> None:
        line, col = dom.declared_at.get(key, (0, 0))
        out.append(Diagnostic(filename, line, col, "warning", msg))

    ruled = {r.target.pred for r in dom.rules}
    for p in dom.predicates:
        if p.observable and p.name not in ruled:
            warn(("predicate", p.name), f"observable predicate {p.name!r} has no knowledge rule")
    for l in dom.copresence:
        if l.pred != "at":
            warn(("copresent", ""), f"copresent rule references {l.pred!r}; only agent positions are conventional")

    if prob is not None:
        for d, (line, col) in zip(prob.belief_deltas, prob.belief_at):
            if not prob.ground_truth.entails(d):
                out.append(Diagnostic(problem_file, line, col, "note",
                                      f"initial false belief: human believes {d}"))
    return out


# --------------------------------------------------------------------------
# Bundled files


def load_shipped(name: str) -> str:
    """Text of a bundled ``.ehatp`` file, e.g. ``load_shipped("cube_org")``."""
    return (resources.files("ehatp") / "data" / f"{name}.ehatp").read_text(encoding="utf-8")


def load_instance(name: str) -> tuple[DomainModel, ProblemInstance]:
    """Parse a bundled problem together with the domain it references."""
    text = load_shipped(name)
    m = re.search(r"^\s*domain\s+(\w+)", text, re.MULTILINE)
    if m is None:
        raise ParseError(Diagnostic(f"{name}.ehatp", 1, 1, "error",
                                    "problem file lacks a domain reference"))
    dom = parse_domain(load_shipped(m.group(1)), filename=f"{m.group(1)}.ehatp")
    return dom, parse_problem(text, dom, filename=f"{name}.ehatp")
