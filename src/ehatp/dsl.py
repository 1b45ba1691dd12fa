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
both an action and a method task, and a recursive task decomposition.  In
every conjunction the planner grounds, an earlier positive literal must bind
each negative's variables.
:func:`validate` only warns about conventions and notes false beliefs.
"""

from __future__ import annotations

import re
from copy import copy
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import product
from typing import Callable, Iterable, TypeVar

from .model import (
    AGENTS,
    BeliefBase,
    EhatpError,
    Literal,
    Task,
    atom_bit,
    effect_masks,
    is_variable,
    unify,
)

T = TypeVar("T")

OBSERVER = "observer"
BUILTIN_TYPES = ("agent", "place")


@dataclass(frozen=True, slots=True)
class Diagnostic:
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


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    type: str

    def __str__(self) -> str:
        return f"{self.name} {self.type}"


@dataclass(frozen=True, slots=True)
class PredicateDecl:
    name: str
    param_types: tuple[str, ...]
    observable: bool

    def __str__(self) -> str:
        sig = self.name if not self.param_types else f"{self.name}({','.join(self.param_types)})"
        return f"{sig} {'observable' if self.observable else 'inferable'}"


@dataclass(frozen=True, slots=True)
class ActionSchema:
    name: str
    actor: str
    params: tuple[Param, ...]
    place: str  # a place constant or a place-typed parameter name
    pre: tuple[Literal, ...]
    adds: tuple[Literal, ...]
    dels: tuple[Literal, ...]

    def ground(self, args: tuple[str, ...]) -> "GroundAction":
        if len(args) != len(self.params):
            raise EhatpError(f"action {self.name} expects {len(self.params)} args, got {len(args)}")
        binding = {p.name: a for p, a in zip(self.params, args)}
        return GroundAction(
            name=self.name,
            args=args,
            actor=self.actor,
            pre=tuple(l.substitute(binding) for l in self.pre),
            adds=tuple(l.substitute(binding) for l in self.adds),
            dels=tuple(l.substitute(binding) for l in self.dels),
        )


@dataclass(frozen=True, slots=True)
class GroundAction:
    name: str
    args: tuple[str, ...]
    actor: str
    pre: tuple[Literal, ...]
    adds: tuple[Literal, ...]
    dels: tuple[Literal, ...]
    # (add, drop) masks of the effects, built at the first application
    _masks: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False)
    # (need, forbid) masks of the preconditions, built at the first check
    _pre: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __str__(self) -> str:
        return self.name if not self.args else f"{self.name}({','.join(self.args)})"

    def effect_masks(self) -> tuple[int, int]:
        """``model.effect_masks`` of this action's effects, computed once.

        A conflicting action raises on every application and is never cached.
        """
        masks = self._masks
        if masks is None:
            masks = effect_masks(self.adds, self.dels)
            object.__setattr__(self, "_masks", masks)
        return masks

    def pre_masks(self) -> tuple[int, int]:
        """The preconditions as a ``(need, forbid)`` mask pair, built once.

        Every precondition atom is interned then, so the pair stays valid
        when an atom first enters a base later; a non-ground precondition
        raises :class:`MalformedLiteralError` and is never cached.
        """
        masks = self._pre
        if masks is None:
            need = forbid = 0
            for l in self.pre:
                if l.positive:
                    need |= atom_bit(l)
                else:
                    forbid |= atom_bit(l.atom)
            masks = (need, forbid)
            object.__setattr__(self, "_pre", masks)
        return masks

    def applicable(self, mask: int) -> bool:
        """Whether a base with this mask satisfies the preconditions."""
        need, forbid = self.pre_masks()
        return mask & need == need and not mask & forbid


@dataclass(frozen=True, slots=True)
class MethodSchema:
    task: str
    params: tuple[Param, ...]
    label: str
    pre: tuple[Literal, ...]
    subtasks: tuple[Task, ...]


@dataclass(frozen=True, slots=True)
class KnowledgeRule:
    name: str
    target: Literal
    antecedent: tuple[Literal, ...]


@dataclass(frozen=True, slots=True)
class DomainModel:
    name: str
    types: tuple[str, ...]
    places: tuple[str, ...]
    objects: tuple[tuple[str, str], ...]  # (name, type)
    predicates: tuple[PredicateDecl, ...]
    rules: tuple[KnowledgeRule, ...]
    copresence: tuple[Literal, ...]
    actions: tuple[ActionSchema, ...]
    methods: tuple[MethodSchema, ...]
    # Ground instances built on first use (``htn._ground``,
    # ``kernel._observable``, ``kernel._copresent``), keyed by a ``Task`` (two
    # fields), an atom (a ``Literal``, three fields) or a co-presence rule (a
    # tuple of literals), so no two keys compare equal.  They depend on the
    # declarations alone, so every model with equal declarations shares one
    # table from ``_TABLES``: each parse, ``with_fresh_memo`` copy and
    # ``dataclasses.replace`` that keeps them.
    table: dict = field(init=False, compare=False, repr=False)
    # Both HTN answers for each (agenda, mask) (see ``htn._answers``), the
    # atoms situation assessment has judged, the kernel's world transitions
    # and the ``EHATP_LOG`` flag.  One search, replay or stepper run works on
    # its own copy (``kernel.with_call_memo``), so the memo lives as long as
    # that call.
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # Declarations by name (the parser rejects a repeated name; methods: all,
    # in order); each constant's type, and the constants of each type
    _predicates: dict = field(init=False, compare=False, repr=False)
    _actions: dict = field(init=False, compare=False, repr=False)
    _methods: dict = field(init=False, compare=False, repr=False)
    _types: dict = field(init=False, compare=False, repr=False)
    _of_type: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        declarations = tuple(getattr(self, name) for name in _DECLARATIONS)
        object.__setattr__(self, "table", _TABLES.setdefault(declarations, {}))
        methods: dict[str, tuple[MethodSchema, ...]] = {}
        for m in self.methods:
            methods[m.task] = methods.get(m.task, ()) + (m,)
        types = dict(self.objects)
        types.update({p: "place" for p in self.places} | {a: "agent" for a in AGENTS})
        of_type = {t: tuple(n for n, k in types.items() if k == t) for t in set(types.values())}
        object.__setattr__(self, "_predicates", {p.name: p for p in self.predicates})
        object.__setattr__(self, "_actions", {a.name: a for a in self.actions})
        object.__setattr__(self, "_methods", methods)
        object.__setattr__(self, "_types", types)
        object.__setattr__(self, "_of_type", of_type)

    def with_fresh_memo(self) -> "DomainModel":
        """A copy with an empty ``memo``; it shares ``table``, as every model
        with these declarations does."""
        dom = copy(self)
        object.__setattr__(dom, "memo", {})
        return dom

    def predicate(self, name: str) -> PredicateDecl | None:
        return self._predicates.get(name)

    def action(self, name: str) -> ActionSchema | None:
        return self._actions.get(name)

    def methods_for(self, task: str) -> tuple[MethodSchema, ...]:
        return self._methods.get(task, ())

    def task_names(self) -> frozenset[str]:
        return frozenset(m.task for m in self.methods)

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


# The table of each distinct set of declarations, kept for the life of the
# process like the atom numbering its masks are built on (``model.atom_bit``).
# The key is the declarations, not a model, so no memo is kept alive.
_DECLARATIONS = tuple(f.name for f in fields(DomainModel) if f.compare)
_TABLES: dict[tuple, dict] = {}


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    name: str
    domain_name: str
    k: int
    comm_allowed: bool
    robot_place: str
    human_place: str
    root_task_r: Task
    root_task_h: Task
    ground_truth: BeliefBase
    belief_deltas: tuple[Literal, ...]  # human's initial divergences from truth
    # (line, column) of the ``believe`` of each delta, for diagnostics
    belief_at: tuple[tuple[int, int], ...] = field(compare=False)

    @property
    def initial_bel_h(self) -> BeliefBase:
        base = self.ground_truth
        for d in self.belief_deltas:
            base = base.assign(d, d.positive)
        return base


# --------------------------------------------------------------------------
# Lexer


# A token is ``(kind, text, index)``: ``kind`` is ident | int | punct | eof
# and ``index`` is the offset of its first character.  Line and column are
# worked out from the index only when a diagnostic reports them.
_Token = tuple[str, str, int]

# One match per token, with the layout (blanks, newlines, ``#`` comments)
# before it.  ``\w`` is exactly ``str.isalnum()`` or ``_``: an identifier's
# tail.  A run of word characters the ASCII groups cannot take (a non-ASCII
# start, or digits before a non-ASCII character), a ``-`` before no digit and
# any other character fall to the fourth group, which `_split_word` checks
# with the ``str`` tests.  No atomic groups or possessive quantifiers: Python
# 3.10 has neither.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*)
    (?: ([A-Za-z_]\w*)
      | ([{}(),:])
      | (-?[0-9]+)(?![0-9]|[^\x00-\x7f])
      | (-?\w+|.)
      | \Z )
""", re.VERBOSE | re.DOTALL)


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column, both from 1, of offset ``index`` in ``text``."""
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    append = tokens.append
    i = 0
    for layout, ident, punct, num, other in _TOKEN.findall(text):
        i += len(layout)
        if ident:
            append(("ident", ident, i))
        elif punct:
            append(("punct", punct, i))
        elif num:
            append(("int", num, i))
        elif other:
            _split_word(text, filename, other, i, tokens)
        i += len(ident or punct or num or other)
    # A comment's characters take no column, which shows only when the last
    # line ends in one: the end of input is then placed where it starts.
    comment = text.find("#", text.rfind("\n") + 1)
    append(("eof", "", len(text) if comment < 0 else comment))
    return tokens


def _split_word(text: str, filename: str, word: str, index: int,
                tokens: list[_Token]) -> None:
    """Append the integer and identifier that ``word`` (at ``index``) holds,
    or raise on the first character that starts neither."""
    j = 0
    if word[0].isdigit() or (word[0] == "-" and word[1:2].isdigit()):
        j = 1
        while j < len(word) and word[j].isdigit():
            j += 1
        tokens.append(("int", word[:j], index))
    if j < len(word):
        if not (word[j].isalpha() or word[j] == "_"):
            line, col = _position(text, index + j)
            raise ParseError(Diagnostic(filename, line, col, "error",
                                        f"unexpected character {word[j]!r}"))
        tokens.append(("ident", word[j:], index + j))


class _Parser:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        # The token of each declaration by ``kind:name``: a second one is an
        # error, and a domain's reference errors are raised at the first.
        self._decl_tok: dict[str, _Token] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> ParseError:
        line, col = _position(self.text, tok[2])
        return ParseError(Diagnostic(self.filename, line, col, "error", message))

    def expect_ident(self, what: str) -> _Token:
        tok = self.next()
        if tok[0] != "ident":
            raise self.error(tok, f"expected {what}, got {tok[1]!r}" if tok[1] else f"expected {what}")
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok[0] != "ident" or tok[1] != word:
            raise self.error(tok, f"expected {word!r}, got {tok[1]!r}" if tok[1] else f"expected {word!r}")
        return tok

    def expect_punct(self, ch: str) -> _Token:
        tok = self.next()
        if tok[0] != "punct" or tok[1] != ch:
            raise self.error(tok, f"expected {ch!r}, got {tok[1]!r}" if tok[1] else f"expected {ch!r}")
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok[0] == "ident" and tok[1] == word

    def at_punct(self, ch: str) -> bool:
        tok = self.peek()
        return tok[0] == "punct" and tok[1] == ch

    def _remember(self, kind: str, name: str, tok: _Token, what: str = "",
                  at: _Token | None = None) -> None:
        """Keep ``tok``, the declaration of ``name``; raise "duplicate
        ``what``" (``kind 'name'`` when empty) at ``at`` (``tok`` when None)
        if ``name`` is declared already as a ``kind``."""
        key = f"{kind}:{name}"
        if key in self._decl_tok:
            raise self.error(at or tok, f"duplicate {what or f'{kind} {name!r}'}")
        self._decl_tok[key] = tok

    # -- shared pieces -----------------------------------------------------

    def parse_list(self, item: Callable[[], T]) -> tuple[T, ...]:
        """One or more ``item``s separated by commas."""
        out = [item()]
        while self.at_punct(","):
            self.next()
            out.append(item())
        return tuple(out)

    def parse_parens(self, item: Callable[[], T]) -> tuple[T, ...]:
        """``(item, ...)``, possibly empty, or nothing when no ``(`` follows."""
        if not self.at_punct("("):
            return ()
        self.next()
        out = () if self.at_punct(")") else self.parse_list(item)
        self.expect_punct(")")
        return out

    def parse_argument(self) -> str:
        return self.expect_ident("an argument")[1]

    def parse_literal(self) -> tuple[Literal, _Token]:
        positive = True
        if self.at_keyword("not"):
            self.next()
            positive = False
        head = self.expect_ident("a predicate name")
        args = self.parse_parens(self.parse_argument)
        return Literal(head[1], args, positive), head

    def parse_literal_list(self) -> tuple[Literal, ...]:
        return tuple(l for l, _ in self.parse_list(self.parse_literal))

    def parse_task(self) -> tuple[Task, _Token]:
        head = self.expect_ident("a task name")
        args = self.parse_parens(self.parse_argument)
        return Task(head[1], args), head

    def parse_param(self) -> Param:
        name = self.expect_ident("a parameter name")
        if not is_variable(name[1]):
            raise self.error(name, f"parameter {name[1]!r} must start uppercase")
        return Param(name[1], self.expect_ident("a parameter type")[1])


# --------------------------------------------------------------------------
# Domain parsing


class _DomainParser(_Parser):
    def __init__(self, text: str, filename: str):
        super().__init__(text, filename)
        # Places, objects and the agents share one namespace of constants;
        # an agent's token is never reported.
        for a in AGENTS:
            self._decl_tok[f"constant:{a}"] = ("ident", a, 0)

    def _ref_error(self, kind: str, name: str, message: str) -> ParseError:
        return self.error(self._decl_tok[f"{kind}:{name}"], message)

    def parse_type(self, types: list[str], what: str) -> str:
        """A built-in type or one of the declared ``types``."""
        tok = self.expect_ident(what)
        if tok[1] not in types and tok[1] not in BUILTIN_TYPES:
            raise self.error(tok, f"undeclared type {tok[1]!r}")
        return tok[1]

    def parse(self) -> DomainModel:
        self.expect_keyword("domain")
        name = self.expect_ident("a domain name")
        self.expect_punct("{")
        types: list[str] = []
        places: list[str] = []
        objects: list[tuple[str, str]] = []
        predicates: list[PredicateDecl] = []
        rules: list[KnowledgeRule] = []
        copresence: tuple[Literal, ...] | None = None
        actions: list[ActionSchema] = []
        methods: list[MethodSchema] = []

        while not self.at_punct("}"):
            tok = self.peek()
            if tok[0] == "eof":
                raise self.error(tok, "unterminated domain block")
            if self.at_keyword("type"):
                self.next()
                tname = self.expect_ident("a type name")
                self._remember("type", tname[1], tname)
                types.append(tname[1])
            elif self.at_keyword("place"):
                self.next()
                pname = self.expect_ident("a place name")
                self._remember("constant", pname[1], pname)
                places.append(pname[1])
            elif self.at_keyword("object"):
                self.next()
                oname = self.expect_ident("an object name")
                self._remember("constant", oname[1], oname)
                objects.append((oname[1], self.parse_type(types, "an object type")))
            elif self.at_keyword("predicate"):
                self.next()
                pname = self.expect_ident("a predicate name")
                self._remember("predicate", pname[1], pname)
                ptypes = self.parse_parens(lambda: self.parse_type(types, "a type"))
                klass = self.expect_ident("'observable' or 'inferable'")
                if klass[1] not in ("observable", "inferable"):
                    raise self.error(klass, "predicate class must be 'observable' or 'inferable'")
                predicates.append(PredicateDecl(pname[1], ptypes, klass[1] == "observable"))
            elif self.at_keyword("rule"):
                self.next()
                rname = self.expect_ident("a rule name")
                self._remember("rule", rname[1], rname)
                self.expect_punct(":")
                target, _ = self.parse_literal()
                self.expect_keyword("when")
                antecedent = self.parse_literal_list()
                rules.append(KnowledgeRule(rname[1], target, antecedent))
            elif self.at_keyword("copresent"):
                tok = self.next()
                self._remember("copresent", "", tok, "copresent rule")
                self.expect_keyword("when")
                copresence = self.parse_literal_list()
            elif self.at_keyword("action"):
                actions.append(self.parse_action())
            elif self.at_keyword("method"):
                methods.append(self.parse_method())
            else:
                raise self.error(tok, f"unexpected {tok[1]!r} in domain block")
        self.expect_punct("}")

        if copresence is None:
            # Default: same place.
            copresence = (Literal("at", ("R", "P")), Literal("at", ("H", "P")))
        if not any(p.name == "at" for p in predicates):
            # Agent positions are framework-level; declare implicitly.
            predicates.insert(0, PredicateDecl("at", ("agent", "place"), False))
        if next(p for p in predicates if p.name == "at").param_types != ("agent", "place"):
            raise self.error(name, "predicate 'at' must be declared as at(agent, place)")

        dom = DomainModel(
            name=name[1],
            types=tuple(types),
            places=tuple(places),
            objects=tuple(objects),
            predicates=tuple(predicates),
            rules=tuple(rules),
            copresence=copresence,
            actions=tuple(actions),
            methods=tuple(methods),
        )
        self._check_references(dom)
        return dom

    def parse_action(self) -> ActionSchema:
        self.expect_keyword("action")
        name = self.expect_ident("an action name")
        self._remember("action", name[1], name)
        params = self.parse_parens(self.parse_param)
        self.expect_keyword("by")
        actor = self.expect_ident("an actor (R or H)")
        if actor[1] not in AGENTS:
            raise self.error(actor, f"actor must be R or H, got {actor[1]!r}")
        self.expect_keyword("at")
        place = self.expect_ident("a place or place-typed parameter")[1]
        self.expect_punct("{")
        pre: tuple[Literal, ...] = ()
        adds: tuple[Literal, ...] = ()
        dels: tuple[Literal, ...] = ()
        while not self.at_punct("}"):
            if self.at_keyword("pre"):
                self.next()
                pre = self.parse_literal_list()
            elif self.at_keyword("add"):
                self.next()
                adds = self.parse_literal_list()
            elif self.at_keyword("del"):
                self.next()
                dels = self.parse_literal_list()
            else:
                raise self.error(self.peek(), "expected 'pre', 'add', 'del', or '}' in action body")
        self.expect_punct("}")
        return ActionSchema(name[1], actor[1], params, place, pre, adds, dels)

    def parse_method(self) -> MethodSchema:
        self.expect_keyword("method")
        task = self.expect_ident("a task name")
        params = self.parse_parens(self.parse_param)
        label = self.expect_ident("a method label")
        self._remember("method", f"{task[1]}/{label[1]}", task,
                       f"method label {label[1]!r} for task {task[1]!r}", at=label)
        self.expect_punct("{")
        pre: tuple[Literal, ...] = ()
        subtasks: tuple[Task, ...] = ()
        while not self.at_punct("}"):
            if self.at_keyword("pre"):
                self.next()
                pre = self.parse_literal_list()
            elif self.at_keyword("sub"):
                self.next()
                subtasks = tuple(t for t, _ in self.parse_list(self.parse_task))
            else:
                raise self.error(self.peek(), "expected 'pre', 'sub', or '}' in method body")
        self.expect_punct("}")
        return MethodSchema(task[1], params, label[1], pre, subtasks)

    # -- reference/arity checks (hard errors) -------------------------------

    def _check_references(self, dom: DomainModel) -> None:
        def check_literal(l: Literal, kind: str, name: str, where: str, bound: dict[str, str]) -> None:
            decl = dom.predicate(l.pred)
            if decl is None:
                raise self._ref_error(kind, name, f"undeclared predicate {l.pred!r} in {where}")
            if len(l.args) != len(decl.param_types):
                raise self._ref_error(kind, name,
                                      f"arity mismatch for {l.pred!r} in {where}: "
                                      f"expected {len(decl.param_types)}, got {len(l.args)}")
            for arg, want in zip(l.args, decl.param_types):
                if arg == OBSERVER:
                    continue
                if is_variable(arg):
                    have = bound.setdefault(arg, want)
                    if have != want:
                        raise self._ref_error(kind, name,
                                              f"variable {arg!r} used as {want!r} and {have!r} in {where}")
                else:
                    ctype = dom.constant_type(arg)
                    if ctype is None:
                        raise self._ref_error(kind, name, f"unknown object {arg!r} in {where}")
                    if ctype != want:
                        raise self._ref_error(kind, name,
                                              f"object {arg!r} has type {ctype!r}, expected {want!r} in {where}")

        def check_conjunction(literals: tuple[Literal, ...], kind: str, name: str, where: str,
                              what: str, bound: dict[str, str]) -> None:
            """``check_literal`` each of ``literals``, solved left to right, adding
            their variables to ``bound``: a negative one may use only those bound."""
            for l in literals:
                free = [a for a in l.args if is_variable(a) and a not in bound]
                check_literal(l, kind, name, where, bound)
                if free and not l.positive:
                    raise self._ref_error(kind, name, f"variable {free[0]!r} in a negative {what} "
                                                      "is not bound by an earlier positive")

        for rule in dom.rules:
            bound: dict[str, str] = {}
            check_literal(rule.target, "rule", rule.name, f"rule {rule.name}", bound)
            if not dom.predicate(rule.target.pred).observable:
                raise self._ref_error("rule", rule.name,
                                      f"knowledge rule {rule.name!r} targets inferable-only "
                                      f"predicate {rule.target.pred!r}")
            check_conjunction(rule.antecedent, "rule", rule.name, f"rule {rule.name}",
                              f"antecedent of rule {rule.name}", bound)

        check_conjunction(dom.copresence, "copresent", "", "copresent rule",
                          "literal of the copresent rule", {})

        for act in dom.actions:
            bound = {p.name: p.type for p in act.params}
            if dom.constant_type(act.place) != "place" and bound.get(act.place) != "place":
                raise self._ref_error("action", act.name,
                                      f"action {act.name}: execution place {act.place!r} is neither "
                                      "a place nor a place-typed parameter")
            for group, gname in ((act.pre, "pre"), (act.adds, "add"), (act.dels, "del")):
                for l in group:
                    check_literal(l, "action", act.name, f"action {act.name} {gname}", bound)
                    for arg in l.args:
                        if is_variable(arg) and arg not in (p.name for p in act.params):
                            raise self._ref_error("action", act.name,
                                                  f"variable {arg!r} in action {act.name} is not a parameter")

        task_names = dom.task_names()
        edges: dict[str, set[str]] = {}  # each task to the tasks its methods expand into
        for m in dom.methods:
            mkey = f"{m.task}/{m.label}"
            if dom.action(m.task) is not None:
                raise self._ref_error("method", mkey,
                                      f"{m.task!r} is both an action and a method task name")
            edges.setdefault(m.task, set()).update(
                st.name for st in m.subtasks if st.name in task_names)
            bound = {p.name: p.type for p in m.params}
            check_conjunction(m.pre, "method", mkey, f"method {mkey}", f"precondition of {mkey}", bound)
            for st in m.subtasks:
                schema = dom.action(st.name)
                if schema is not None:
                    if len(st.args) != len(schema.params):
                        raise self._ref_error("method", mkey,
                                              f"subtask {st.name} in {mkey}: arity mismatch")
                elif st.name not in task_names:
                    raise self._ref_error("method", mkey,
                                          f"subtask {st.name!r} in {mkey} resolves to "
                                          "neither an action nor a method")
                for arg in st.args:
                    if is_variable(arg) and arg not in bound:
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
    of its arity, or None when they do; ``types`` gives a variable's type.

    Effects then add only atoms whose arguments have the declared types, the
    atoms ``DomainModel.instances`` grounds free variables over.
    """
    schema = dom.action(task.name)
    if schema is not None and len(schema.params) != len(task.args):
        return f"{task} expects {len(schema.params)} arguments"
    fitting = ([schema.params] if schema is not None else
               [m.params for m in dom.methods_for(task.name) if len(m.params) == len(task.args)])
    if not fitting:
        return f"{task} has no method taking {len(task.args)} arguments"
    for params in fitting:
        for arg, p in zip(task.args, params):
            have = types.get(arg) if is_variable(arg) else dom.constant_type(arg)
            if have != p.type:
                return f"argument {arg!r} of {task} has type {have!r}, expected {p.type!r}"
    return None


def _foreign_action(dom: DomainModel, task: Task, agent: str) -> ActionSchema | None:
    """The nearest action of the agent other than ``agent`` that ``task``
    can decompose to, or None: one breadth-first pass, in declaration order,
    over the ``(name, arity)`` pairs reachable through methods that fit."""
    todo = [(task.name, len(task.args))]
    seen = set(todo)
    for name, arity in todo:  # ``todo`` grows while it is walked
        schema = dom.action(name)
        if schema is not None:
            if schema.actor != agent:
                return schema
            continue
        for m in dom.methods_for(name):
            if len(m.params) == arity:
                for st in m.subtasks:
                    key = (st.name, len(st.args))
                    if key not in seen:
                        seen.add(key)
                        todo.append(key)
    return None


# --------------------------------------------------------------------------
# Problem parsing


class _ProblemParser(_Parser):
    def __init__(self, text: str, dom: DomainModel, filename: str):
        super().__init__(text, filename)
        self.dom = dom

    def parse(self) -> ProblemInstance:
        self.expect_keyword("problem")
        name = self.expect_ident("a problem name")
        self.expect_punct("{")
        domain_name: str | None = None
        k: int | None = None
        comm: bool | None = None
        robot_place: str | None = None
        human_place: str | None = None
        task_r: Task | None = None
        task_h: Task | None = None
        init_atoms: list[Literal] = []
        deltas: list[tuple[Literal, tuple[int, int]]] = []

        while not self.at_punct("}"):
            tok = self.peek()
            if tok[0] == "eof":
                raise self.error(tok, "unterminated problem block")
            if self.at_keyword("domain"):
                self.next()
                self._remember("line", "domain", tok)
                domain_name = self.expect_ident("a domain name")[1]
                if domain_name != self.dom.name:
                    raise self.error(tok, f"problem references domain {domain_name!r}, "
                                          f"but {self.dom.name!r} was loaded")
            elif self.at_keyword("k"):
                self.next()
                self._remember("line", "k", tok)
                num = self.next()
                # ``int()`` takes only decimal digits; the lexer also reads
                # ``²`` as one.
                if num[0] != "int" or not num[1].lstrip("-").isdecimal():
                    raise self.error(num, "expected an integer after 'k'")
                k = int(num[1])
                if k < 0:
                    raise self.error(num, "k must be >= 0")
            elif self.at_keyword("communication"):
                self.next()
                self._remember("line", "communication", tok)
                mode = self.expect_ident("'on' or 'off'")
                if mode[1] not in ("on", "off"):
                    raise self.error(mode, "communication must be 'on' or 'off'")
                comm = mode[1] == "on"
            elif self.at_keyword("robot") or self.at_keyword("human"):
                who = self.next()
                self._remember("line", f"{who[1]} at", tok)
                self.expect_keyword("at")
                place = self.expect_ident("a place")
                if self.dom.constant_type(place[1]) != "place":
                    raise self.error(place, f"unknown place {place[1]!r}")
                if who[1] == "robot":
                    robot_place = place[1]
                else:
                    human_place = place[1]
            elif self.at_keyword("task"):
                self.next()
                actor = self.expect_ident("R or H")
                if actor[1] not in AGENTS:
                    raise self.error(actor, "task actor must be R or H")
                self._remember("line", f"task {actor[1]}", tok)
                t, head = self.parse_task()
                if t.name not in self.dom.task_names() and self.dom.action(t.name) is None:
                    raise self.error(head, f"root task {t.name!r} is not declared in the domain")
                self._check_ground_args(t.args, head)
                why = _argument_type_error(self.dom, t, {})
                if why is not None:
                    raise self.error(head, f"root task {why}")
                # An agenda is refined for its owner alone, so it may reach
                # only that agent's actions.
                foreign = _foreign_action(self.dom, t, actor[1])
                if foreign is not None:
                    raise self.error(head, f"root task {t.name!r} of {actor[1]} decomposes to "
                                           f"{foreign.name!r}, an action of {foreign.actor}")
                if actor[1] == "R":
                    task_r = t
                else:
                    task_h = t
            elif self.at_keyword("init"):
                self.next()
                self.expect_punct("{")
                while not self.at_punct("}"):
                    if self.peek()[0] == "eof":
                        raise self.error(self.peek(), "unterminated init block")
                    l, head = self.parse_literal()
                    if not l.positive:
                        raise self.error(head, "init atoms must be positive (closed world)")
                    if l.pred == "at" and l.args and l.args[0] in AGENTS:
                        raise self.error(head, "agent positions are set by the "
                                               "'robot at'/'human at' lines, not init")
                    self._check_ground_literal(l, head)
                    init_atoms.append(l)
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("}")
            elif self.at_keyword("believe"):
                self.next()
                l, head = self.parse_literal()
                self._check_ground_literal(l, head)
                self._remember("believe", str(l.atom), head, f"belief about {l.atom}")
                deltas.append((l, _position(self.text, tok[2])))
            else:
                raise self.error(tok, f"unexpected {tok[1]!r} in problem block")
        self.expect_punct("}")

        missing = [label for label, v in (
            ("domain", domain_name), ("k", k), ("communication", comm),
            ("robot place", robot_place), ("human place", human_place),
            ("task R", task_r), ("task H", task_h),
        ) if v is None]
        if missing:
            raise self.error(self.peek(), "problem is missing: " + ", ".join(missing))

        deltas.sort(key=lambda d: str(d[0]))
        truth = BeliefBase(frozenset(init_atoms)
                           | {Literal("at", ("R", robot_place)), Literal("at", ("H", human_place))})
        return ProblemInstance(
            name=name[1],
            domain_name=domain_name,
            k=k,
            comm_allowed=comm,
            robot_place=robot_place,
            human_place=human_place,
            root_task_r=task_r,
            root_task_h=task_h,
            ground_truth=truth,
            belief_deltas=tuple(l for l, _ in deltas),
            belief_at=tuple(at for _, at in deltas),
        )

    def _check_ground_args(self, args: tuple[str, ...], head: _Token) -> None:
        for arg in args:
            if is_variable(arg):
                raise self.error(head, f"problem declarations must be ground, found variable {arg!r}")
            if self.dom.constant_type(arg) is None:
                raise self.error(head, f"unknown object {arg!r}")

    def _check_ground_literal(self, l: Literal, head: _Token) -> None:
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
    """Warnings about conventions a parsed model may break, against
    ``filename``, and a note for each initial false belief of ``prob``'s
    human, at its ``believe`` in ``problem_file``.  Never an error: the
    parser rejects every malformed model with a positioned diagnostic."""
    out: list[Diagnostic] = []

    def warn(msg: str) -> None:
        out.append(Diagnostic(filename, 0, 0, "warning", msg))

    ruled = {r.target.pred for r in dom.rules}
    for p in dom.predicates:
        if p.observable and p.name not in ruled:
            warn(f"observable predicate {p.name!r} has no knowledge rule")
    for l in dom.copresence:
        if l.pred != "at":
            warn(f"copresent rule references {l.pred!r}; only agent positions are conventional")

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
