"""Shorthand shared by the test suites."""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping

from ehatp.dsl import OBSERVER, Diagnostic, DomainModel, ParseError, ProblemInstance
from ehatp.htn import advance
from ehatp.model import (
    AGENTS,
    BeliefBase,
    EpistemicState,
    Literal,
    MalformedLiteralError,
    World,
    atom_bit,
    atoms_of,
    effect_masks,
    is_variable,
    known_bit,
    unify,
)
from ehatp.solver import Policy, PolicyNode


class UnboundError(Exception):
    """A literal the first-order reference cannot solve: a negative one, or
    a subtask, with a variable nothing has bound."""


def lit(text: str, *args: str, positive: bool = True) -> Literal:
    """Literal shorthand: ``lit("on", "c_r", "mt")`` or ``lit("not on(c_r, mt)")``."""
    if args or ("(" not in text and not text.startswith("not ")):
        return Literal(text, tuple(args), positive)
    s = text.strip()
    if s.startswith("not "):
        positive = False
        s = s[4:].strip()
    m = re.fullmatch(r"(\w+)\s*(?:\(\s*([^()]*?)\s*\))?", s)
    if m is None:
        raise MalformedLiteralError(f"cannot parse literal: {text!r}")
    argstr = m.group(2)
    parts = tuple(a.strip() for a in argstr.split(",")) if argstr else ()
    return Literal(m.group(1), parts, positive)


def base_of(*literals: Literal) -> BeliefBase:
    """A belief base holding ``literals``: ``base_of(lit("p"), lit("q"))``."""
    return BeliefBase(literals)


def applied(base: BeliefBase, adds: Iterable[Literal], dels: Iterable[Literal]) -> BeliefBase:
    """``base`` after effects with these add and delete literals, as product
    update applies an action's masks to a world's: drop, then add."""
    add, drop = effect_masks(adds, dels)
    return BeliefBase.from_mask((base.mask & ~drop) | add)


def assigned(base: BeliefBase, atom: Literal, value: bool) -> BeliefBase:
    """``base`` with ``atom`` forced to ``value``, as a speech act or the
    human's initial divergences force one on a mask: set through
    ``atom_bit``, cleared through ``known_bit``, which interns nothing."""
    if value:
        return BeliefBase.from_mask(base.mask | atom_bit(atom))
    return BeliefBase.from_mask(base.mask & ~known_bit(atom))


def cold(dom: DomainModel) -> DomainModel:
    """A copy of ``dom`` with its own empty ``table`` and ``memo``: nothing is
    ground yet, whatever the process has ground for equal declarations."""
    dom = dom.with_fresh_memo()
    object.__setattr__(dom, "table", {})
    return dom


def agent_place(w: World) -> dict[str, str]:
    """The place of each agent in ``w``'s ground truth; raises
    `MalformedLiteralError` at the first ``at`` atom, in bit order, that
    puts an agent at a second place."""
    places: dict[str, str] = {}
    for a in atoms_of(w.bel_r.mask):
        if a.pred == "at" and len(a.args) == 2 and a.args[0] in AGENTS:
            agent, place = a.args
            if agent in places and places[agent] != place:
                raise MalformedLiteralError(
                    f"agent {agent} is at both {places[agent]} and {place}"
                )
            places[agent] = place
    return places


def drop_edge(policy: Policy, node_id: int) -> Policy:
    """A copy of ``policy`` without the edge into ``node_id`` (the subtree
    behind it becomes unreachable)."""
    return Policy([
        PolicyNode(n.id, n.kind, n.actor, n.edge, n.copresent,
                   [c for c in n.children if c != node_id])
        for n in policy.nodes])


def traces(policy: Policy) -> list[tuple[str, ...]]:
    """Every root-to-leaf sequence of edge labels, leftmost branch first."""
    out: list[tuple[str, ...]] = []
    stack: list[tuple[int, tuple[str, ...]]] = [(0, ())]
    while stack:
        idx, acc = stack.pop()
        children = policy.nodes[idx].children
        if not children:
            out.append(acc)
        stack.extend((cid, acc + (policy.nodes[cid].edge,))
                     for cid in reversed(children))
    return out


# --------------------------------------------------------------------------
# The character-at-a-time lexer `dsl._tokenize` is checked against


def tokenize_reference(text: str, filename: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` of every token, ending with ``eof``; raises
    the lexer's `ParseError` at the first character that starts no token."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "{}(),:":
            tokens.append(("punct", c, line, col))
            i += 1
            col += 1
        elif c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            start, start_col = i, col
            i += 1
            col += 1
            while i < n and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(("int", text[start:i], line, start_col))
        elif c.isalpha() or c == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(("ident", text[start:i], line, start_col))
        else:
            raise ParseError(Diagnostic(filename, line, col, "error", f"unexpected character {c!r}"))
    tokens.append(("eof", "", line, col))
    return tokens


# --------------------------------------------------------------------------
# The first-order reference the compiled mask tests are checked against


def match(bel: BeliefBase, literals: Iterable[Literal],
          binding: Mapping[str, str] | None = None) -> Iterator[dict[str, str]]:
    """Bindings of the free variables under which ``bel`` entails every
    literal, each extending ``binding``.

    Literals are solved left to right; a free positive literal is matched
    against the base's atoms in the order of their strings.  A negative
    literal must be ground once the literals before it are bound.
    """
    solutions = [dict(binding) if binding else {}]
    for l in literals:
        nxt: list[dict[str, str]] = []
        for b in solutions:
            g = l.substitute(b) if b else l
            free = [a for a in g.args if is_variable(a)]
            if not free:
                if bel.entails(g):
                    nxt.append(b)
            elif g.positive:
                for atom in sorted(atoms_of(bel.mask), key=str):
                    trial = unify(g, atom, b)
                    if trial is not None:
                        nxt.append(trial)
            else:
                raise UnboundError(
                    f"negative literal {l} leaves variables {free} unbound")
        solutions = nxt
        if not solutions:
            return
    seen: set[tuple] = set()
    for b in solutions:
        key = tuple(sorted(b.items()))
        if key not in seen:
            seen.add(key)
            yield b


def copresent(w: World, rule: tuple[Literal, ...]) -> bool:
    """Whether the agents share each other's presence in ``w`` (ground truth)."""
    return next(match(w.bel_r, rule), None) is not None


def observable(dom: DomainModel, l: Literal, w: World) -> bool:
    """Can the human settle the truth of ``l`` in world ``w``?

    ``w`` supplies the ground truth the knowledge-rule antecedents are
    judged against.
    """
    atom = l.atom
    decl = dom.predicate(atom.pred)
    if decl is None or not decl.observable:
        return False
    for rule in dom.rules:
        binding = unify(rule.target, atom)
        if binding is None:
            continue
        binding[OBSERVER] = "H"
        if next(match(w.bel_r, rule.antecedent, binding), None) is not None:
            return True
    return False


def plain_uniform(walk, s: EpistemicState) -> list:
    """The human's refinements that exist in every world of ``s``, in the
    designated world's order, by one intersection per world: what
    `solver._uniform_human_refinements` returns.  ``walk(tn, mask)`` gives
    the record whose ``refinements`` an agenda has under a base."""
    per_world = [{r.key(): r for r in walk(w.tn_h, w.mask_h).refinements} for w in s.worlds]
    common = set(per_world[s.designated])
    for m in per_world:
        common &= set(m)
    return [r for key, r in per_world[s.designated].items() if key in common]


# --------------------------------------------------------------------------
# The plain step the kernel's memoized one is checked against


def plain_assessment(dom: DomainModel, s: EpistemicState, k: int) -> EpistemicState:
    """Situation assessment read straight off its definition, atom by atom
    over plain sets."""
    d = s.designated_world
    co = copresent(d, dom.copresence)

    def seen(atom: Literal) -> bool:
        return observable(dom, atom, d)

    truth = d.bel_r.atoms
    survivors = [w for w in s.worlds if w is d or (
        not w.distinguishable
        and not any(seen(a) for a in truth ^ w.bel_rh.atoms))]
    if len(survivors) == len(s.worlds) and not co:
        return s
    folded = []
    for w in survivors:
        shown = {a for a in truth | w.bel_h.atoms | w.bel_rh.atoms if seen(a)}
        folded.append(World(
            w.bel_r,
            BeliefBase((w.bel_h.atoms - shown) | (truth & shown)),
            BeliefBase((w.bel_rh.atoms - shown) | (truth & shown)),
            w.tn_r, w.tn_h, w.tn_rh, 0 if co else w.acted))
    return EpistemicState.make(folded, folded[survivors.index(d)], s.actor,
                               k if co else s.budget, s.pending)


def plain_product_update(dom: DomainModel, s: EpistemicState, a) -> EpistemicState:
    """Product update read straight off its definition: each event of the
    epistemic action ``a`` against its source world, over plain sets, with
    no memo.  While the agents share a place, a robot event whose action
    differs from the designated one yields a world marked distinguishable."""
    d_event = a.designated_event
    watched = a.actor == "R" and copresent(d_event.source, a.copresence)

    def same(x, y) -> bool:
        return (x and (x.name, x.args)) == (y and (y.name, y.args))

    worlds = []
    for e in a.events:
        w, act = e.source, e.action
        mark = watched and not e.designated and not same(act, d_event.action)
        if act is None:
            child = World(w.bel_r, w.bel_h, w.bel_rh, w.tn_r, w.tn_h, w.tn_rh,
                          w.acted, w.distinguishable or mark)
        else:
            base = (w.bel_h if a.actor == "H" else w.bel_r if e.designated
                    else w.bel_rh).atoms
            if not all((l.atom in base) == l.positive for l in act.pre):
                continue

            def apply(atoms: frozenset) -> BeliefBase:
                return BeliefBase((atoms - {l.atom for l in act.dels})
                                  | {l.atom for l in act.adds})

            h, rh = apply(w.bel_h.atoms), apply(w.bel_rh.atoms)
            if a.actor == "H":
                child = World(apply(w.bel_r.atoms), h, rh, w.tn_r, e.remainder,
                              w.tn_rh, w.acted)
            elif e.designated:
                child = World(apply(w.bel_r.atoms), h, rh, e.remainder, w.tn_h,
                              advance(dom, w.tn_rh, act, w.mask_rh), w.acted + 1)
            else:  # a hypothetical course: its truth is the human's projection
                child = World(rh, h, rh, e.remainder, w.tn_h, e.remainder,
                              w.acted + 1, mark)
        worlds.append(child)
        if e.designated:
            designated = child
    budget = s.budget
    if a.actor == "R" and d_event.action is not None and not watched:
        budget -= 1
    return EpistemicState.make(worlds, designated, actor="H" if a.actor == "R" else "R",
                               budget=budget, pending=s.pending)


# --------------------------------------------------------------------------
# Canonical text of a parsed model (round-trips through the parser)


def _fmt_literals(literals: Iterable[Literal]) -> str:
    return ", ".join(str(l) for l in literals)


def pretty_print_domain(dom: DomainModel) -> str:
    lines = [f"domain {dom.name} {{"]
    for t in dom.types:
        lines.append(f"  type {t}")
    for p in dom.places:
        lines.append(f"  place {p}")
    for name, typ in dom.objects:
        lines.append(f"  object {name} {typ}")
    for p in dom.predicates:
        lines.append(f"  predicate {p}")
    for r in dom.rules:
        lines.append(f"  rule {r.name}: {r.target} when {_fmt_literals(r.antecedent)}")
    lines.append(f"  copresent when {_fmt_literals(dom.copresence)}")
    for a in dom.actions:
        params = "" if not a.params else "(" + ", ".join(str(p) for p in a.params) + ")"
        lines.append(f"  action {a.name}{params} by {a.actor} at {a.place} {{")
        if a.pre:
            lines.append(f"    pre {_fmt_literals(a.pre)}")
        if a.adds:
            lines.append(f"    add {_fmt_literals(a.adds)}")
        if a.dels:
            lines.append(f"    del {_fmt_literals(a.dels)}")
        lines.append("  }")
    for m in dom.methods:
        params = "" if not m.params else "(" + ", ".join(str(p) for p in m.params) + ")"
        lines.append(f"  method {m.task}{params} {m.label} {{")
        if m.pre:
            lines.append(f"    pre {_fmt_literals(m.pre)}")
        if m.subtasks:
            lines.append(f"    sub {', '.join(str(t) for t in m.subtasks)}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"



def pretty_print_problem(prob: ProblemInstance) -> str:
    lines = [f"problem {prob.name} {{"]
    lines.append(f"  domain {prob.domain_name}")
    lines.append(f"  k {prob.k}")
    lines.append(f"  communication {'on' if prob.comm_allowed else 'off'}")
    lines.append(f"  robot at {prob.robot_place}")
    lines.append(f"  human at {prob.human_place}")
    lines.append(f"  task R {prob.root_task_r}")
    lines.append(f"  task H {prob.root_task_h}")
    lines.append("  init {")
    for atom in prob.ground_truth.canonical():
        if not atom.startswith("at(R,") and not atom.startswith("at(H,"):
            lines.append(f"    {atom}")
    lines.append("  }")
    for d in prob.belief_deltas:
        lines.append(f"  believe {d}")
    lines.append("}")
    return "\n".join(lines) + "\n"
