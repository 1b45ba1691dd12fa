"""Task-network decomposition against a single belief base, given as its mask.

A task network is a totally ordered agenda of :class:`~ehatp.model.Task`
instances.  Refining a network means expanding abstract tasks through
methods (binding any free method variables against the belief base) until
an applicable primitive action surfaces at the front.  Every distinct way
of doing so yields one :class:`Refinement` carrying the first primitive,
the agenda that remains once it executes, and the preconditions checked on
the way.  A refinement is known by its first primitive and remainder
alone, and it does not record which methods were chosen to reach them.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .dsl import DomainModel, GroundAction
from .model import Frozen, Literal, Task, TaskNetwork, atoms_of, known_bit, slot_setters


class Refinement(Frozen):
    """One way to start an agenda: its first primitive, the agenda left once
    that runs, and the preconditions checked on the way.  Equal when all
    three fields are."""

    __slots__ = ("first_primitive", "remainder", "pres")
    _compared = __slots__
    first_primitive: GroundAction
    remainder: TaskNetwork
    # the mask of every precondition atom checked on the way to the first
    # primitive (method preconditions along the decomposition path, then the
    # action's), whether it was required or forbidden
    pres: int

    def __init__(self, first_primitive: GroundAction, remainder: TaskNetwork,
                 pres: int) -> None:
        _r_first_primitive(self, first_primitive)
        _r_remainder(self, remainder)
        _r_pres(self, pres)

    def key(self) -> tuple:
        return (self.first_primitive.name, self.first_primitive.args, self.remainder)

    def __str__(self) -> str:
        rest = ", ".join(str(t) for t in self.remainder)
        return f"{self.first_primitive} :: [{rest}]"


_r_first_primitive, _r_remainder, _r_pres = slot_setters(Refinement)


class Answer(NamedTuple):
    """Everything one walk learns about an agenda under a base, in the forms
    its callers read: the refinements, whether the agenda can reach empty,
    the refinements' keys, their first primitives as ``(name, args)``, and
    the union of their ``pres``."""

    refinements: tuple[Refinement, ...]
    done: bool
    keys: frozenset[tuple]
    firsts: frozenset[tuple[str, tuple[str, ...]]]
    pres: int


def feasible_refinements(dom: DomainModel, tn: TaskNetwork,
                         mask: int) -> tuple[Refinement, ...]:
    """Every way to decompose ``tn`` down to an applicable first action.

    The result is exhaustive over method choices and deterministic; an
    empty tuple means the agenda's owner cannot act on it under ``mask``.
    Every action it reaches belongs to that one owner: the parser rejects a
    root task that decomposes to the other agent's action.
    """
    return answers(dom, tuple(tn), mask).refinements


def effectively_decomposed(dom: DomainModel, tn: TaskNetwork, mask: int) -> bool:
    """True iff the agenda can reach empty through zero-primitive methods:
    nothing is left that would require its owner to act under ``mask``."""
    return answers(dom, tuple(tn), mask).done


def _ground(dom: DomainModel, head: Task) -> GroundAction | tuple:
    """``head`` ground once for the life of ``dom.table``: an action's
    ``GroundAction``, or the instances of an abstract task's methods.

    A method instance is ``(need, forbid, subtasks)``: it applies to a
    base that passes the mask pair, expanding ``head`` into the ground
    ``subtasks``.
    """
    schema = dom.action(head.name)
    if schema is not None:
        entry = dom.table[head] = schema.ground(head.args)
        return entry
    out = []
    shared: dict = {}  # one object for each equal tuple of subtasks
    for m in dom.methods_for(head.name):
        if len(m.params) != len(head.args):
            continue
        params = dict(zip((p.name for p in m.params), head.args))
        for b, need, forbid in dom.instances(m.pre, params):
            subs = tuple(Task(t.name, tuple(b.get(a, a) for a in t.args))
                         for t in m.subtasks)
            out.append((need, forbid, shared.setdefault(subs, subs)))
    entry = dom.table[head] = tuple(out)
    return entry


def relevant(dom: DomainModel, tn: TaskNetwork) -> int:
    """The mask of every atom a walk of ``tn`` can test: the ``need |
    forbid`` of each action and method instance reachable from its first
    task, and from each later task when every task before it has a chain of
    methods that reaches no primitive (the walk gets past a task only by
    emptying it).  Two bases that agree on these atoms get the same answer
    from `answers`."""
    table = dom.table
    mask = 0
    for task in tn:
        entry = table.get(("relevant", task))
        if entry is None:
            entry = _relevant_task(dom, task)
        mask |= entry[0]
        if not entry[1]:
            break
    return mask


def _relevant_task(dom: DomainModel, head: Task) -> tuple[int, bool]:
    """``(mask, empties)`` for one ground task, kept in ``dom.table`` under
    ``("relevant", task)``: the atoms a walk can test while it expands the
    task (a method instance's own pair, then its subtasks' masks up to and
    including the first that cannot empty), and whether some chain of its
    methods reaches no primitive at all.  Filled children first from an
    explicit stack, so a method chain deeper than the interpreter's
    recursion limit costs no recursion; the parser rejects recursive
    decompositions, so the ground tasks form a DAG."""
    table = dom.table
    todo = [head]
    while todo:
        task = todo[-1]
        if ("relevant", task) in table:
            todo.pop()
            continue
        entry = table.get(task)
        if entry is None:
            entry = _ground(dom, task)
        if type(entry) is GroundAction:
            table[("relevant", task)] = (entry.need | entry.forbid, False)
            todo.pop()
            continue
        missing = [sub for _, _, subs in entry for sub in subs
                   if ("relevant", sub) not in table]
        if missing:
            todo += missing
            continue
        mask, empties = 0, False
        for need, forbid, subs in entry:
            mask |= need | forbid
            chain = True
            for sub in subs:
                sub_mask, sub_empties = table[("relevant", sub)]
                if chain:
                    mask |= sub_mask
                chain = chain and sub_empties
            empties = empties or chain
        table[("relevant", task)] = (mask, empties)
        todo.pop()
    return table[("relevant", head)]


def answers(dom: DomainModel, tn: TaskNetwork, mask: int) -> Answer:
    """``_walk(dom, tn, mask)``, computed once per ``dom.memo`` and per
    projection of ``mask`` onto `relevant` atoms: a repeat within one search
    or replay, another question about the same agenda and base, or a base
    that differs only in atoms no walk of ``tn`` tests, is answered from the
    memo.  Both the exact and the projected ``("htn", tn, mask)`` keys hold
    the record."""
    memo = dom.memo
    key = ("htn", tn, mask)
    hit = memo.get(key)
    if hit is None:  # the walk never answers None
        projected = mask & relevant(dom, tn)
        shared = ("htn", tn, projected)
        hit = memo.get(shared)
        if hit is None:
            hit = memo[shared] = _walk(dom, tn, projected)
        memo[key] = hit
    return hit


def _walk(dom: DomainModel, tn: TaskNetwork, mask: int) -> Answer:
    """``tn``'s refinements under ``mask``, and whether it can reach empty,
    from one depth-first walk over the applicable method instances."""
    table = dom.table
    results: dict[tuple, Refinement] = {}
    done = False
    frontier: list[tuple[TaskNetwork, int]] = [(tn, 0)]
    while frontier:
        agenda, acc = frontier.pop()
        if not agenda:
            done = True
            continue
        head, rest = agenda[0], agenda[1:]
        entry = table.get(head)
        if entry is None:
            entry = _ground(dom, head)
        if type(entry) is GroundAction:
            need, forbid = entry.need, entry.forbid
            if mask & need == need and not mask & forbid:
                key = (entry.name, entry.args, rest)
                if key not in results:
                    results[key] = Refinement(entry, rest, acc | need | forbid)
            continue
        for need, forbid, subs in entry:
            if mask & need == need and not mask & forbid:
                frontier.append((subs + rest, acc | need | forbid))
    refs = list(results.values())
    if len(refs) > 1:
        refs.sort(key=lambda r: (r.first_primitive.text, tuple(map(str, r.remainder))))
    pres = 0
    for r in refs:
        pres |= r.pres
    return Answer(tuple(refs), done, frozenset(results),
                  frozenset([key[:2] for key in results]), pres)


def advance(dom: DomainModel, tn: TaskNetwork, act: GroundAction,
            mask: int) -> TaskNetwork:
    """The agenda remaining after executing ``act`` as the first primitive
    of one of ``tn``'s feasible refinements, or ``tn`` itself when ``act``
    is not derivable from it (an agenda ascribed to the robot that the
    robot's real step does not follow)."""
    for r in feasible_refinements(dom, tn, mask):
        if r.first_primitive.name == act.name and r.first_primitive.args == act.args:
            return r.remainder
    return tn


def alignment_diff(dom: DomainModel, mask_r: int, tn_r: TaskNetwork,
                   mask_rh: int, tn_rh: TaskNetwork) -> frozenset[Literal] | None:
    """Minimal facts to transfer from ``mask_r`` into ``mask_rh`` so that
    both perspectives agree on the set of first primitives the robot may take.

    Candidates come from the symmetric difference of the two bases, each
    stated with ``mask_r``'s polarity; subsets of the candidates that a walk
    of ``tn_rh`` can test (`relevant`) are tried in increasing size
    (capped at 4, then falling back to the precondition-relevant part of
    the full difference).  None when no transfer can reconcile structurally
    diverged agendas.
    """
    target = answers(dom, tn_r, mask_r).firsts

    def aligned(mask: int) -> bool:
        return answers(dom, tn_rh, mask).firsts == target

    if aligned(mask_rh):
        return frozenset()

    # Transferring the whole difference makes the two bases equal.
    if not aligned(mask_r):
        return None

    candidates = sorted(atoms_of(mask_r ^ mask_rh), key=str)
    bits = {a: known_bit(a) for a in candidates}

    def transfer(subset) -> int:  # each bit of the difference flips to mask_r's
        return mask_rh ^ sum(bits[a] for a in subset)

    def stated(subset) -> frozenset[Literal]:
        return frozenset(a if mask_r & bits[a] else a.negate() for a in subset)

    # An atom no walk of ``tn_rh`` tests cannot change whether a transfer
    # aligns, so the first aligned subset holds none: trying the relevant
    # candidates alone, in their order, finds the same subset sooner.
    rel = relevant(dom, tn_rh)
    tested = [a for a in candidates if bits[a] & rel]
    for size in range(1, min(4, len(tested)) + 1):
        for subset in itertools.combinations(tested, size):
            if aligned(transfer(subset)):
                return stated(subset)

    # Method gates on the way as well as the actions' own.
    pres = answers(dom, tn_r, mask_r).pres | answers(dom, tn_rh, mask_rh).pres
    fallback = [a for a in candidates if bits[a] & pres]
    if fallback and aligned(transfer(fallback)):
        return stated(fallback)
    return stated(candidates)
