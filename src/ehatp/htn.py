"""Task-network decomposition against a single belief base, given as its mask.

A task network is a totally ordered agenda of :class:`~ehatp.model.Task`
instances.  Refining a network means expanding abstract tasks through
methods (binding any free method variables against the belief base) until
an applicable primitive action surfaces at the front.  Every distinct way
of doing so yields one :class:`Refinement` carrying the first primitive,
the agenda that remains once it executes, and the method labels chosen
along the way.
"""

from __future__ import annotations

import itertools

from .dsl import DomainModel, GroundAction
from .model import Frozen, Literal, Task, TaskNetwork, atoms_of, known_bit, slot_setters


class Refinement(Frozen):
    """One way to start an agenda: its first primitive, the agenda left once
    that runs, and the method labels chosen on the way.  Equal when all four
    fields are."""

    __slots__ = ("first_primitive", "remainder", "trace", "pres")
    _compared = __slots__
    first_primitive: GroundAction
    remainder: TaskNetwork
    trace: tuple[str, ...]
    # the mask of every precondition atom checked on the way to the first
    # primitive (method preconditions along the decomposition path, then the
    # action's), whether it was required or forbidden
    pres: int

    def __init__(self, first_primitive: GroundAction, remainder: TaskNetwork,
                 trace: tuple[str, ...], pres: int = 0) -> None:
        _r_first_primitive(self, first_primitive)
        _r_remainder(self, remainder)
        _r_trace(self, trace)
        _r_pres(self, pres)

    def key(self) -> tuple:
        return (self.first_primitive.name, self.first_primitive.args, self.remainder)

    def __str__(self) -> str:
        rest = ", ".join(str(t) for t in self.remainder)
        return f"{self.first_primitive} :: [{rest}]"


_r_first_primitive, _r_remainder, _r_trace, _r_pres = slot_setters(Refinement)


def feasible_refinements(dom: DomainModel, tn: TaskNetwork,
                         mask: int) -> tuple[Refinement, ...]:
    """Every way to decompose ``tn`` down to an applicable first action.

    The result is exhaustive over method choices and deterministic; an
    empty tuple means the agenda's owner cannot act on it under ``mask``.
    Every action it reaches belongs to that one owner: the parser rejects a
    root task that decomposes to the other agent's action.
    """
    return _answers(dom, tuple(tn), mask)[0]


def effectively_decomposed(dom: DomainModel, tn: TaskNetwork, mask: int) -> bool:
    """True iff the agenda can reach empty through zero-primitive methods:
    nothing is left that would require its owner to act under ``mask``."""
    return _answers(dom, tuple(tn), mask)[1]


def _ground(dom: DomainModel, head: Task) -> GroundAction | tuple:
    """``head`` ground once for the life of ``dom.table``: an action's
    ``GroundAction``, or the instances of an abstract task's methods.

    A method instance is ``(need, forbid, label, subtasks)``: it applies to a
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
            out.append((need, forbid, m.label, shared.setdefault(subs, subs)))
    entry = dom.table[head] = tuple(out)
    return entry


def _answers(dom: DomainModel, tn: TaskNetwork,
             mask: int) -> tuple[tuple[Refinement, ...], bool]:
    """``_walk(dom, tn, mask)``, computed once per ``dom.memo``: a repeat
    within one search or replay, or the other question about the same
    agenda and base, is answered from the memo."""
    key = ("htn", tn, mask)
    hit = dom.memo.get(key)
    if hit is None:  # the walk never answers None
        hit = dom.memo[key] = _walk(dom, tn, mask)
    return hit


def _walk(dom: DomainModel, tn: TaskNetwork,
          mask: int) -> tuple[tuple[Refinement, ...], bool]:
    """``tn``'s refinements under ``mask``, and whether it can reach empty,
    from one depth-first walk over the applicable method instances."""
    table = dom.table
    results: dict[tuple, Refinement] = {}
    done = False
    frontier: list[tuple[TaskNetwork, tuple[str, ...], int]] = [(tn, (), 0)]
    while frontier:
        agenda, trace, acc = frontier.pop()
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
                ref = Refinement(entry, rest, trace, acc | need | forbid)
                results.setdefault(ref.key(), ref)
            continue
        for need, forbid, label, subs in entry:
            if mask & need == need and not mask & forbid:
                frontier.append((subs + rest, trace + (label,), acc | need | forbid))
    return tuple(sorted(results.values(),
                        key=lambda r: (str(r.first_primitive),
                                       tuple(map(str, r.remainder)), r.trace))), done


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


def _first_primitive_set(dom: DomainModel, tn: TaskNetwork,
                         mask: int) -> frozenset[tuple[str, tuple[str, ...]]]:
    return frozenset((r.first_primitive.name, r.first_primitive.args)
                     for r in feasible_refinements(dom, tn, mask))


def alignment_diff(dom: DomainModel, mask_r: int, tn_r: TaskNetwork,
                   mask_rh: int, tn_rh: TaskNetwork) -> frozenset[Literal] | None:
    """Minimal facts to transfer from ``mask_r`` into ``mask_rh`` so that
    both perspectives agree on the set of first primitives the robot may take.

    Candidates come from the symmetric difference of the two bases, each
    stated with ``mask_r``'s polarity; subsets are tried in increasing size
    (capped at 4, then falling back to the precondition-relevant part of
    the full difference).  None when no transfer can reconcile structurally
    diverged agendas.
    """
    target = _first_primitive_set(dom, tn_r, mask_r)

    def aligned(mask: int) -> bool:
        return _first_primitive_set(dom, tn_rh, mask) == target

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

    for size in range(1, min(4, len(candidates)) + 1):
        for subset in itertools.combinations(candidates, size):
            if aligned(transfer(subset)):
                return stated(subset)

    relevant = 0  # method gates on the way as well as the actions' own
    for mask, tn in ((mask_r, tn_r), (mask_rh, tn_rh)):
        for r in feasible_refinements(dom, tn, mask):
            relevant |= r.pres
    fallback = [a for a in candidates if bits[a] & relevant]
    if fallback and aligned(transfer(fallback)):
        return stated(fallback)
    return stated(candidates)
