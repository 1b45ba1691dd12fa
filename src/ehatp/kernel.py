"""Belief dynamics: how joint states evolve when an agent acts.

A state holds the worlds the human cannot tell apart.  When the robot acts
out of the human's sight, every world also runs the action the human *would*
expect there, so the state accumulates one hypothesis per plausible course
of action.  When the human can see the robot, witnessing an action rules out
every hypothesis that cannot produce that same action, and shared
observations are folded back into the human-side belief bases.

The step computes on a world's masks.  Co-presence is judged once per truth
mask per call, and observability is ground once per atom bit.
"""

from __future__ import annotations

import os
import sys

from .dsl import OBSERVER, DomainModel, GroundAction, ProblemInstance
from .htn import Refinement, advance, feasible_refinements
from .model import (
    EpistemicState,
    Frozen,
    Literal,
    TaskNetwork,
    World,
    atoms_of,
    slot_setters,
    unify,
    world_from,
)


_LOG = "EHATP_LOG"  # also the memo key of the flag
_COPRESENT = "copresent"  # memo key of the domain rule's answers by truth mask


def with_call_memo(dom: DomainModel) -> DomainModel:
    """``dom`` with a fresh memo for one search or replay, holding the
    ``EHATP_LOG`` flag as the call starts and co-presence by truth mask;
    ``dom`` itself when it has such a memo, so a call made inside shares it."""
    if _LOG in dom.memo:
        return dom
    dom = dom.with_fresh_memo()
    dom.memo[_LOG] = os.environ.get(_LOG, "")
    dom.memo[_COPRESENT] = {}
    return dom


def trace_enabled(dom: DomainModel, channel: str) -> bool:
    flag = dom.memo.get(_LOG)
    if flag is None:  # a direct kernel call on a parsed domain
        flag = os.environ.get(_LOG, "")
    return flag == channel or flag == "all"


_MISS = object()


class Event(Frozen):
    """One possible occurrence: an action (or None for doing nothing) in one
    source world.  ``remainder`` is the acting agent's agenda afterwards.

    Compared by identity: a world's anticipated events are built once per
    memo, and product update keys their successors on the event itself.
    """

    __slots__ = ("action", "source", "designated", "remainder")
    action: GroundAction | None
    source: World
    designated: bool
    remainder: TaskNetwork

    def __init__(self, action: GroundAction | None, source: World, designated: bool,
                 remainder: TaskNetwork = ()) -> None:
        _e_action(self, action)
        _e_source(self, source)
        _e_designated(self, designated)
        _e_remainder(self, remainder)


_e_action, _e_source, _e_designated, _e_remainder = slot_setters(Event)


class EpistemicAction(Frozen):
    """The events one step may be, one of them designated, and the rule that
    decides whether the human watches it.  Compared by identity."""

    __slots__ = ("events", "copresence", "actor")
    events: tuple[Event, ...]
    copresence: tuple[Literal, ...]
    actor: str

    def __init__(self, events: tuple[Event, ...], copresence: tuple[Literal, ...],
                 actor: str) -> None:
        _a_events(self, events)
        _a_copresence(self, copresence)
        _a_actor(self, actor)

    @property
    def designated_event(self) -> Event:
        return next(e for e in self.events if e.designated)


_a_events, _a_copresence, _a_actor = slot_setters(EpistemicAction)


# --------------------------------------------------------------------------
# Ground-truth queries, as mask tests over instances ground once per domain


def _compiled(sols: list[tuple]) -> tuple[tuple[int, int], ...]:
    """``(need, forbid)`` instances of ``dom.instances`` solutions."""
    return tuple((need, forbid) for _, need, forbid in sols)


def _holds(instances: tuple, mask: int) -> bool:
    """Whether some instance holds in a base with this mask."""
    for need, forbid in instances:
        if mask & need == need and not mask & forbid:
            return True
    return False


def _copresent(dom: DomainModel, truth: int, rule: tuple[Literal, ...]) -> bool:
    """Whether the agents share each other's presence when reality has mask
    ``truth``.  The rule's instances are ground once per domain with the
    rule as the key, so an action carrying its own rule never reads the
    domain's; under the domain's rule, a call memo keeps each truth's answer.
    """
    known = dom.memo.get(_COPRESENT) if rule is dom.copresence else None
    co = known.get(truth) if known is not None else None
    if co is None:
        instances = dom.table.get(rule)
        if instances is None:
            instances = dom.table[rule] = _compiled(dom.instances(rule, {}))
        co = _holds(instances, truth)
        if known is not None:
            known[truth] = co
    return co


def state_copresent(dom: DomainModel, s: EpistemicState) -> bool:
    return _copresent(dom, s.designated_world.mask_r, dom.copresence)


def _observable(dom: DomainModel, bit: int, truth: int) -> bool:
    """Can the human settle the truth of the atom of ``bit`` when reality
    has mask ``truth``?

    An observable predicate's atom is in view when the antecedent of some
    knowledge rule whose target names it holds, with the observer bound to
    the human; the instances are those of every such rule, in rule order,
    ground once per bit for the life of ``dom.table``.
    """
    instances = dom.table.get(bit)
    if instances is None:
        (atom,) = atoms_of(bit)
        sols: list[tuple] = []
        decl = dom.predicate(atom.pred)
        if decl is not None and decl.observable:
            for rule in dom.rules:
                binding = unify(rule.target, atom)
                if binding is not None:
                    binding[OBSERVER] = "H"
                    sols += dom.instances(rule.antecedent, binding)
        instances = dom.table[bit] = _compiled(sols)
    return _holds(instances, truth)


# --------------------------------------------------------------------------
# Building an epistemic action


def initial_state(dom: DomainModel, prob: ProblemInstance) -> EpistemicState:
    """Single-world start: truthful, with the human's stated divergences."""
    h = prob.initial_mask_h
    w = world_from(None, prob.ground_truth.mask, h, h, (prob.root_task_r,),
                   (prob.root_task_h,), (prob.root_task_r,), 0)
    return EpistemicState.make([w], w, actor="H", budget=prob.k)


def build_epistemic_action(dom: DomainModel, s: EpistemicState,
                           choice: Refinement | None, k: int) -> EpistemicAction:
    """Lift one concrete choice of the current actor into an epistemic action.

    For the robot, ``choice`` is its real refinement (None to stand by); every
    world additionally contributes the anticipated alternatives the human
    cannot rule out there, plus standing by.  For the human, acting is public
    and uniform, so each world carries the same event.
    """
    events: list[Event] = []
    if s.actor == "H":
        for i, w in enumerate(s.worlds):
            if choice is None:
                events.append(Event(None, w, i == s.designated, w.tn_h))
            else:
                events.append(Event(choice.first_primitive, w,
                                    i == s.designated, choice.remainder))
        return EpistemicAction(tuple(events), dom.copresence, "H")

    d = s.designated_world
    if choice is None:
        events.append(Event(None, d, True, d.tn_r))
    else:
        events.append(Event(choice.first_primitive, d, True, choice.remainder))
    co = state_copresent(dom, s)
    for w in s.worlds:
        allow = co or w.acted < k
        key = ("anticipate", w, allow)
        anticipated = dom.memo.get(key)
        if anticipated is None:
            refs = feasible_refinements(dom, w.tn_rh, w.mask_rh) if allow else ()
            anticipated = [Event(r.first_primitive, w, False, r.remainder)
                           for r in refs]
            anticipated.append(Event(None, w, False, w.tn_rh))
            anticipated = dom.memo[key] = tuple(anticipated)
        events.extend(anticipated)
    return EpistemicAction(tuple(events), dom.copresence, "R")


# --------------------------------------------------------------------------
# Product update


def _same_act(a: GroundAction | None, b: GroundAction | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.name == b.name and a.args == b.args


def _successor(dom: DomainModel, w: World, e: Event, actor: str,
               mark: bool) -> World | None:
    """The world ``e`` makes of ``w`` (marked distinguishable if ``mark``),
    or None when its action is inapplicable there."""
    act = e.action
    if act is None:
        return world_from(w, w.mask_r, w.mask_h, w.mask_rh, w.tn_r, w.tn_h, w.tn_rh,
                          w.acted, True) if mark else w
    mask = w.mask_h if actor == "H" else w.mask_r if e.designated else w.mask_rh
    if mask & act.need != act.need or mask & act.forbid:
        return None
    keep, add = ~act.drop, act.add
    mask_h, mask_rh = (w.mask_h & keep) | add, (w.mask_rh & keep) | add
    if actor == "H":
        return world_from(w, (w.mask_r & keep) | add, mask_h, mask_rh,
                          w.tn_r, e.remainder, w.tn_rh, w.acted)
    if e.designated:
        return world_from(w, (w.mask_r & keep) | add, mask_h, mask_rh, e.remainder, w.tn_h,
                          advance(dom, w.tn_rh, act, w.mask_rh), w.acted + 1)
    # Hypothetical course: its ground truth is the human's projection.
    return world_from(w, mask_rh, mask_h, mask_rh, e.remainder, w.tn_h, e.remainder,
                      w.acted + 1, mark)


def product_update(dom: DomainModel, s: EpistemicState,
                   a: EpistemicAction) -> EpistemicState:
    """Cross worlds with events; the designated pair tracks what really happens.

    While the agents share a place, witnessing settles the robot's move: a
    successor whose event differs from the designated action is marked for
    removal at the next assessment.  A hidden ontic robot action spends one
    unit of budget; the search offers such a step only with budget left.
    """
    d_event = a.designated_event
    co = _copresent(dom, d_event.source.mask_r, a.copresence)

    budget = s.budget
    if a.actor == "R" and d_event.action is not None and not co:
        budget -= 1

    # A hypothetical successor is a function of its source world and event:
    # a robot event object (built once per memo) with its witnessed mark, or
    # a human action's content, which ``(name, args)`` fixes in one domain.
    successors: list[World] = []
    new_designated: World | None = None
    for e in a.events:
        if e.designated:
            child = new_designated = _successor(dom, e.source, e, a.actor, False)
        else:
            mark = a.actor == "R" and co and not _same_act(e.action, d_event.action)
            if a.actor == "R":
                key = (e, mark)
            else:
                act = e.action and (e.action.name, e.action.args)
                key = ("human", e.source, act, e.remainder)
            child = dom.memo.get(key, _MISS)
            if child is _MISS:
                child = dom.memo[key] = _successor(dom, e.source, e, a.actor, mark)
            if child is None:
                continue
        successors.append(child)
    assert new_designated is not None
    other = "H" if a.actor == "R" else "R"
    return EpistemicState.make(successors, new_designated, actor=other,
                               budget=budget, pending=s.pending)


# --------------------------------------------------------------------------
# Situation assessment


def situation_assessment(dom: DomainModel, s: EpistemicState, k: int) -> EpistemicState:
    """Remove worlds the human can now tell apart; share what is in view.

    A world goes when it was marked while being watched, or when it disagrees
    with reality on some atom the human can currently observe.  Observable
    atoms are then folded into the surviving human-side bases, and a reunion
    restores the robot's action budget.
    """
    d = s.designated_world
    truth = d.mask_r
    # Whether an atom is observable depends only on the atom and reality, so
    # each atom is judged once per truth mask for the whole call.  ``seen``
    # holds the atoms judged so far and those found in view.
    key = ("seen", truth)
    seen = dom.memo.get(key)
    if seen is None:
        seen = dom.memo[key] = [0, 0]
    co_present = _copresent(dom, truth, dom.copresence)

    def visible(mask: int) -> int:
        judged, in_view = seen
        fresh = mask & ~judged
        if fresh:
            seen[0] = judged | fresh
            while fresh:
                bit = fresh & -fresh
                if _observable(dom, bit, truth):
                    in_view |= bit
                fresh ^= bit
            seen[1] = in_view
        return mask & in_view

    survivors: list[World] = []
    removed: list[tuple[World, int]] = []
    for w in s.worlds:
        clash = 0 if w is d or w.distinguishable else visible(truth ^ w.mask_rh)
        if w is not d and (clash or w.distinguishable):
            removed.append((w, clash))
        else:
            survivors.append(w)

    if trace_enabled(dom, "sa"):
        # Worlds by their text, which every process spells the same way.
        for text, reason in sorted(
                (w.describe(), min(map(str, atoms_of(clash))) if clash else "witness")
                for w, clash in removed):
            print(f"SA: removed {text} reason={reason}", file=sys.stderr)

    if not removed and not co_present:
        return s

    # A fold depends on the world and on ``truth``, which fixes co-presence.
    folded: list[World] = []
    designated_out: World | None = None
    for w in survivors:
        key = ("fold", w, truth)
        child = dom.memo.get(key)
        if child is None:
            shown = visible(truth | w.mask_h | w.mask_rh)
            told = truth & shown
            child = dom.memo[key] = world_from(
                w, w.mask_r, (w.mask_h & ~shown) | told, (w.mask_rh & ~shown) | told,
                w.tn_r, w.tn_h, w.tn_rh, 0 if co_present else w.acted)
        folded.append(child)
        if w is d:
            designated_out = child
    assert designated_out is not None
    budget = k if co_present else s.budget
    return EpistemicState.make(folded, designated_out, actor=s.actor,
                               budget=budget, pending=s.pending)
