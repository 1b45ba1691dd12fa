"""Belief dynamics: how joint states evolve when an agent acts.

A state holds the worlds the human cannot tell apart.  When the robot acts
out of the human's sight, every world also runs the action the human *would*
expect there, so the state accumulates one hypothesis per plausible course
of action.  When the human can see the robot, witnessing an action rules out
every hypothesis that cannot produce that same action, and shared
observations are folded back into the human-side belief bases.

The step computes on a world's masks, one world at a time: a hidden world's
successors are one memoized tuple, looked up by the world's events and the
step's context, and assessment tests each world against one in-view mask per
truth.  Co-presence and the view are one kind of question, ground once per
domain and judged once per call for each projection of the truth onto the
atoms its instances test.
"""

from __future__ import annotations

import os
import sys
from itertools import chain

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
    world_from,
)


_LOG = "EHATP_LOG"  # also the memo key of the flag


def with_call_memo(dom: DomainModel) -> DomainModel:
    """``dom`` with a fresh memo for one search, replay or loaded policy
    file (``cli.read_policy_file``), holding the ``EHATP_LOG`` flag as the
    memo is made (the entry marks a call memo); ``dom`` itself when it has
    such a memo, so a call made inside one, or on the loaded policy, shares
    it."""
    if _LOG in dom.memo:
        return dom
    dom = dom.with_fresh_memo()
    dom.memo[_LOG] = os.environ.get(_LOG, "")
    return dom


def trace_enabled(dom: DomainModel, channel: str) -> bool:
    flag = dom.memo.get(_LOG)
    if flag is None:  # a direct kernel call on a parsed domain
        flag = os.environ.get(_LOG, "")
    return flag == channel or flag == "all"


class Event(Frozen):
    """One possible occurrence: an action (or None for doing nothing) in one
    source world.  ``remainder`` is the acting agent's agenda afterwards.

    Compared by identity: a world's group of events is built once per memo,
    and product update keys the group's successors on the events themselves.
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
    """The events one step may be, and the rule that decides whether the
    human watches it: the designated event, and the others grouped by source
    world, one tuple per world, in the order given.  Compared by identity."""

    __slots__ = ("designated_event", "groups", "copresence", "actor")
    designated_event: Event
    groups: tuple[tuple[Event, ...], ...]
    copresence: tuple[Literal, ...]
    actor: str

    def __init__(self, events: tuple[Event, ...], copresence: tuple[Literal, ...],
                 actor: str) -> None:
        by_source: dict[World, list[Event]] = {}
        for e in events:
            if not e.designated:
                by_source.setdefault(e.source, []).append(e)
        _fill_action(self, next(e for e in events if e.designated),
                     tuple(map(tuple, by_source.values())), copresence, actor)

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event: the designated one, then each group's."""
        return (self.designated_event, *chain.from_iterable(self.groups))


_a_designated, _a_groups, _a_copresence, _a_actor = slot_setters(EpistemicAction)


def _fill_action(a: EpistemicAction, designated: Event,
                 groups: tuple[tuple[Event, ...], ...],
                 copresence: tuple[Literal, ...], actor: str) -> EpistemicAction:
    _a_designated(a, designated)
    _a_groups(a, groups)
    _a_copresence(a, copresence)
    _a_actor(a, actor)
    return a


# --------------------------------------------------------------------------
# Ground-truth questions: co-presence and the view


_VIEW = "view"  # table and memo key of the view
_COPRESENT = "copresent"  # memo key of the domain rule's co-presence


def _question(dom: DomainModel, key: str | tuple[Literal, ...]) -> tuple[tuple, int]:
    """The question under ``key``, ground once per ``dom.table``: its
    ``(bit, instances)`` pairs, each instance a ``(need, forbid)`` pair, and
    the mask of the atoms the instances test, so two truths that agree on
    that mask get one answer.

    The view (``_VIEW``) pairs the bit of each atom a knowledge rule's
    target names, of the types declared, with the instances of every rule's
    antecedent that shows it, in rule order, with the observer bound to the
    human.  The parser admits no atom of an observable predicate outside
    those types, so no problem of these declarations interns an atom the
    view misses.  A co-presence rule (a tuple of literals) is one pair,
    whose bit is ``True``."""
    entry = dom.table.get(key)
    if entry is None:
        if key is _VIEW:
            shown: dict = {}
            for rule in dom.rules:
                for binding, bit, _ in dom.instances((rule.target,), {OBSERVER: "H"}):
                    shown.setdefault(bit, []).extend(dom.instances(rule.antecedent, binding))
        else:
            shown = {True: dom.instances(key, {})}
        pairs = tuple((bit, tuple((need, forbid) for _, need, forbid in sols))
                      for bit, sols in shown.items())
        tested = 0
        for _, instances in pairs:
            for need, forbid in instances:
                tested |= need | forbid
        entry = dom.table[key] = (pairs, tested)
    return entry


def _judge(pairs: tuple, truth: int) -> int:
    """The bits of the pairs some of whose instances hold in a base with
    mask ``truth``: a bool when each bit is ``True``."""
    answer = False
    for bit, instances in pairs:
        for need, forbid in instances:
            if truth & need == need and not truth & forbid:
                answer |= bit
                break
    return answer


def _answer(dom: DomainModel, key: str, truth: int, entry: tuple | None) -> int:
    """The answer under ``truth`` to the question whose memo key is ``key``
    (``_VIEW`` or ``_COPRESENT``) and memo entry ``entry``, None before it
    is first asked.  The entry holds the question's pairs, the mask of the
    atoms they test and its answers keyed by ``truth`` projected onto that
    mask, each judged once per memo."""
    if entry is None:
        entry = dom.memo[key] = (*_question(dom, dom.copresence if key is _COPRESENT else key),
                                 {})
    pairs, tested, answers = entry
    truth &= tested
    answer = answers.get(truth)
    if answer is None:
        answer = answers[truth] = _judge(pairs, truth)
    return answer


def _copresent(dom: DomainModel, truth: int, rule: tuple[Literal, ...]) -> bool:
    """Whether the agents share each other's presence when reality has mask
    ``truth``: asked under the domain's rule, and judged directly under an
    action's own."""
    if rule is not dom.copresence:
        return _judge(_question(dom, rule)[0], truth)
    entry = dom.memo.get(_COPRESENT)
    if entry is not None:  # a hit read here, as every step asks
        co = entry[2].get(truth & entry[1])
        if co is not None:
            return co
    return _answer(dom, _COPRESENT, truth, entry)


def state_copresent(dom: DomainModel, s: EpistemicState) -> bool:
    return _copresent(dom, s.designated_world.mask_r, dom.copresence)


def in_view(dom: DomainModel, truth: int) -> int:
    """The mask of the atoms the human can settle the truth of when reality
    has mask ``truth``."""
    return _answer(dom, _VIEW, truth, dom.memo.get(_VIEW))


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
    and uniform, so each world carries the same event.  A world's group of
    events is built once per memo, so its successors can be keyed on it.
    """
    d = s.designated_world
    act = choice.first_primitive if choice is not None else None
    memo = dom.memo
    groups: list[tuple[Event, ...]] = []
    if s.actor == "H":
        name = act and (act.name, act.args)
        for w in s.worlds:
            rest = choice.remainder if choice is not None else w.tn_h
            if w is d:
                designated = Event(act, d, True, rest)
                continue
            key = ("human", w, name, rest)
            group = memo.get(key)
            if group is None:
                group = memo[key] = (Event(act, w, False, rest),)
            groups.append(group)
    else:
        designated = Event(act, d, True, choice.remainder if choice is not None else d.tn_r)
        co = state_copresent(dom, s)
        for w in s.worlds:
            allow = co or w.acted < k
            key = ("anticipate", w, allow)
            group = memo.get(key)
            if group is None:
                refs = feasible_refinements(dom, w.tn_rh, w.mask_rh) if allow else ()
                group = memo[key] = (*(Event(r.first_primitive, w, False, r.remainder)
                                       for r in refs), Event(None, w, False, w.tn_rh))
            groups.append(group)
    return _fill_action(object.__new__(EpistemicAction), designated, tuple(groups),
                        dom.copresence, s.actor)


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
    d_act = d_event.action
    co = _copresent(dom, d_event.source.mask_r, a.copresence)

    budget = s.budget
    if a.actor == "R" and d_act is not None and not co:
        budget -= 1

    # A group's successors are a function of its events, built once per memo
    # (or per hand-built action), and of the step's context: None unless the
    # human watches the robot, and then the designated action's content
    # (``()`` for standing by), which decides each successor's mark.
    ctx = None
    if a.actor == "R" and co:
        ctx = (d_act.name, d_act.args) if d_act is not None else ()
    memo = dom.memo
    successors: list[World] = []
    for group in a.groups:
        key = (group, ctx)
        out = memo.get(key)
        if out is None:
            out = []
            for e in group:
                child = _successor(dom, e.source, e, a.actor,
                                   ctx is not None and not _same_act(e.action, d_act))
                if child is not None:
                    out.append(child)
            out = memo[key] = tuple(out)
        successors += out
    new_designated = _successor(dom, d_event.source, d_event, a.actor, False)
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
    view = in_view(dom, truth)
    co_present = _copresent(dom, truth, dom.copresence)

    survivors: list[World] = []
    removed: list[tuple[World, int]] = []
    for w in s.worlds:
        clash = 0 if w is d or w.distinguishable else (truth ^ w.mask_rh) & view
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
            shown = (truth | w.mask_h | w.mask_rh) & view
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
