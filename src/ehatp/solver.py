"""Joint planning over epistemic states.

The planner runs a breadth-first AND/OR search: the robot's turns are OR
nodes (it picks one of its options), the human's turns are AND nodes (every
refinement the human might choose must be covered).  Node statuses harden
from the terminals upward — an OR is finished once one alternative is, an
AND once all of them are — and in the same upward pass each finished node
keeps its value and each finished robot node the edge it prefers: short,
quiet, lexicographically small branches.  From a finished root the joint
policy is only unfolded along those edges.

A state is finished when every surviving world agrees that nobody has work
left: the robot's real agenda, the human's agenda, and the agenda the human
ascribes to the robot must all reach empty without another action.  The only
edges besides task refinements are the speech acts.  The robot may volunteer
a fact (``inform-p``) when the perspectives have drifted apart or the human
is about to be stuck; a stuck human may raise the question itself
(``ask-p``), or wait, which obliges the robot to answer on its next turn.
"""

import json
import sys
import time
from collections import deque
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from .dsl import DomainModel, ProblemInstance
from .htn import (
    Refinement,
    alignment_diff,
    answers,
    effectively_decomposed,
    feasible_refinements,
)
from .kernel import (
    build_epistemic_action,
    initial_state,
    product_update,
    situation_assessment,
    state_copresent,
    trace_enabled,
    with_call_memo,
)
from .model import EhatpError, EpistemicState, Literal, atoms_of, known_bit, world_from

UNKNOWN = "UNKNOWN"
DONE = "DONE"
DEAD = "DEAD"


class SearchNode:
    """One canonical state in the search graph.

    ``children`` stays ``None`` until the node is expanded; a terminal keeps
    an empty list.  Dedup makes this a graph, so a node may have several
    parents, and status updates ripple along them.  Once DONE, a node keeps
    its ``value``, (worst-case turns, speech acts) to completion, and an OR
    node its ``choice``, the kept edge.  Compared by identity.
    """

    __slots__ = ("state", "kind", "status", "children", "parents", "value", "choice")

    def __init__(self, state: EpistemicState, kind: str) -> None:
        self.state = state
        self.kind = kind  # "OR" (robot to act) or "AND" (human to act)
        self.status = UNKNOWN
        self.children: list[tuple[str, SearchNode]] | None = None
        self.parents: list[SearchNode] = []
        self.value: tuple[int, int] | None = None
        self.choice: tuple[str, SearchNode] | None = None


# --------------------------------------------------------------------------
# State evaluation


def evaluate_state(dom: DomainModel, s: EpistemicState) -> str:
    """DONE iff, in every world, all three agendas can reach empty without
    another action; otherwise DEAD (meaning: not finished as it stands).
    Each world is judged once per call memo, under ``("done", w)``."""
    memo = dom.memo
    for w in s.worlds:
        done = memo.get(("done", w))
        if done is None:
            done = memo[("done", w)] = (
                effectively_decomposed(dom, w.tn_r, w.mask_r)
                and effectively_decomposed(dom, w.tn_h, w.mask_h)
                and effectively_decomposed(dom, w.tn_rh, w.mask_rh))
        if not done:
            return DEAD
    return DONE


# --------------------------------------------------------------------------
# Communication synthesis


def synthesize_communication(dom: DomainModel, s: EpistemicState, p: Literal,
                             actor: str, k: int) -> EpistemicState:
    """Settle the truth of ``p`` between the agents, ``actor`` to move next.

    The designated world's ground truth decides the answer; every world's
    human-side bases adopt it, worlds whose projected view contradicted it
    are dropped, and the usual assessment runs afterwards.  After a question
    the robot, who answered it, moves next ("R"); after a volunteered fact,
    the human ("H").  Raises :class:`EhatpError` when the exchange would
    change nothing: the search asks only about facts some world disagrees
    on, so that is a broken invariant, not an option to skip.
    """
    atom = p.atom
    bit = known_bit(atom)
    truth = s.designated_world.mask_r & bit  # the bit, or 0 when false

    changed = False
    rebuilt = []
    designated_out = None
    for i, w in enumerate(s.worlds):
        disagree_rh = (w.mask_rh & bit) != truth
        changed = changed or disagree_rh or (w.mask_h & bit) != truth
        child = world_from(w, w.mask_r, (w.mask_h & ~bit) | truth, (w.mask_rh & ~bit) | truth,
                           w.tn_r, w.tn_h, w.tn_rh, w.acted,
                           w.distinguishable or (i != s.designated and disagree_rh))
        rebuilt.append(child)
        if i == s.designated:
            designated_out = child
    if not changed:
        raise EhatpError(f"nothing to settle: {atom} is already shared")
    assert designated_out is not None

    mid = EpistemicState.make(rebuilt, designated_out, actor=actor,
                              budget=s.budget, pending=())
    return situation_assessment(dom, mid, k)


def _uniform_human_refinements(dom: DomainModel,
                               s: EpistemicState) -> list[Refinement]:
    """Refinements of the human agenda that exist in every world, in the
    designated world's order.  Worlds whose answer record is the designated
    world's own, usually all of them, cut nothing."""
    d = s.designated_world
    mine = answers(dom, d.tn_h, d.mask_h)
    common = mine.keys
    for w in s.worlds:
        other = answers(dom, w.tn_h, w.mask_h)
        if other is not mine:
            common = common & other.keys
    if common is mine.keys:
        return list(mine.refinements)
    return [r for r in mine.refinements if r.key() in common]


def _blocked_atoms(dom: DomainModel, s: EpistemicState) -> set[Literal]:
    """Facts the worlds disagree on among the preconditions the human would
    have to trust for its actually-available refinements."""
    d = s.designated_world
    split = 0  # where some world's human beliefs differ from the designated's
    for w in s.worlds:
        split |= w.mask_h ^ d.mask_h
    return set(atoms_of(split & answers(dom, d.tn_h, d.mask_h).pres))


def _inform_candidates(dom: DomainModel, s: EpistemicState) -> list[Literal]:
    d = s.designated_world
    atoms: set[Literal] = set()
    for w in s.worlds:
        diff = alignment_diff(dom, d.mask_r, d.tn_r, w.mask_rh, w.tn_rh)
        if diff is not None:
            atoms.update(l.atom for l in diff)
    atoms |= _blocked_atoms(dom, s)
    return sorted(atoms, key=str)


# --------------------------------------------------------------------------
# Expansion


def _step(dom: DomainModel, s: EpistemicState, choice: Refinement | None,
          k: int) -> EpistemicState:
    a = build_epistemic_action(dom, s, choice, k)
    return situation_assessment(dom, product_update(dom, s, a), k)


def _waiting(dom: DomainModel, s: EpistemicState,
             pending: tuple[Literal, ...]) -> EpistemicState:
    return EpistemicState.make(s.worlds, s.designated_world, actor="R",
                               budget=s.budget, pending=pending)


# An option: its label, and what builds its successor when called with the
# domain.  The builder holds no domain, so a call memo may keep it without
# keeping a reference to itself.
Offer = tuple[str, Callable[[DomainModel], EpistemicState]]


def expand(dom: DomainModel, prob: ProblemInstance,
           s: EpistemicState) -> list[tuple[str, EpistemicState]]:
    """All labeled successor states of ``s``, in the order of `offers`."""
    return [(label, build(dom)) for label, build in offers(dom, prob, s)]


def offers(dom: DomainModel, prob: ProblemInstance, s: EpistemicState) -> list[Offer]:
    """Each option at ``s`` as its label and the builder of its successor,
    in a deterministic order: speech acts first, then refinements, then
    standing by.  Nothing is built until a builder is called, so a caller
    that follows one option pays for that one."""
    k = prob.k
    co = state_copresent(dom, s)
    options: list[Offer] = []
    if s.actor == "R":
        if s.pending:
            # An answer is owed before anything else may happen.
            options = [(f"inform-{p.atom}",
                        partial(synthesize_communication, s=s, p=p, actor="H", k=k))
                       for p in sorted(s.pending, key=str)]
        else:
            if co and prob.comm_allowed:
                options = [(f"inform-{atom}",
                            partial(synthesize_communication, s=s, p=atom, actor="H", k=k))
                           for atom in _inform_candidates(dom, s)]
            d = s.designated_world
            ontic = (feasible_refinements(dom, d.tn_r, d.mask_r)
                     if co or s.budget > 0 else [])
            options += [(ref.first_primitive.text, partial(_step, s=s, choice=ref, k=k))
                        for ref in ontic]
            # Out of sight the robot may always bide its time; face to face
            # it only stands by when it has nothing of its own left to do.
            if not co or (not ontic and evaluate_state(dom, s) != DONE):
                options.append(("noop", partial(_step, s=s, choice=None, k=k)))
    else:
        uniform = _uniform_human_refinements(dom, s)
        options = [(ref.first_primitive.text, partial(_step, s=s, choice=ref, k=k))
                   for ref in uniform]
        if not uniform and co and prob.comm_allowed:
            blocked = sorted(_blocked_atoms(dom, s), key=str)
            options = [(f"ask-{atom}",
                        partial(synthesize_communication, s=s, p=atom, actor="R", k=k))
                       for atom in blocked]
            if blocked:
                options.append(("wait", partial(_waiting, s=s, pending=tuple(blocked))))
        if not options and evaluate_state(dom, s) != DONE:
            options.append(("noop", partial(_step, s=s, choice=None, k=k)))

    if trace_enabled(dom, "expand"):
        print(f"EXPAND: {s.actor} |W|={len(s.worlds)} -> "
              + (", ".join(label for label, _ in options) or "(dead end)"),
              file=sys.stderr)
    return options


# --------------------------------------------------------------------------
# Status propagation and valuation


def _revise(n: SearchNode) -> bool:
    """Recompute ``n``'s status from its children's and, once it is DONE,
    its value and kept edge; whether any of the three changed.

    An OR node is DONE once one child is and DEAD once all are, an AND node
    the other way round.  A terminal is worth (0, 0) turns and speech acts.
    An OR node keeps the valued child minimizing (turns, speech acts, edge
    label, position), its edge counted; an AND node takes its worst child's
    turns and every speech act below it.  Each adds one turn.
    """
    kids = n.children
    status = n.status
    if status == UNKNOWN and kids:
        stats = [c.status for _, c in kids]
        if n.kind == "OR":
            status = DONE if DONE in stats else UNKNOWN if UNKNOWN in stats else DEAD
        else:
            status = DEAD if DEAD in stats else UNKNOWN if UNKNOWN in stats else DONE
    if status != DONE:
        if status == n.status:
            return False
        n.status = status
        return True
    choice = None
    if not kids:
        value = (0, 0)
    elif n.kind == "OR":
        # Only a child with a value counts; ``n`` may be its own child.
        best = None
        for i, edge in enumerate(kids):
            vc = edge[1].value
            if vc is not None:
                cand = (vc[0] + 1, vc[1] + is_speech_act(edge[0]), edge[0], i)
                if best is None or cand < best:
                    best, choice = cand, edge
        value = best[:2]
    else:
        turns = talk = 0
        for label, c in kids:
            turns = max(turns, c.value[0])
            talk += c.value[1] + is_speech_act(label)
        value = (turns + 1, talk)
    if status == n.status and value == n.value and choice is n.choice:
        return False
    n.status, n.value, n.choice = status, value, choice
    return True


def propagate_revised_status(node: SearchNode) -> None:
    """Revise a freshly settled node, then each ancestor whose child's
    status, value or kept edge moved, walking up through ``parents``.

    DONE is only set bottom-up, so every DONE node gets a finite value from
    children that settled before it.  Values only fall, and every edge adds
    one turn, so the finite fixed point is unique.  Every change re-queues
    the parents, so each choice is made after the last move of any child.
    """
    _revise(node)
    work = list(node.parents)
    while work:
        p = work.pop()
        if _revise(p):
            work.extend(p.parents)


# --------------------------------------------------------------------------
# Policy extraction


class PolicyNode(NamedTuple):
    id: int
    kind: str  # "OR", "AND", or "LEAF"
    actor: str
    edge: str | None  # label of the incoming edge; None at the root
    copresent: bool
    children: list[int]  # extraction appends each child's id


class Policy(NamedTuple):
    nodes: list[PolicyNode]

    @property
    def leaves(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "LEAF")

    def node_dicts(self) -> list[dict]:
        """The nodes as the policy file stores them, fields in order."""
        return [n._asdict() for n in self.nodes]

    def to_json(self) -> str:
        return json.dumps({"nodes": self.node_dicts()}, indent=2)


def is_speech_act(label: str) -> bool:
    """Whether an edge label is an ``inform-`` or ``ask-`` speech act."""
    return label.startswith(("inform-", "ask-"))


def extract_joint_solution(dom: DomainModel, root: SearchNode) -> Policy:
    """Carve the joint plan out of a finished search graph.

    Each finished node holds its value, the worst-case number of turns to
    completion and the number of speech acts spent on the way, and each of
    the robot's its kept edge (`propagate_revised_status`); the human's
    nodes keep every alternative.  The chosen subgraph is unfolded into a
    tree with preorder ids.  Kept edges strictly lower the turn count, so
    the unfolding is finite.
    """
    if root.status != DONE:
        raise EhatpError("no finished joint plan to extract")
    nodes: list[PolicyNode] = []
    stack: list[tuple[SearchNode, str | None, PolicyNode | None]] = [
        (root, None, None)]
    while stack:
        n, edge, parent = stack.pop()
        if not n.children:
            keep: list[tuple[str, SearchNode]] = []
        elif n.kind == "OR":
            keep = [n.choice]
        else:
            keep = n.children
        pn = PolicyNode(len(nodes), n.kind if keep else "LEAF", n.state.actor, edge,
                        state_copresent(dom, n.state), [])
        nodes.append(pn)
        if parent is not None:
            parent.children.append(pn.id)
        stack.extend((c, label, pn) for label, c in reversed(keep))
    return Policy(nodes)


# --------------------------------------------------------------------------
# Search driver


class Metrics(NamedTuple):
    instance: str
    k: int
    comm: str
    states: int
    maxW: int
    leaves: int
    time_ms: int

    def csv_line(self) -> str:
        return ",".join(map(str, self))

    @staticmethod
    def csv_header() -> str:
        return "instance,K,comm,states,maxW,leaves,time_ms"


class SolveResult(NamedTuple):
    policy: Policy | None
    root: SearchNode
    metrics: Metrics
    all_nodes: list[SearchNode]


def solve(dom: DomainModel, prob: ProblemInstance,
          exhaust: bool = False) -> SolveResult:
    """Breadth-first AND/OR search from the problem's initial state.

    Each node that settles is revised upward with its ancestors' statuses,
    values and kept edges (`propagate_revised_status`), so a finished root's
    policy is ready to unfold.  Stops as soon as the root's status settles
    unless ``exhaust`` asks for the whole reachable graph (it is finite: the
    budget caps how far the estimated worlds may drift, and states are
    deduplicated).
    """
    start = time.perf_counter()
    dom = with_call_memo(dom)
    s0 = initial_state(dom, prob)
    root = SearchNode(s0, "OR" if s0.actor == "R" else "AND")
    by_sig = {s0.signature(): root}
    all_nodes = [root]
    queue: deque[SearchNode] = deque([root])
    states = 0
    max_worlds = len(s0.worlds)

    while queue:
        n = queue.popleft()
        states += 1
        n.children = []
        if evaluate_state(dom, n.state) == DONE:
            n.status = DONE
        else:
            for label, cs in expand(dom, prob, n.state):
                sig = cs.signature()
                child = by_sig.get(sig)
                if child is None:
                    child = SearchNode(cs, "OR" if cs.actor == "R" else "AND")
                    by_sig[sig] = child
                    all_nodes.append(child)
                    max_worlds = max(max_worlds, len(cs.worlds))
                    queue.append(child)
                n.children.append((label, child))
                child.parents.append(n)
            if not n.children:
                n.status = DEAD
        # Deduplicated children may already be settled.
        if n.status != UNKNOWN or _revise(n):
            propagate_revised_status(n)
        if not exhaust and root.status != UNKNOWN:
            break

    policy = extract_joint_solution(dom, root) if root.status == DONE else None
    elapsed = int(round((time.perf_counter() - start) * 1000))
    metrics = Metrics(prob.name, prob.k, "on" if prob.comm_allowed else "off", states,
                      max_worlds, policy.leaves if policy else 0, elapsed)
    return SolveResult(policy, root, metrics, all_nodes)
