"""Joint planning over epistemic states.

The planner runs a breadth-first AND/OR search: the robot's turns are OR
nodes (it picks one of its options), the human's turns are AND nodes (every
refinement the human might choose must be covered).  Node statuses harden
from the terminals upward — an OR is finished once one alternative is, an
AND once all of them are — and from a finished root a joint policy is
extracted that prefers short, quiet, lexicographically small branches.

A state is finished when every surviving world agrees that nobody has work
left: the robot's real agenda, the human's agenda, and the agenda the human
ascribes to the robot must all reach empty without another action.  The only
edges besides task refinements are the speech acts.  The robot may volunteer
a fact (``inform-p``) when the perspectives have drifted apart or the human
is about to be stuck; a stuck human may raise the question itself
(``ask-p``), or wait, which obliges the robot to answer on its next turn.
"""

import json
import math
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
from .model import EhatpError, EpistemicState, Literal, World, atoms_of

UNKNOWN = "UNKNOWN"
DONE = "DONE"
DEAD = "DEAD"


class SearchNode:
    """One canonical state in the search graph.

    ``children`` stays ``None`` until the node is expanded; a terminal keeps
    an empty list.  Dedup makes this a graph, so a node may have several
    parents, and status updates ripple along them.  Compared by identity.
    """

    __slots__ = ("state", "kind", "status", "children", "parents")

    def __init__(self, state: EpistemicState, kind: str, status: str = UNKNOWN,
                 children: "list[tuple[str, SearchNode]] | None" = None,
                 parents: "list[SearchNode] | None" = None) -> None:
        self.state = state
        self.kind = kind  # "OR" (robot to act) or "AND" (human to act)
        self.status = status
        self.children = children
        self.parents = [] if parents is None else parents


# --------------------------------------------------------------------------
# State evaluation


def evaluate_state(dom: DomainModel, s: EpistemicState) -> str:
    """DONE iff, in every world, all three agendas can reach empty without
    another action; otherwise DEAD (meaning: not finished as it stands)."""
    for w in s.worlds:
        if not (effectively_decomposed(dom, w.tn_r, w.bel_r)
                and effectively_decomposed(dom, w.tn_h, w.bel_h)
                and effectively_decomposed(dom, w.tn_rh, w.bel_rh)):
            return DEAD
    return DONE


# --------------------------------------------------------------------------
# Communication synthesis


def synthesize_communication(dom: DomainModel, s: EpistemicState, p: Literal,
                             k: int) -> tuple[EpistemicState, EpistemicState]:
    """Settle the truth of ``p`` between the agents.

    The designated world's ground truth decides the answer; every world's
    human-side bases adopt it, worlds whose projected view contradicted it
    are dropped, and the usual assessment runs afterwards.  Returns the
    resulting state twice, once with each agent to move: as the outcome of a
    question (robot answers, robot's turn follows) and of a volunteered fact
    (human's turn follows).  Raises :class:`EhatpError` when the exchange
    would change nothing: the search asks only about facts some world
    disagrees on, so that is a broken invariant, not an option to skip.
    """
    atom = p if p.positive else p.negate()
    d = s.designated_world
    truth = d.bel_r.entails(atom)

    changed = False
    rebuilt = []
    designated_out = None
    for i, w in enumerate(s.worlds):
        disagree_rh = w.bel_rh.entails(atom) != truth
        disagree_h = w.bel_h.entails(atom) != truth
        changed = changed or disagree_rh or disagree_h
        child = World(w.bel_r, w.bel_h.assign(atom, truth), w.bel_rh.assign(atom, truth),
                      w.tn_r, w.tn_h, w.tn_rh, w.acted,
                      w.distinguishable or (i != s.designated and disagree_rh))
        rebuilt.append(child)
        if i == s.designated:
            designated_out = child
    if not changed:
        raise EhatpError(f"nothing to settle: {atom} is already shared")
    assert designated_out is not None

    mid = EpistemicState.make(rebuilt, designated_out, actor=s.actor,
                              budget=s.budget, pending=())
    out = situation_assessment(dom, mid, k)
    return (EpistemicState(out.worlds, out.designated, "R", out.budget, out.pending),
            EpistemicState(out.worlds, out.designated, "H", out.budget, out.pending))


def _uniform_human_refinements(dom: DomainModel,
                               s: EpistemicState) -> list[Refinement]:
    """Refinements of the human agenda that exist in every world, in the
    designated world's order."""
    per_world = [{r.key(): r for r in feasible_refinements(dom, w.tn_h, w.bel_h)}
                 for w in s.worlds]
    common = set(per_world[s.designated])
    for m in per_world:
        common &= set(m)
    return [r for key, r in per_world[s.designated].items() if key in common]


def _blocked_atoms(dom: DomainModel, s: EpistemicState) -> set[Literal]:
    """Facts the worlds disagree on among the preconditions the human would
    have to trust for its actually-available refinements."""
    d = s.designated_world
    atoms: set[Literal] = set()
    for ref in feasible_refinements(dom, d.tn_h, d.bel_h):
        for atom in atoms_of(ref.pres):
            if len({w.bel_h.entails(atom) for w in s.worlds}) > 1:
                atoms.add(atom)
    return atoms


def _inform_candidates(dom: DomainModel, s: EpistemicState) -> list[Literal]:
    d = s.designated_world
    atoms: set[Literal] = set()
    for w in s.worlds:
        diff = alignment_diff(dom, d.bel_r, d.tn_r, w.bel_rh, w.tn_rh)
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


def _told(dom: DomainModel, s: EpistemicState, p: Literal, k: int) -> EpistemicState:
    return synthesize_communication(dom, s, p, k)[1]


def _asked(dom: DomainModel, s: EpistemicState, p: Literal, k: int) -> EpistemicState:
    return synthesize_communication(dom, s, p, k)[0]


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
            options = [(f"inform-{p.atom}", partial(_told, s=s, p=p, k=k))
                       for p in sorted(s.pending, key=str)]
        else:
            if co and prob.comm_allowed:
                options = [(f"inform-{atom}", partial(_told, s=s, p=atom, k=k))
                           for atom in _inform_candidates(dom, s)]
            d = s.designated_world
            ontic = (feasible_refinements(dom, d.tn_r, d.bel_r)
                     if co or s.budget > 0 else [])
            options += [(str(ref.first_primitive), partial(_step, s=s, choice=ref, k=k))
                        for ref in ontic]
            # Out of sight the robot may always bide its time; face to face
            # it only stands by when it has nothing of its own left to do.
            if not co or (not ontic and evaluate_state(dom, s) != DONE):
                options.append(("noop", partial(_step, s=s, choice=None, k=k)))
    else:
        uniform = _uniform_human_refinements(dom, s)
        options = [(str(ref.first_primitive), partial(_step, s=s, choice=ref, k=k))
                   for ref in uniform]
        if not uniform and co and prob.comm_allowed:
            blocked = sorted(_blocked_atoms(dom, s), key=str)
            options = [(f"ask-{atom}", partial(_asked, s=s, p=atom, k=k)) for atom in blocked]
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
# Status propagation


def _combined(n: SearchNode) -> str:
    if not n.children:
        return n.status
    stats = [c.status for _, c in n.children]
    if n.kind == "OR":
        if any(st == DONE for st in stats):
            return DONE
        if all(st == DEAD for st in stats):
            return DEAD
    else:
        if all(st == DONE for st in stats):
            return DONE
        if any(st == DEAD for st in stats):
            return DEAD
    return UNKNOWN


def propagate_revised_status(node: SearchNode) -> None:
    """Push a node's freshly set status to its ancestors; an ancestor whose
    status does not change stops the ripple."""
    work = list(node.parents)
    while work:
        p = work.pop()
        if p.status != UNKNOWN or p.children is None:
            continue
        revised = _combined(p)
        if revised == p.status:
            continue
        p.status = revised
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


def _comm_weight(label: str) -> int:
    return 1 if is_speech_act(label) else 0


def _reachable(root: SearchNode) -> list[SearchNode]:
    seen: set[int] = set()
    order: list[SearchNode] = []
    stack = [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        order.append(n)
        if n.children:
            stack.extend(c for _, c in reversed(n.children))
    return order


def finished_values(done: list[SearchNode]) -> tuple[
        dict[int, tuple[float, float]], dict[int, tuple[str, SearchNode]]]:
    """The value of each finished node and the edge each finished robot node
    keeps, both keyed by ``id(node)``.

    A value is (worst-case turns, speech acts) to completion, ``inf`` where
    no finished branch reaches completion; the kept edge minimizes (turns,
    speech acts, edge label).
    """
    value: dict[int, tuple[float, float]] = {id(n): (math.inf, math.inf)
                                             for n in done}
    choice: dict[int, tuple[str, SearchNode]] = {}
    # the finished parents of each finished node: what to re-value when its
    # value moves
    users: dict[int, list[SearchNode]] = {id(n): [] for n in done}
    for n in done:
        for _, c in n.children or ():
            if id(c) in users:
                users[id(c)].append(n)

    # Values only fall from inf, and each operator is monotone, so revisiting
    # just the parents of a moved node reaches the fixed point a full re-sweep
    # would; each choice is made by its node's last visit, which follows the
    # last move of any child.
    work = deque(n for n in done if not n.children)
    queued = {id(n) for n in work}
    while work:
        n = work.popleft()
        queued.discard(id(n))
        if not n.children:
            new = (0.0, 0.0)
        elif n.kind == "OR":
            best = None
            pick = None
            for i, (label, c) in enumerate(n.children):
                vc = value.get(id(c))
                if vc is None or vc[0] == math.inf:
                    continue
                cand = (vc[0] + 1, vc[1] + _comm_weight(label), label, i)
                if best is None or cand < best:
                    best = cand
                    pick = (label, c)
            if best is None:
                continue
            new = (best[0], best[1])
            choice[id(n)] = pick
        else:
            worst = 0.0
            talk = 0.0
            feasible = True
            for label, c in n.children:
                vc = value.get(id(c))
                if vc is None or vc[0] == math.inf:
                    feasible = False
                    break
                worst = max(worst, vc[0])
                talk += vc[1] + _comm_weight(label)
            if not feasible:
                continue
            new = (worst + 1, talk)
        if new != value[id(n)]:
            value[id(n)] = new
            for p in users[id(n)]:
                if id(p) not in queued:
                    queued.add(id(p))
                    work.append(p)
    return value, choice


def extract_joint_solution(dom: DomainModel, root: SearchNode) -> Policy:
    """Carve the joint plan out of a finished search graph.

    Every finished node gets a value: the worst-case number of turns to
    completion and the number of speech acts spent on the way.  The robot's
    nodes keep the single child minimizing (turns, speech acts, edge label);
    the human's keep every covered alternative.  The chosen subgraph is then
    unfolded into a tree with preorder ids.
    """
    if root.status != DONE:
        raise EhatpError("no finished joint plan to extract")
    choice = finished_values([n for n in _reachable(root) if n.status == DONE])[1]

    # Unfold the chosen subgraph in preorder.  Chosen edges strictly lower the
    # turn count, so the unfolding is finite.
    nodes: list[PolicyNode] = []
    stack: list[tuple[SearchNode, str | None, PolicyNode | None]] = [
        (root, None, None)]
    while stack:
        n, edge, parent = stack.pop()
        if not n.children:
            keep: list[tuple[str, SearchNode]] = []
        elif n.kind == "OR":
            keep = [choice[id(n)]]
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

    Stops as soon as the root's status settles unless ``exhaust`` asks for
    the whole reachable graph (it is finite: the budget caps how far the
    estimated worlds may drift, and states are deduplicated).
    """
    start = time.perf_counter()
    dom = with_call_memo(dom)
    s0 = initial_state(dom, prob)
    root = SearchNode(state=s0, kind="OR" if s0.actor == "R" else "AND")
    by_sig = {s0.signature(): root}
    all_nodes = [root]
    queue: deque[SearchNode] = deque([root])
    states = 0
    max_worlds = len(s0.worlds)

    while queue:
        n = queue.popleft()
        states += 1
        if evaluate_state(dom, n.state) == DONE:
            n.children = []
            n.status = DONE
            propagate_revised_status(n)
        else:
            n.children = []
            for label, cs in expand(dom, prob, n.state):
                sig = cs.signature()
                child = by_sig.get(sig)
                if child is None:
                    child = SearchNode(state=cs,
                                       kind="OR" if cs.actor == "R" else "AND")
                    by_sig[sig] = child
                    all_nodes.append(child)
                    max_worlds = max(max_worlds, len(cs.worlds))
                    queue.append(child)
                n.children.append((label, child))
                child.parents.append(n)
            if not n.children:
                n.status = DEAD
                propagate_revised_status(n)
            elif n.status == UNKNOWN:
                # Deduplicated children may already be settled.
                revised = _combined(n)
                if revised != UNKNOWN:
                    n.status = revised
                    propagate_revised_status(n)
        if not exhaust and root.status != UNKNOWN:
            break

    policy = extract_joint_solution(dom, root) if root.status == DONE else None
    elapsed = int(round((time.perf_counter() - start) * 1000))
    metrics = Metrics(prob.name, prob.k, "on" if prob.comm_allowed else "off", states,
                      max_worlds, policy.leaves if policy else 0, elapsed)
    return SolveResult(policy, root, metrics, all_nodes)
