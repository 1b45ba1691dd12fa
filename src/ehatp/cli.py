"""Command-line front end.

Three subcommands: ``plan`` synthesizes a joint policy for one instance and
writes it as a self-contained JSON file (the domain and problem sources ride
along, so a policy file can be replayed anywhere); ``simulate`` replays such
a file, either exhaustively over every human alternative or as an
interactive stepper; ``bench`` runs the shipped instances and compares their
structural metrics against the calibration targets.

Exit codes: 0 success, 1 diagnostics (unreadable or malformed input, or an
output file that cannot be written), 2 planning or replay failure, or a
missed bench target.
``EHATP_LOG=sa|expand|all`` turns on trace logging on stderr.
"""

import argparse
import errno
import json
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

from .dsl import (
    DomainModel,
    ParseError,
    ProblemInstance,
    load_instance,
    parse_domain,
    parse_problem,
    validate,
)
from .kernel import initial_state, state_copresent, with_call_memo
from .model import BeliefBase, EpistemicState, World
from .solver import (
    DEAD,
    DONE,
    Metrics,
    Policy,
    PolicyNode,
    UNKNOWN,
    evaluate_state,
    is_speech_act,
    offers,
    solve,
)

# Calibration targets for the shipped instances: worst-case number of worlds
# held at once, and branch (leaf) count of the extracted policy.  The states
# column is informational — it counts unique canonical states dequeued by
# this solver, which merges duplicates and stops once the root settles, so it
# is not comparable across different counting rules.
BENCH_TARGETS: dict[str, tuple[int, int]] = {
    "p1": (4, 3), "p2": (4, 3),
    "p3": (7, 6), "p4": (7, 6),
    "p5": (14, 5), "p6": (14, 5),
    "cooking1": (3, 5), "cooking2": (4, 5), "cooking3": (5, 5),
}

STATES_NOTE = ("note: states = unique canonical states dequeued "
               "(duplicates merged, search stops once the root settles); "
               "informational only under other counting rules")


# --------------------------------------------------------------------------
# Policy files


def write_policy_file(path: str | Path, dom_text: str, prob_text: str,
                      policy: Policy) -> None:
    doc = {
        "domain": dom_text,
        "problem": prob_text,
        "nodes": policy.node_dicts(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_policy_file(path: str | Path) -> tuple[DomainModel, ProblemInstance, Policy]:
    """The domain, problem and policy a policy file holds.  The domain carries
    a call memo of its own (`with_call_memo`; ``EHATP_LOG`` is read as the
    file is loaded), so `simulate`, `communication_is_load_bearing`,
    `run_interactive` and `solve` on this loaded policy share every state
    they build, and the memo is freed with the model.  Each load starts a
    new memo."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    nodes = [PolicyNode(**n) for n in doc["nodes"]]
    _check_tree(nodes)  # before the parse, which costs far more
    dom = with_call_memo(parse_domain(doc["domain"], filename=f"{path}#domain"))
    prob = parse_problem(doc["problem"], dom, filename=f"{path}#problem")
    return dom, prob, Policy(nodes)


def _check_tree(nodes: list[PolicyNode]) -> None:
    """Raise ``ValueError`` unless ``nodes`` form a tree stored root first:
    node ``i`` has id ``i``, only the root lacks an incoming edge label, and
    every other node is listed exactly once as a child of an earlier node.
    Each node's fields have the types extraction writes: an agent, a bool,
    a list of ints, and the kind a node of that agent with those children
    has (a leaf exactly when it has none, else OR for R and AND for H)."""
    if not nodes:
        raise ValueError("policy has no nodes")
    listed = [0] * len(nodes)
    for i, n in enumerate(nodes):
        if type(n.id) is not int or n.id != i:
            raise ValueError(f"node {i} has id {n.id!r}")
        if not (n.edge is None if i == 0 else isinstance(n.edge, str)):
            raise ValueError(f"node {i} has edge {n.edge!r}")
        if n.actor not in ("R", "H") or type(n.copresent) is not bool:
            raise ValueError(f"node {i} has actor {n.actor!r} and copresent {n.copresent!r}")
        if type(n.children) is not list or any(type(j) is not int for j in n.children):
            raise ValueError(f"node {i} has children {n.children!r}")
        for j in n.children:
            if not i < j < len(nodes):
                raise ValueError(f"node {i} lists child {j!r}")
            listed[j] += 1
        if n.kind != (("OR" if n.actor == "R" else "AND") if n.children else "LEAF"):
            raise ValueError(f"node {i} of {n.actor} with {len(n.children)} "
                             f"children has kind {n.kind!r}")
    for j in range(1, len(nodes)):
        if listed[j] != 1:
            raise ValueError(f"node {j} is listed as a child {listed[j]} times")


# --------------------------------------------------------------------------
# Exhaustive replay


class SimStep(NamedTuple):
    actor: str
    action: str
    copresent: bool  # after the action
    worlds: int  # surviving worlds after the action's assessment


class SimulationTrace(NamedTuple):
    steps: tuple[SimStep, ...]
    outcome: str  # DONE | DEAD
    note: str = ""

    def describe(self) -> str:
        line = " | ".join(f"{st.actor}:{st.action}" for st in self.steps)
        tail = f"  [{self.note}]" if self.note else ""
        return f"{self.outcome}: {line}{tail}"


class SimulationReport(NamedTuple):
    traces: tuple[SimulationTrace, ...]

    @property
    def ok(self) -> bool:
        return bool(self.traces) and all(t.outcome == DONE for t in self.traces)


def _is_ontic(label: str) -> bool:
    return label not in ("noop", "wait") and not is_speech_act(label)


def simulate(dom: DomainModel, prob: ProblemInstance,
             policy: Policy) -> SimulationReport:
    """Replay every branch of ``policy`` against the execution semantics.

    Robot turns follow the recorded choice; human turns must cover every
    alternative the semantics actually offers at that state.  Two
    alternatives may share an action label (same first step, different ways
    of pursuing the agenda); branches are paired with offers positionally
    within each label, in offer order.  The robot's out-of-sight work is
    re-counted against the budget.  Any branch that cannot be driven to a
    finished state becomes a DEAD trace with the reason attached.  Traces
    come in policy preorder.  Runs on ``dom``'s call memo when it has one,
    as a loaded policy does, else on a fresh one.
    """
    return SimulationReport(tuple(_replay(with_call_memo(dom), prob, policy)))


def _replay(dom: DomainModel, prob: ProblemInstance, policy: Policy,
            toward: frozenset[int] = frozenset(), skip: int | None = None,
            ) -> Iterator[SimulationTrace]:
    """The traces of `simulate`, one at a time and on ``dom``'s call memo,
    with the edge into node ``skip`` left out of the policy.

    Depth first, children in recorded order, except that a child whose id is
    in ``toward`` goes before its siblings: a caller that stops at the first
    DEAD trace walks the path through the ``toward`` nodes before any other.
    """
    # A branch is a state to follow, with its co-presence, or its trace.
    s0 = initial_state(dom, prob)
    stack: list[tuple | SimulationTrace] = [(0, s0, state_copresent(dom, s0), (), 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, SimulationTrace):
            yield item
            continue
        idx, s, co, steps, hidden = item
        node = policy.nodes[idx]
        wrong = _misstated(idx, node, s, co)
        if wrong:
            yield SimulationTrace(steps, DEAD, wrong)
            continue
        children = node.children
        if skip in children:
            children = [c for c in children if c != skip]
        if not children:
            if evaluate_state(dom, s) == DONE:
                yield SimulationTrace(steps, DONE)
            else:
                yield SimulationTrace(
                    steps, DEAD, "execution stops before the task is finished")
            continue
        offered = _offered(dom, prob, s)
        pairs, recorded = _paired(policy, children)
        if s.actor == "H":
            missing = sorted(l for l, succs in offered.items()
                             if recorded.get(l, 0) < len(succs))
            if missing:
                yield SimulationTrace(
                    steps, DEAD, f"uncovered human alternative: {missing[0]}")
                continue
        branches: list[tuple | SimulationTrace] = []
        for cid, label, pos in pairs:
            succs = offered.get(label, ())
            ontic = _is_ontic(label)
            # The robot's out-of-sight work since the agents last met.
            run = hidden + (s.actor == "R" and ontic and not co)
            if pos >= len(succs):
                branch = SimulationTrace(steps, DEAD, f"recorded action unavailable: {label}")
            elif run > prob.k:
                branch = SimulationTrace(
                    steps, DEAD, f"budget exceeded: {run} unseen actions > K={prob.k}")
            else:
                succ = _follow(dom, succs, pos)
                succ_co = state_copresent(dom, succ)
                step = SimStep(s.actor, label, succ_co, len(succ.worlds))
                branch = (cid, succ, succ_co, steps + (step,), 0 if succ_co else run)
            branches.insert(0 if cid in toward else len(branches), branch)
        stack.extend(reversed(branches))


def _paired(policy: Policy, children: list[int]
            ) -> tuple[list[tuple[int, str, int]], dict[str, int]]:
    """Each of ``children`` as ``(id, edge label, position)``, the position
    counting the earlier children of that label, and how many children
    each label has.  The child at position k of a label is paired with the
    k-th option of that label the semantics offers, in offer order."""
    pairs = []
    count: dict[str, int] = {}
    nodes = policy.nodes
    for cid in children:
        label = nodes[cid].edge
        pos = count.get(label, 0)
        count[label] = pos + 1
        pairs.append((cid, label, pos))
    return pairs, count


def _misstated(idx: int, node: PolicyNode, s: EpistemicState, co: bool) -> str:
    """What policy node ``idx`` misstates about the replayed state ``s`` of
    co-presence ``co``: its actor, or else its co-presence; "" if neither."""
    for field, replayed in (("actor", s.actor), ("copresent", co)):
        if getattr(node, field) != replayed:
            return f"node {idx} records {field} {getattr(node, field)!r}, the replay {replayed!r}"
    return ""


Succs = list["EpistemicState | Callable[[DomainModel], EpistemicState]"]


def _offered(dom: DomainModel, prob: ProblemInstance,
             s: EpistemicState) -> dict[str, Succs]:
    """What the semantics offers at ``s``: by label, in offer order, each
    option's successor, or its builder until `_follow` first builds it.
    Kept once per call memo: a replay reaches a state again through another
    branch, and a load-bearing check replays the policy once per speech
    act, each following only some options, after `simulate` has replayed
    the same loaded policy."""
    key = ("offer", s.signature())
    offered = dom.memo.get(key)
    if offered is None:
        offered = dom.memo[key] = {}
        for label, build in offers(dom, prob, s):
            offered.setdefault(label, []).append(build)
    return offered


def _follow(dom: DomainModel, succs: Succs, pos: int) -> EpistemicState:
    """The successor at ``pos`` of one label's offers, built on first use."""
    succ = succs[pos]
    if not isinstance(succ, EpistemicState):
        succ = succs[pos] = succ(dom)
    return succ


def communication_edges(policy: Policy) -> list[int]:
    """Ids of the policy nodes entered through a speech act."""
    return [n.id for n in policy.nodes
            if n.edge is not None and is_speech_act(n.edge)]


def communication_is_load_bearing(dom: DomainModel, prob: ProblemInstance,
                                  policy: Policy) -> bool:
    """True when removing any single speech-act edge breaks the replay.

    Each replay leaves one speech-act edge out, heads first for it and stops
    at its first DEAD trace, so it is `not simulate(cut).ok` but walks the
    whole cut policy only when the speech act turns out not to be needed.
    The replays share one call memo, ``dom``'s when it has one, so none
    expands a state another, or a `simulate` of the same loaded policy, has
    expanded already."""
    dom = with_call_memo(dom)
    parent = {c: n.id for n in policy.nodes for c in n.children}

    def ancestors(nid: int) -> frozenset[int]:
        path = []
        while nid in parent:
            nid = parent[nid]
            path.append(nid)
        return frozenset(path)

    return all(any(t.outcome != DONE
                   for t in _replay(dom, prob, policy, ancestors(nid), nid))
               for nid in communication_edges(policy))


# --------------------------------------------------------------------------
# Interactive stepper


def _divergence_summary(s: EpistemicState) -> str:
    d = s.designated_world

    def listed(a: BeliefBase, b: BeliefBase) -> str:
        diff = sorted(a.atoms ^ b.atoms, key=str)
        return ", ".join(str(x) for x in diff[:4]) + (", ..." if len(diff) > 4 else "")

    gap = listed(d.bel_h, d.bel_r)
    parts = [f"human belief vs truth: {gap}"] if gap else []
    # Numbered in the order of the worlds' texts, which no process's intern
    # history changes.
    hypos = [f"world {i} differs on {listed(w.bel_h, d.bel_h) or 'the agenda only'}"
             for i, w in enumerate(sorted(s.worlds, key=World.describe)) if w is not d]
    if hypos:
        parts.append("; ".join(hypos))
    return "; ".join(parts) if parts else "beliefs aligned"


def _status_line(dom: DomainModel, s: EpistemicState) -> str:
    co = "together" if state_copresent(dom, s) else "apart"
    return f"  -> {co}; worlds={len(s.worlds)}; {_divergence_summary(s)}"


def run_interactive(dom: DomainModel, prob: ProblemInstance, policy: Policy,
                    seed: int = 0) -> int:
    """Step through the policy, letting the operator choose the human's move.

    Robot turns play automatically.  At each human turn every alternative
    the semantics offers is listed — ones the policy does not cover are
    marked "off plan", and after taking one the robot improvises with its
    first available option.  Alternatives that share a label are listed
    apart, as ``lay_mats (2 of 4)``, and paired with the recorded branches
    as `simulate` pairs them.  An empty reply takes the suggested choice,
    ``q`` stops.  Prints co-presence, the surviving-world count, and a
    belief divergence summary after every move.  A plan node that misstates
    the stepped state's actor or co-presence stops the run, as in `simulate`.
    Steps on ``dom``'s call memo when it has one, else on a fresh one.
    """
    import random  # only the stepper draws, so no other run pays the import

    dom = with_call_memo(dom)
    rng = random.Random(seed)
    s = initial_state(dom, prob)
    idx: int | None = 0
    for turn in range(500):
        node = policy.nodes[idx] if idx is not None else None
        wrong = node is not None and _misstated(idx, node, s, state_copresent(dom, s))
        if wrong:
            print(wrong, file=sys.stderr)
            return 2
        if node is not None and not node.children:
            outcome = evaluate_state(dom, s)
            print(f"finished: {outcome}")
            return 0 if outcome == DONE else 2
        if node is None and evaluate_state(dom, s) == DONE:
            print("finished: DONE (off plan)")
            return 0
        offered = _offered(dom, prob, s)
        if not offered:
            print("no moves left; DEAD")
            return 2
        # ``(child id or None off plan, label, position among its offers)``
        pairs = _paired(policy, node.children)[0] if node else []
        if s.actor == "R":
            if pairs:
                cid, label, pos = pairs[0]
            else:
                cid, label, pos = None, next(iter(offered)), 0
                print(f"[t{turn}] robot improvises:")
        else:
            taken = {(label, pos) for _, label, pos in pairs}
            options = pairs + [(None, l, pos) for l, succs in offered.items()
                               for pos in range(len(succs)) if (l, pos) not in taken]
            print(f"[t{turn}] your move (H):")
            for i, (cid, l, pos) in enumerate(options, start=1):
                ways = len(offered.get(l, ()))
                way = f" ({pos + 1} of {ways})" if ways > 1 else ""
                mark = "" if cid is not None else "  (off plan)"
                print(f"  {i}) {l}{way}{mark}")
            hint = rng.randrange(len(options)) + 1
            try:
                reply = input(f"choice [{hint}]: ").strip()
            except EOFError:
                print("no input; stopping.")
                return 1
            if reply == "q":
                print("stopped.")
                return 1
            try:
                pick = int(reply) if reply.isdecimal() else hint
            except ValueError:  # more digits than ``int()`` converts
                pick = hint
            if not 1 <= pick <= len(options):
                pick = hint
            cid, label, pos = options[pick - 1]
        succs = offered.get(label, ())
        if pos >= len(succs):
            print(f"recorded action unavailable: {label}", file=sys.stderr)
            return 2
        succ = _follow(dom, succs, pos)
        who = "robot" if s.actor == "R" else "human"
        print(f"[t{turn}] {who}: {label}")
        print(_status_line(dom, succ))
        s, idx = succ, cid
    print("stopping: run exceeded 500 turns", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------
# Subcommands


def _missing_parent(*paths: str | None) -> OSError | None:
    """The error writing the first of ``paths`` whose parent is not a
    directory would raise, found before any work is done."""
    for path in paths:
        if path is None:
            continue
        parent = Path(path).parent
        if not parent.is_dir():
            code = errno.ENOTDIR if parent.exists() else errno.ENOENT
            return OSError(code, os.strerror(code), path)
    return None


def cmd_plan(args: argparse.Namespace) -> int:
    texts = []
    for path in (args.domain, args.problem):
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except UnicodeDecodeError as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            return 1
    dom_text, prob_text = texts
    try:
        dom = parse_domain(dom_text, args.domain)
        prob = parse_problem(prob_text, dom, args.problem)
    except ParseError as e:
        print(e, file=sys.stderr)
        return 1
    for d in validate(dom, prob, filename=args.domain, problem_file=args.problem):
        print(d, file=sys.stderr)
    unwritable = _missing_parent(args.out, args.metrics)
    if unwritable is not None:
        print(f"error: {unwritable}", file=sys.stderr)
        return 1

    res = solve(dom, prob)
    if res.policy is None:
        # The queue empties with the root unsettled when no plan exists
        # and cycles keep some nodes from settling DEAD.
        why = ("search exhausted" if res.root.status == UNKNOWN
               else f"search settled {res.root.status}")
        print(f"no joint solution for {prob.name}: {why}", file=sys.stderr)
        return 2
    try:
        write_policy_file(args.out, dom_text, prob_text, res.policy)
        if args.metrics:
            Path(args.metrics).write_text(
                Metrics.csv_header() + "\n" + res.metrics.csv_line() + "\n",
                encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    m = res.metrics
    print(f"{prob.name}: policy with {m.leaves} branches "
          f"(states={m.states}, maxW={m.maxW}) -> {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        dom, prob, policy = read_policy_file(args.policy)
    except (OSError, ParseError, KeyError, TypeError, ValueError, RecursionError) as e:
        # RecursionError: JSON nested deeper than the decoder follows.
        print(f"error: cannot load policy: {e}", file=sys.stderr)
        return 1
    if args.interactive:
        return run_interactive(dom, prob, policy, seed=args.seed)
    report = simulate(dom, prob, policy)
    for t in report.traces:
        print(t.describe())
    total = len(report.traces)
    if report.ok:
        print(f"{total} traces, all {DONE}")
        return 0
    failed = sum(1 for t in report.traces if t.outcome != DONE)
    print(f"{failed} of {total} traces failed", file=sys.stderr)
    return 2


def cmd_bench(args: argparse.Namespace) -> int:
    unwritable = _missing_parent(args.out)
    if unwritable is not None:
        print(f"error: {unwritable}", file=sys.stderr)
        return 1
    rows: list[Metrics] = []
    suspects: list[str] = []
    for name in sorted(BENCH_TARGETS):
        dom, prob = load_instance(name)
        res = solve(dom, prob)
        rows.append(res.metrics)
        tw, tl = BENCH_TARGETS[name]
        m = res.metrics
        ok = res.policy is not None and m.maxW == tw and m.leaves == tl
        verdict = "ok" if ok else "MISMATCH — review this instance's encoding first"
        print(f"{name}: maxW={m.maxW} (target {tw}), leaves={m.leaves} "
              f"(target {tl}), states={m.states}, time={m.time_ms}ms  [{verdict}]")
        if not ok:
            suspects.append(name)
    if args.out:
        try:
            Path(args.out).write_text(
                Metrics.csv_header() + "\n"
                + "".join(m.csv_line() + "\n" for m in rows),
                encoding="utf-8")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    print(STATES_NOTE)
    if suspects:
        print(f"encodings to review: {', '.join(suspects)}")
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ehatp",
        description="Plan, replay, and benchmark joint robot-human policies.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("plan", help="synthesize a joint policy for one instance")
    p.add_argument("-d", "--domain", required=True, help="domain file")
    p.add_argument("-p", "--problem", required=True, help="problem file")
    p.add_argument("-o", "--out", required=True, help="policy JSON to write")
    p.add_argument("--metrics", help="also write a one-row metrics CSV")
    p.set_defaults(fn=cmd_plan)

    s = sub.add_parser("simulate", help="replay a policy file")
    s.add_argument("-P", "--policy", required=True, help="policy JSON from plan")
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help="enumerate every human alternative")
    mode.add_argument("--interactive", action="store_true",
                      help="terminal stepper; you choose the human's moves")
    s.add_argument("--seed", type=int, default=0,
                   help="seed for the interactive default suggestion")
    s.set_defaults(fn=cmd_simulate)

    b = sub.add_parser("bench", help="run the shipped instances and compare "
                                     "structural metrics against targets")
    b.add_argument("-o", "--out", help="metrics CSV to write")
    b.set_defaults(fn=cmd_bench)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
