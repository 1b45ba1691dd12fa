"""Replay on a shared call memo and a shared ground table.

`simulate` keeps each state's offered successors in the call memo, and
`communication_is_load_bearing` runs all of its dropped-edge replays on one
memo.  A warm memo must not change what a replay reports.  A call memo
belongs to one call, shared only with the calls nested in it, or to one
loaded policy file, shared by every call on that loaded model.  Each
dropped-edge replay heads first for the dropped edge and stops at its first
DEAD trace: a load-bearing speech act costs only the states on the way to
it, and one that is not costs the whole cut policy, with the verdict of a
full replay either way.
Each policy file parses its domain afresh, and the parse takes the table
already ground for equal declarations.
"""

import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from ehatp import cli, htn, kernel, solver
from ehatp.cli import (
    communication_edges,
    communication_is_load_bearing,
    read_policy_file,
    simulate,
)
from ehatp.dsl import load_instance, load_shipped, parse_domain, parse_problem
from ehatp.kernel import state_copresent
from ehatp.solver import DONE, Policy, PolicyNode, solve
from helpers import cold, drop_edge, traces

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "planbench"))
from variants import draws  # noqa: E402

GOLDEN = sorted((ROOT / "planbench" / "golden").glob("*.policy.json"))


def _descriptions(report):
    return [t.describe() for t in report.traces]


def _variant_policies():
    dom = parse_domain(load_shipped("cube_org"))
    out = []
    for d in draws(3):
        prob = parse_problem(d.text(), dom)
        res = solve(dom, prob)
        if res.policy is not None:
            out.append((d.name, dom, prob, res.policy))
    return out


def _shipped_policies():
    return [(p.name, *read_policy_file(p)) for p in GOLDEN]


@pytest.fixture(scope="module")
def policies():
    found = _shipped_policies() + _variant_policies()
    assert len(found) > len(GOLDEN) + 10
    return found


def test_a_warm_memo_replays_as_a_fresh_one(policies):
    for name, dom, prob, policy in policies:
        # A loaded policy's own memo, or a new one for a parsed model.
        warm = kernel.with_call_memo(dom)

        def fresh(replayed):
            alone = dom.with_fresh_memo()
            assert alone.memo is not warm.memo
            return _descriptions(simulate(alone, prob, replayed))

        edges = communication_edges(policy)
        # Warm the memo with every dropped-edge replay, then replay it all.
        for nid in edges:
            cut = drop_edge(policy, nid)
            assert _descriptions(simulate(warm, prob, cut)) == fresh(cut), name
        assert _descriptions(simulate(warm, prob, policy)) == fresh(policy), name
        assert _descriptions(simulate(warm, prob, policy)) == fresh(policy), name


def test_traces_come_in_policy_preorder(policies):
    for name, dom, prob, policy in policies:
        report = simulate(dom, prob, policy)
        assert report.ok, name
        assert [tuple(st.action for st in t.steps) for t in report.traces] == traces(policy), name


def test_load_bearing_verdict_matches_fresh_replays(policies):
    spoke = 0
    for name, dom, prob, policy in policies:
        edges = communication_edges(policy)
        spoke += bool(edges)
        alone = [dom.with_fresh_memo() for _ in edges]
        assert all(a.memo is not dom.memo for a in alone)
        fresh = all(not simulate(a, prob, drop_edge(policy, nid)).ok
                    for a, nid in zip(alone, edges))
        assert communication_is_load_bearing(dom, prob, policy) == fresh, name
    assert spoke >= 3


@pytest.fixture
def expanded(monkeypatch):
    """The signature of each state `simulate` expands, in order."""
    seen = []
    real = cli.offers

    def counting(d, p, s):
        seen.append(s.signature())
        return real(d, p, s)

    monkeypatch.setattr(cli, "offers", counting)
    return seen


def test_a_memo_belongs_to_one_call_or_one_loaded_policy(expanded):
    dom, prob, policy = read_policy_file(GOLDEN[0])
    # Two calls on one loaded policy expand each state once in total.
    assert kernel.with_call_memo(dom) is dom
    simulate(dom, prob, policy)
    once = len(expanded)
    assert once > 0 and len(set(expanded)) == once
    simulate(dom, prob, policy)
    assert len(expanded) == once
    # A second load of the same file shares nothing with the first.
    again, prob, policy = read_policy_file(GOLDEN[0])
    assert again.memo is not dom.memo
    simulate(again, prob, policy)
    assert len(expanded) == 2 * once
    # On a parsed model, two calls in a row each start from an empty memo.
    parsed, prob = load_instance(GOLDEN[0].name.split(".")[0])
    simulate(parsed, prob, policy)
    simulate(parsed, prob, policy)
    assert len(expanded) == 4 * once and parsed.memo == {}
    assert kernel.with_call_memo(parsed) is not kernel.with_call_memo(parsed)
    # Calls made inside one call memo share it.
    outer = kernel.with_call_memo(parsed)
    assert kernel.with_call_memo(outer) is outer
    simulate(outer, prob, policy)
    simulate(outer, prob, policy)
    assert len(expanded) == 5 * once


def test_load_bearing_check_expands_each_state_once(expanded):
    dom, prob, policy = read_policy_file(GOLDEN[-1])
    assert len(communication_edges(policy)) > 1
    communication_is_load_bearing(dom, prob, policy)
    assert expanded and len(set(expanded)) == len(expanded)


# Successors built (``_step`` and ``synthesize_communication`` calls) per
# golden policy: by `simulate`, then by the load-bearing check on the same
# loaded policy, and by the check alone on a fresh memo.
BUILT = {"cooking1": (103, 0, 0), "cooking2": (103, 0, 0), "cooking3": (103, 0, 0),
         "p1": (39, 0, 0), "p2": (39, 0, 10), "p3": (72, 0, 0), "p4": (73, 0, 24),
         "p5": (61, 0, 0), "p6": (63, 0, 24)}


def test_a_replay_builds_only_the_successors_it_follows(monkeypatch):
    built = []
    for name in ("_step", "synthesize_communication"):
        real = getattr(solver, name)

        def counting(*args, name=name, real=real, **kwargs):
            dom, s, what, *_ = inspect.signature(real).bind(*args, **kwargs).args
            # a refinement, None or a fact to settle: one per (label, position)
            built.append((name, s.signature(), str(what)))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, counting)
    got = {}
    kinds = {run: Counter() for run in ("simulate", "check", "fresh check")}
    for path in GOLDEN:
        dom, prob, policy = read_policy_file(path)
        counts = []
        for (run, kind), on in zip(kinds.items(), (dom, dom, dom.with_fresh_memo())):
            call = simulate if run == "simulate" else communication_is_load_bearing
            built.clear()
            call(on, prob, policy)
            assert len(set(built)) == len(built), path.name
            counts.append(len(built))
            kind.update(name for name, _, _ in built)
        got[path.name.split(".")[0]] = tuple(counts)
    assert got == BUILT
    # Building every option at each state, as `expand` does, made 810 and
    # 87 steps.
    assert kinds["simulate"] == {"_step": 651, "synthesize_communication": 5}
    # The check follows only states `simulate` followed; alone, it stops
    # early, building only the way to each speech act.
    assert kinds["check"] == {}
    assert kinds["fresh check"] == {"_step": 58}


def _path_to(policy, nid):
    """Ids of the nodes from the root down to ``nid``'s parent."""
    parent = {c: n.id for n in policy.nodes for c in n.children}
    path = []
    while nid in parent:
        nid = parent[nid]
        path.append(nid)
    return path[::-1]


def test_load_bearing_check_expands_only_the_way_to_each_speech_act(expanded):
    counts = {}
    for name in ("p2", "p4", "p6"):
        dom, prob = load_instance(name)
        res = solve(dom, prob)
        policy, states = _unfold(dom, res.root, _extracted(res))
        assert policy.node_dicts() == res.policy.node_dicts(), name
        # Each dropped-edge replay stops at the dropped edge's parent, a
        # robot node left with no child: every state on the way is
        # expanded, the parent is only evaluated.
        on_the_way = set()
        for nid in communication_edges(policy):
            cut = drop_edge(policy, nid)
            on_the_way |= {states[a].signature()
                           for a in _path_to(policy, nid) if cut.nodes[a].children}
        expanded.clear()
        assert communication_is_load_bearing(dom, prob, policy), name
        assert sorted(expanded) == sorted(on_the_way), name
        counts[name] = len(expanded)
    assert counts == {"p2": 9, "p4": 21, "p6": 21}


def _unfold(dom, root, keep):
    """The policy tree below ``root`` that keeps the edges ``keep(node)``
    names at each search node, with preorder ids, and each node's state."""
    nodes, states = [], []
    stack = [(root, None, None)]
    while stack:
        n, edge, parent = stack.pop()
        kept = keep(n)
        pn = PolicyNode(len(nodes), n.kind if kept else "LEAF", n.state.actor, edge,
                        state_copresent(dom, n.state), [])
        nodes.append(pn)
        states.append(n.state)
        if parent is not None:
            parent.children.append(pn.id)
        stack.extend((c, label, pn) for label, c in reversed(kept))
    return Policy(nodes), states


def _extracted(res):
    """The ``keep`` of `_unfold` that rebuilds ``res.policy``."""
    def keep(n):
        if not n.children:
            return []
        return [n.choice] if n.kind == "OR" else n.children
    return keep


def test_a_speech_act_with_a_finished_alternative_is_not_load_bearing(expanded):
    dom, prob = load_instance("p2")
    res = solve(dom, prob)
    extracted = _extracted(res)
    assert _unfold(dom, res.root, extracted)[0].node_dicts() == res.policy.node_dicts()

    def both(n):
        # Where the robot informs, it could also stand by and still finish.
        kept = extracted(n)
        noop = [(l, c) for l, c in n.children or () if l == "noop" and c.status == DONE]
        return kept + noop if kept and kept[0][0] == "inform-empty(box_2)" else kept

    policy, states = _unfold(dom, res.root, both)
    edges = communication_edges(policy)
    inform = edges[0]
    assert [policy.nodes[c].edge for c in policy.nodes[_path_to(policy, inform)[-1]].children] \
        == ["inform-empty(box_2)", "noop"]
    assert simulate(dom, prob, policy).ok
    cut = drop_edge(policy, inform)
    assert simulate(dom, prob, cut).ok
    fresh = all(not simulate(dom, prob, drop_edge(policy, nid)).ok for nid in edges)

    expanded.clear()
    assert communication_is_load_bearing(dom, prob, policy) is fresh is False
    # No trace of the first cut dies, so the check walks the whole of it.
    assert sorted(expanded) == sorted({states[n.id].signature() for n in cut.nodes if n.children})


def test_a_second_read_of_a_policy_file_grounds_nothing(monkeypatch):
    path = ROOT / "planbench" / "golden" / "p6.policy.json"
    first = simulate(*read_policy_file(path))
    grounded = []
    ground = htn._ground
    monkeypatch.setattr(htn, "_ground",
                        lambda dom, head: grounded.append(head) or ground(dom, head))
    dom, prob, policy = read_policy_file(path)
    assert simulate(dom, prob, policy) == first
    assert grounded == []
    assert simulate(cold(dom), prob, policy) == first
    assert grounded  # the counter counts on a table nobody warmed


def test_replay_of_a_policy_deeper_than_the_recursion_limit():
    ticks = sys.getrecursionlimit() // 2 + 100
    dom = parse_domain(f"""
domain chain {{
  place here
  action tick by R at here {{ }}
  method run steps {{ sub {", ".join(["tick"] * ticks)} }}
  method idle rest {{ }}
}}
""")
    prob = parse_problem("""
problem chain {
  domain chain
  k 0
  communication off
  robot at here
  human at here
  task R run
  task H idle
  init { }
}
""", dom)
    policy = solve(dom, prob).policy
    # The human waits out every tick: one level per turn.
    assert len(policy.nodes) == 2 * ticks + 1 > sys.getrecursionlimit()
    report = simulate(dom, prob, policy)
    assert report.ok and len(report.traces) == 1
    assert len(report.traces[0].steps) == 2 * ticks
