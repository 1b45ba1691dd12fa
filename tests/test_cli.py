"""Front-end behavior: exit codes, policy files, replay, stepper, bench."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehatp import cli
from ehatp.cli import (
    BENCH_TARGETS,
    communication_edges,
    communication_is_load_bearing,
    main,
    read_policy_file,
    run_interactive,
    simulate,
    write_policy_file,
)
from ehatp.dsl import load_instance, load_shipped
from ehatp.kernel import state_copresent
from ehatp.solver import DONE, Policy, PolicyNode, solve
from helpers import drop_edge

STUCK_DOMAIN = """\
domain stuck {
  type thing
  place mt
  object treasure thing
  predicate have(thing) inferable
  copresent when at(R,P), at(H,P)
  action grab() by R at mt {
    pre have(treasure)
    add have(treasure)
  }
  method find_it only_way {
    sub grab()
  }
  method rest none_needed {
  }
}
"""

STUCK_PROBLEM = """\
problem hopeless {
  domain stuck
  k 1
  communication off
  robot at mt
  human at mt
  task R find_it
  task H rest
  init {
  }
}
"""


@pytest.fixture(scope="module")
def p2_policy(tmp_path_factory):
    out = tmp_path_factory.mktemp("pol") / "p2.json"
    dom, prob = load_instance("p2")
    res = solve(dom, prob)
    write_policy_file(out, load_shipped("cube_org"), load_shipped("p2"),
                      res.policy)
    return out


def _data_path(name):
    import ehatp
    return str(Path(ehatp.__file__).parent / "data" / f"{name}.ehatp")


# -- plan ------------------------------------------------------------------


def test_plan_writes_policy_and_metrics(tmp_path, capsys):
    out = tmp_path / "p1.json"
    csv = tmp_path / "p1.csv"
    code = main(["plan", "-d", _data_path("cube_org"), "-p", _data_path("p1"),
                 "-o", str(out), "--metrics", str(csv)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert {"domain", "problem", "nodes"} <= set(doc)
    header, row = csv.read_text().splitlines()
    assert header == "instance,K,comm,states,maxW,leaves,time_ms"
    fields = row.split(",")
    assert fields[0] == "p1" and fields[4] == "4" and fields[5] == "3"


def test_plan_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.ehatp"
    bad.write_text("garbage {\n")
    code = main(["plan", "-d", str(bad), "-p", _data_path("p1"),
                 "-o", str(tmp_path / "x.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-d", "-p"])
def test_plan_rejects_a_file_that_is_not_utf8(tmp_path, capsys, no_search, flag):
    bad = tmp_path / "bad.ehatp"
    bad.write_bytes(b"domain \xff {\n")
    paths = {"-d": _data_path("cube_org"), "-p": _data_path("p1"), flag: str(bad)}
    argv = ["plan", "-d", paths["-d"], "-p", paths["-p"], "-o", str(tmp_path / "x.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("old, new, declaration", [
    ("rule see_on_table: on(C, P) when at(observer, P)\n",
     "rule see_on_table: on(C, P) when at(observer, P), not transparent(X)\n",
     "see_on_table"),
    ("copresent when at(R, P), at(H, P)\n",
     "copresent when at(R, P), at(H, P), not holding(A, C)\n",
     "copresent when"),
])
def test_plan_rejects_an_unbound_negative_at_its_declaration(tmp_path, capsys,
                                                             old, new, declaration):
    text = load_shipped("cube_org")
    assert old in text
    bad = tmp_path / "cube_org.ehatp"
    bad.write_text(text.replace(old, new))
    code = main(["plan", "-d", str(bad), "-p", _data_path("p1"),
                 "-o", str(tmp_path / "x.json")])
    at = text.index(declaration)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"{bad}:{line}:{col}: error: variable ")


GOLDEN_P2 = Path(__file__).resolve().parents[1] / "planbench" / "golden" / "p2.policy.json"


def test_a_recursive_domain_is_rejected_by_simulate_and_plan(tmp_path, capsys):
    """Two methods that expand into each other, spliced into the domain a
    frozen policy file embeds: every entry point rejects them at the first."""
    doc = json.loads(GOLDEN_P2.read_text(encoding="utf-8"))
    end = doc["domain"].rindex("}")
    text = doc["domain"] = (doc["domain"][:end] + "  method loop_a la {\n    sub loop_b\n  }\n"
                            "  method loop_b lb {\n    sub loop_a\n  }\n" + doc["domain"][end:])
    at = text.index("loop_a la")
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    error = f"{line}:{col}: error: recursive task decomposition: loop_a -> loop_b -> loop_a"

    policy = tmp_path / "p2.policy.json"
    policy.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "-P", str(policy), "--exhaustive"]) == 1
    assert capsys.readouterr().err == f"error: cannot load policy: {policy}#domain:{error}\n"

    dom, prob = tmp_path / "cube_org.ehatp", tmp_path / "p2.ehatp"
    dom.write_text(text, encoding="utf-8")
    prob.write_text(doc["problem"], encoding="utf-8")
    assert main(["plan", "-d", str(dom), "-p", str(prob), "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"{dom}:{error}\n"


@pytest.mark.parametrize("edit", ["robot-root-task", "guarded-method"])
def test_a_human_root_task_reaching_a_robot_action_is_rejected_by_simulate_and_plan(
        tmp_path, capsys, edit):
    """The human's root task swapped for the robot's, or one guarded method
    that picks a cube added to the human's: the frozen p2 policy file and
    its two model files are rejected at the problem's ``task H`` line."""
    doc = json.loads(GOLDEN_P2.read_text(encoding="utf-8"))
    if edit == "robot-root-task":
        task = "organize"
        doc["problem"] = doc["problem"].replace("task H organize_h", "task H organize")
    else:
        task = "organize_h"
        end = doc["domain"].rindex("}")
        doc["domain"] = (doc["domain"][:end] + "  method organize_h borrow_gripper {\n"
                         "    pre on(c_y, mt)\n    sub pick(c_y, mt)\n  }\n" + doc["domain"][end:])
    text = doc["problem"]
    at = text.index("task H ") + len("task H ")
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    error = f"{line}:{col}: error: root task {task!r} of H decomposes to 'pick', an action of R"

    policy = tmp_path / "p2.policy.json"
    policy.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "-P", str(policy), "--exhaustive"]) == 1
    assert capsys.readouterr().err == f"error: cannot load policy: {policy}#problem:{error}\n"

    dom, prob = tmp_path / "cube_org.ehatp", tmp_path / "p2.ehatp"
    dom.write_text(doc["domain"], encoding="utf-8")
    prob.write_text(text, encoding="utf-8")
    assert main(["plan", "-d", str(dom), "-p", str(prob), "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"{prob}:{error}\n"


FLIP_DOMAIN = """\
domain flipper {
  type thing
  place mt
  object x thing
  predicate p(thing) inferable
  action flip(X thing, Y thing) by R at mt {
    add p(X)
    del p(Y)
  }
  method flip_one once {
    sub flip(x, x)
  }
  method rest idle {
  }
}
"""

FLIP_PROBLEM = STUCK_PROBLEM.replace("hopeless", "flip_x").replace("stuck", "flipper") \
    .replace("task R find_it", "task R flip_one")


def _move_without_its_delete():
    text = load_shipped("cube_org")
    assert "    del at(H, From)\n" in text
    return text.replace("    del at(H, From)\n", "")


@pytest.mark.parametrize("domain, problem, action, message", [
    pytest.param(_move_without_its_delete(), load_shipped("p6"), "move(",
                 "action move adds at(H,To) without deleting a place of H it requires",
                 id="agent-at-two-places"),
    pytest.param(FLIP_DOMAIN, FLIP_PROBLEM, "flip(",
                 "action flip adds p(X) and deletes p(Y), one atom when X = Y",
                 id="conflicting-effects"),
])
def test_plan_rejects_clashing_effects_at_the_action(tmp_path, capsys, domain, problem,
                                                     action, message):
    """Two domains that once crashed the search, one with an agent at two
    places and one adding and deleting ``p(x)``: a diagnostic, no traceback."""
    dom, prob = tmp_path / "d.ehatp", tmp_path / "p.ehatp"
    dom.write_text(domain, encoding="utf-8")
    prob.write_text(problem, encoding="utf-8")
    at = domain.index(f"action {action}") + len("action ")
    line, col = domain.count("\n", 0, at) + 1, at - domain.rfind("\n", 0, at)
    assert main(["plan", "-d", str(dom), "-p", str(prob), "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"{dom}:{line}:{col}: error: {message}\n"


def test_simulate_rejects_a_policy_whose_domain_leaves_an_agent_at_two_places(tmp_path, capsys):
    doc = json.loads(GOLDEN_P2.read_text(encoding="utf-8"))
    text = doc["domain"] = doc["domain"].replace("    del at(H, From)\n", "")
    at = text.index("action move(") + len("action ")
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    policy = tmp_path / "p2.policy.json"
    policy.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "-P", str(policy), "--exhaustive"]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot load policy: {policy}#domain:{line}:{col}: error: "
        "action move adds at(H,To) without deleting a place of H it requires\n")


def test_a_false_belief_note_names_the_problem_file(tmp_path, capsys):
    text = load_shipped("p1")
    problem = tmp_path / "p1b.ehatp"
    problem.write_text(text.replace("  init {", "  believe not transparent(box_2)\n  init {"))
    main(["plan", "-d", _data_path("cube_org"), "-p", str(problem),
          "-o", str(tmp_path / "x.json")])
    notes = [l for l in capsys.readouterr().err.splitlines() if ": note: " in l]
    line = text[:text.index("  init {")].count("\n") + 1
    assert notes == [f"{problem}:{line}:3: note: initial false belief: "
                     "human believes not transparent(box_2)"]


def test_plan_reports_unsolvable_instance(tmp_path, capsys):
    d = tmp_path / "stuck.ehatp"
    p = tmp_path / "hopeless.ehatp"
    d.write_text(STUCK_DOMAIN)
    p.write_text(STUCK_PROBLEM)
    code = main(["plan", "-d", str(d), "-p", str(p),
                 "-o", str(tmp_path / "x.json")])
    assert code == 2
    # No plan exists, and the queue empties with the root unsettled.
    assert "no joint solution for hopeless: search exhausted" in capsys.readouterr().err


def test_policy_file_round_trip(p2_policy):
    dom, prob, policy = read_policy_file(p2_policy)
    assert prob.name == "p2"
    again = json.loads(policy.to_json())["nodes"]
    original = json.loads(p2_policy.read_text())["nodes"]
    assert again == original


def _leaf(nodes):
    return next(i for i, n in enumerate(nodes) if not n["children"])


# One edit each to a policy file, and the fault the loader names.
MALFORMED = {
    "child out of range": (lambda ns: ns[0]["children"].append(99), "lists child 99"),
    "negative child": (lambda ns: ns[0]["children"].append(-1), "lists child -1"),
    "leaf back to the root": (lambda ns: ns[_leaf(ns)]["children"].append(0),
                              "lists child 0"),
    "no nodes": (lambda ns: ns.clear(), "policy has no nodes"),
    "id out of place": (lambda ns: ns[1].update(id=7), "node 1 has id 7"),
    "id as a bool": (lambda ns: ns[1].update(id=True), "node 1 has id True"),
    "edge on the root": (lambda ns: ns[0].update(edge="wait"), "node 0 has edge 'wait'"),
    "no edge below the root": (lambda ns: ns[1].update(edge=None), "node 1 has edge None"),
    "child listed twice": (lambda ns: ns[0]["children"].append(ns[0]["children"][0]),
                           "is listed as a child 2 times"),
    "orphan": (lambda ns: ns[0]["children"].pop(), "is listed as a child 0 times"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_simulate_rejects_a_malformed_policy_file(p2_policy, tmp_path, capsys, case):
    edit, message = MALFORMED[case]
    doc = json.loads(p2_policy.read_text())
    edit(doc["nodes"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        read_policy_file(bad)
    assert main(["simulate", "-P", str(bad), "--exhaustive"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load policy: ") and message in err


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("text", [DEEP, '{"nodes": ' + DEEP + "}"],
                         ids=["bare", "under nodes"])
def test_simulate_reports_a_deeply_nested_policy_file_in_one_line(tmp_path, text):
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    run = subprocess.run([sys.executable, "-m", "ehatp.cli", "simulate", "-P", str(bad),
                          "--exhaustive"], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert run.returncode == 1
    assert run.stderr.startswith("error: cannot load policy: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


# -- fuzzed policy files ---------------------------------------------------

GOLDEN_P2 = Path(__file__).resolve().parents[1] / "planbench" / "golden" / "p2.policy.json"
P2_TEXT = GOLDEN_P2.read_text(encoding="utf-8")
P2_NODES = json.loads(P2_TEXT)["nodes"]
NODE_FIELDS = ("id", "kind", "actor", "edge", "copresent", "children")
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, len(P2_NODES) + 1), st.just({}),
    st.sampled_from(["", "R", "H", "OR", "AND", "LEAF", "noop", "wait", "x",
                     "inform-clear(box_1)", "ask-inside(c_y,box_1)"]),
    st.lists(st.integers(-1, len(P2_NODES)), max_size=3))
SPLICE = st.text(st.sampled_from(list('{}[]",:0123456789 \n-_etnaslr') + ["é"]), max_size=6)
HOW = ("set field", "drop field", "drop node", "copy node", "swap nodes", "top level",
       "source text", "file text", "file bytes")


def _splice(draw, text):
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(SPLICE) + text[at + draw(st.integers(0, 6)):]


@st.composite
def mutated_p2(draw):
    """The bytes of the golden p2 policy file after one edit: of a node, of
    the node list, of a top-level field, of the embedded sources, or of the
    file's text or bytes."""
    how = draw(st.sampled_from(HOW))
    doc = json.loads(P2_TEXT)
    nodes = doc["nodes"]
    pick = st.integers(0, len(nodes) - 1)
    if how == "set field":
        nodes[draw(pick)][draw(st.sampled_from(NODE_FIELDS + ("extra",)))] = draw(JSON_VALUES)
    elif how == "drop field":
        del nodes[draw(pick)][draw(st.sampled_from(NODE_FIELDS))]
    elif how == "drop node":
        del nodes[draw(pick)]
    elif how == "copy node":
        nodes.insert(draw(pick), json.loads(json.dumps(nodes[draw(pick)])))
    elif how == "swap nodes":
        i, j = draw(pick), draw(pick)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    elif how == "top level":
        doc[draw(st.sampled_from(("domain", "problem", "nodes", "extra")))] = draw(JSON_VALUES)
    elif how == "source text":
        field = draw(st.sampled_from(("domain", "problem")))
        doc[field] = _splice(draw, doc[field])
    text = P2_TEXT if how.startswith("file") else json.dumps(doc, indent=2)
    if how == "file text":
        text = _splice(draw, text)
    data = text.encode("utf-8")
    if how == "file bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


def _simulate(path: Path) -> tuple[int, str]:
    """``ehatp simulate --exhaustive`` on ``path`` in this process: the exit
    code and what went to standard error.  An exception escapes."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["simulate", "-P", str(path), "--exhaustive"])
    return code, err.getvalue()


def test_simulate_accepts_the_golden_file_unmutated():
    assert _simulate(GOLDEN_P2) == (0, "")


def _canonical(nodes) -> str:
    return json.dumps(nodes, sort_keys=True)  # tells ``true`` from ``1``


@settings(max_examples=300)
@given(data=mutated_p2())
def test_simulate_survives_a_mutated_policy_file(tmp_path_factory, data):
    """No traceback, a documented exit code, and success only for a file
    whose nodes are the golden ones (its sources may differ)."""
    path = tmp_path_factory.getbasetemp() / "mutated.policy.json"
    path.write_bytes(data)
    code, err = _simulate(path)
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 0:
        assert _canonical(json.loads(data)["nodes"]) == _canonical(P2_NODES)


# -- exhaustive replay -----------------------------------------------------


def test_exhaustive_replay_covers_all_branches(tmp_path, capsys):
    out = tmp_path / "p1.json"
    assert main(["plan", "-d", _data_path("cube_org"), "-p", _data_path("p1"),
                 "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "-P", str(out), "--exhaustive"]) == 0
    got = capsys.readouterr().out
    assert "3 traces, all DONE" in got


def test_a_method_chain_deeper_than_the_recursion_limit_plans_and_replays(tmp_path, capsys):
    """A non-recursive chain of methods, each task expanding into the next,
    deeper than the interpreter's recursion limit: the parser, the HTN's
    walk and its relevance masks follow it without recursing."""
    depth = max(3000, sys.getrecursionlimit() + 100)
    methods = "\n".join(f"  method t{i} step {{ sub t{i + 1} }}" for i in range(depth))
    dom = tmp_path / "chain.ehatp"
    dom.write_text(f"""domain chain {{
  place here
  action tick by R at here {{ }}
{methods}
  method t{depth} step {{ sub tick }}
  method idle rest {{ }}
}}
""")
    prob = tmp_path / "p.ehatp"
    prob.write_text("""problem deep {
  domain chain
  k 0
  communication off
  robot at here
  human at here
  task R t0
  task H idle
  init { }
}
""")
    out = tmp_path / "deep.json"
    assert main(["plan", "-d", str(dom), "-p", str(prob), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["simulate", "-P", str(out), "--exhaustive"]) == 0
    assert "all DONE" in capsys.readouterr().out


def test_replay_records_world_collapse(p2_policy):
    dom, prob, policy = read_policy_file(p2_policy)
    report = simulate(dom, prob, policy)
    assert report.ok
    informed = next(t for t in report.traces
                    if any(st.action.startswith("inform-") for st in t.steps))
    inform = next(st for st in informed.steps
                  if st.action.startswith("inform-"))
    assert inform.actor == "R" and inform.copresent and inform.worlds == 1


def test_deleted_inform_edge_is_caught(p2_policy, capsys):
    dom, prob, policy = read_policy_file(p2_policy)
    nid = communication_edges(policy)[0]
    report = simulate(dom, prob, drop_edge(policy, nid))
    assert not report.ok
    assert any(t.outcome != DONE for t in report.traces)


def test_uncovered_human_branch_is_caught(p2_policy):
    dom, prob, policy = read_policy_file(p2_policy)
    # Sever one of the root's human alternatives: replay must notice that
    # the human could still take it.
    root_kid = policy.nodes[0].children[-1]
    report = simulate(dom, prob, drop_edge(policy, root_kid))
    assert not report.ok
    assert any("uncovered human alternative" in t.note for t in report.traces)


def test_single_speech_act_is_load_bearing(p2_policy):
    dom, prob, policy = read_policy_file(p2_policy)
    assert len(communication_edges(policy)) == 1
    assert communication_is_load_bearing(dom, prob, policy)


# -- interactive stepper ---------------------------------------------------


def _feed(monkeypatch, lines):
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(l + "\n" for l in lines)))


def test_stepper_follows_the_plan(p2_policy, monkeypatch, capsys):
    dom, prob, policy = read_policy_file(p2_policy)
    _feed(monkeypatch, ["1"] * 8)
    assert run_interactive(dom, prob, policy) == 0
    got = capsys.readouterr().out
    assert "robot: inform-empty(box_2)" in got
    assert "worlds=1" in got
    assert "finished: DONE" in got
    # The run kept the options of each state it stepped through in the
    # loaded policy's memo ...
    turns = {l.split("]")[0] for l in got.splitlines() if l.startswith("[t")}
    offered = [k for k in dom.memo if type(k) is tuple and k[0] == "offer"]
    assert turns and len(offered) == len(turns)
    # ... and on a parsed model, in a call memo of its own.
    parsed, prob = load_instance("p2")
    _feed(monkeypatch, ["1"] * 8)
    assert run_interactive(parsed, prob, policy) == 0
    assert capsys.readouterr().out == got
    assert parsed.memo == {}


GOLDEN_P2 = Path(__file__).resolve().parents[1] / "planbench" / "golden" / "p2.policy.json"


def _golden_p2_with(tmp_path, edits: dict) -> str:
    """A copy of the golden p2 policy file with ``edits`` (node index ->
    fields to set) applied, as a path."""
    doc = json.loads(GOLDEN_P2.read_text(encoding="utf-8"))
    for i, fields in edits.items():
        doc["nodes"][i].update(fields)
    path = tmp_path / "p2.policy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_stepper_stops_at_a_node_that_misstates_the_stepped_state(tmp_path, monkeypatch,
                                                                  capsys):
    nodes = json.loads(GOLDEN_P2.read_text(encoding="utf-8"))["nodes"]
    flipped = {i: {"copresent": not nodes[i]["copresent"]} for i in (0, 1)}
    root = nodes[0]
    other = "R" if root["actor"] == "H" else "H"
    swapped = {0: {"actor": other, "kind": "OR" if other == "R" else "AND"}}
    for edits, field, recorded, replayed in (
            (flipped, "copresent", not root["copresent"], root["copresent"]),
            (swapped, "actor", other, root["actor"])):
        _feed(monkeypatch, [""] * 20)
        path = _golden_p2_with(tmp_path, edits)
        assert main(["simulate", "-P", path, "--interactive"]) == 2, field
        got = capsys.readouterr()
        assert f"node 0 records {field} {recorded!r}, the replay {replayed!r}" in got.err
        assert "finished" not in got.out
    _feed(monkeypatch, [""] * 20)
    assert main(["simulate", "-P", _golden_p2_with(tmp_path, {}), "--interactive"]) == 0
    assert "finished: DONE" in capsys.readouterr().out


def test_stepper_lets_the_human_wait_for_the_answer(monkeypatch, capsys):
    # Build a policy that routes through the branch where the robot stands
    # by at the reunion and the blocked human may ask or wait; choosing
    # "wait" must make the robot answer on its next turn, collapsing the
    # worlds to the designated one.
    dom, prob = load_instance("p2")
    res = solve(dom, prob, exhaust=True)
    blocked = next(
        n for n in res.all_nodes
        if n.children and sorted(l for l, _ in n.children) == ["ask-empty(box_2)", "wait"])

    spine = []
    cur = blocked
    while cur.parents:
        parent = cur.parents[0]
        label = next(l for l, c in parent.children if c is cur)
        spine.append((parent, label, cur))
        cur = parent
    spine.reverse()

    nodes: list[PolicyNode] = []

    def build(n, edge, spine_i):
        pid = len(nodes)
        pn = PolicyNode(pid, n.kind, n.state.actor, edge,
                        state_copresent(dom, n.state), [])
        nodes.append(pn)
        if spine_i is not None and spine_i < len(spine):
            _, label, child = spine[spine_i]
            kept = [(label, child, spine_i + 1)]
        elif not n.children:
            nodes[pid] = pn._replace(kind="LEAF")
            return pid
        elif n.kind == "OR":
            label, child = next((l, c) for l, c in n.children
                                if c.status == DONE)
            kept = [(label, child, None)]
        else:
            kept = [(l, c, None) for l, c in n.children]
        for label, child, si in kept:
            pn.children.append(build(child, label, si))
        return pid

    build(spine[0][0], None, 0)
    policy = Policy(nodes)

    _feed(monkeypatch, ["1"] * 5 + ["2"] + ["1"] * 4)
    assert run_interactive(dom, prob, policy) == 0
    got = capsys.readouterr().out
    assert "wait" in got
    after_wait = got.split("human: wait", 1)[1]
    assert "robot: inform-empty(box_2)" in after_wait
    assert "worlds=1" in after_wait


def _takes_the_suggested_choice(monkeypatch, capsys, first: str) -> None:
    """The stepper on the golden p2 policy, replying ``first`` and then
    ``q``, plays the suggested choice at its first prompt."""
    prompts, replies = [], iter([first, "q"])

    def reply(prompt):
        prompts.append(prompt)
        return next(replies)

    monkeypatch.setattr("builtins.input", reply)
    assert main(["simulate", "-P", str(GOLDEN_P2), "--interactive"]) == 1
    out = capsys.readouterr().out
    hint = prompts[0].removeprefix("choice [").removesuffix("]: ")
    label = next(l.split(") ", 1)[1] for l in out.splitlines()
                 if l.startswith(f"  {hint}) "))
    assert f"[t0] human: {label.removesuffix('  (off plan)')}\n" in out
    assert out.endswith("stopped.\n")


def test_stepper_reads_a_non_decimal_digit_as_the_suggested_choice(monkeypatch, capsys):
    # ``'²'.isdigit()`` holds, but ``int('²')`` raises.
    _takes_the_suggested_choice(monkeypatch, capsys, "²")


def test_stepper_reads_a_number_too_long_for_int_as_the_suggested_choice(monkeypatch,
                                                                         capsys):
    # Decimal, but ``int()`` converts at most 4,300 digits.
    _takes_the_suggested_choice(monkeypatch, capsys, "1" * 5000)


def test_stepper_survives_off_plan_choices(monkeypatch, capsys):
    dom, prob = load_instance("p1")
    policy = solve(dom, prob).policy
    victim = next(n.id for n in policy.nodes
                  if n.edge == "pick_h(c_r,mt)" and n.id in policy.nodes[0].children)
    pruned = drop_edge(policy, victim)
    _feed(monkeypatch, ["2"] + ["1"] * 12)
    assert run_interactive(dom, prob, pruned) == 0
    got = capsys.readouterr().out
    assert "(off plan)" in got
    assert "finished: DONE (off plan)" in got


# -- bench -----------------------------------------------------------------


def test_bench_hits_every_target(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    assert main(["bench", "-o", str(csv)]) == 0
    got = capsys.readouterr().out
    assert got.count("[ok]") == len(BENCH_TARGETS)
    assert "MISMATCH" not in got
    lines = csv.read_text().splitlines()
    assert lines[0] == "instance,K,comm,states,maxW,leaves,time_ms"
    labels = [l.split(",")[0] for l in lines[1:]]
    assert labels == sorted(BENCH_TARGETS)


def test_bench_fails_on_a_missed_target(monkeypatch, capsys):
    max_worlds, branches = BENCH_TARGETS["p2"]
    monkeypatch.setitem(BENCH_TARGETS, "p2", (max_worlds + 1, branches))
    assert main(["bench"]) == 2
    got = capsys.readouterr().out
    assert got.count("MISMATCH") == 1
    assert "encodings to review: p2" in got


@pytest.fixture
def no_search(monkeypatch):
    """Output paths are checked before the search: here it may not run."""
    def refuse(dom, prob):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "solve", refuse)


@pytest.mark.parametrize("argv", [
    ["plan", "-o", "{missing}"],
    ["plan", "-o", "{ok}", "--metrics", "{missing}"],
    ["bench", "-o", "{missing}"],
], ids=["plan-out", "plan-metrics", "bench-out"])
def test_an_unwritable_output_path_is_a_diagnostic(tmp_path, capsys, no_search, argv):
    missing = tmp_path / "missing" / "out"
    argv = [a.format(missing=missing, ok=tmp_path / "p1.json") for a in argv]
    if argv[0] == "plan":
        argv += ["-d", _data_path("cube_org"), "-p", _data_path("p1")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert list(tmp_path.iterdir()) == []  # not even the policy before --metrics


def test_an_output_path_under_a_file_is_a_diagnostic(tmp_path, capsys, no_search):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out.csv"
    assert main(["bench", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


def test_log_channels_print_traces(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EHATP_LOG", "all")
    assert main(["plan", "-d", _data_path("cube_org"), "-p", _data_path("p1"),
                 "-o", str(tmp_path / "x.json")]) == 0
    err = capsys.readouterr().err
    assert "EXPAND:" in err
    assert "SA: removed" in err
