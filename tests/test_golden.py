"""The nine shipped plans, pinned to the frozen policy files, and the policy
reader's checks on the fields of every node of those files.

`planbench/golden/` holds each shipped instance's policy file as
`write_policy_file` writes it, and its `states`/`maxW`/`leaves`; this suite
only reads them.  A change to how a policy is built, stored or written that
moves one byte fails here, not only in the benchmark.
"""

import json
from pathlib import Path

import pytest

from ehatp.cli import _check_tree, main, read_policy_file, simulate, write_policy_file
from ehatp.dsl import load_instance, load_shipped
from ehatp.solver import DEAD, Policy, solve

GOLDEN = Path(__file__).resolve().parents[1] / "planbench" / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text(encoding="utf-8"))["shipped"]
NAMES = sorted(EXPECTED)


def test_the_golden_set_is_the_nine_shipped_instances():
    assert NAMES == sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.policy.json"))
    assert len(NAMES) == 9


@pytest.mark.parametrize("name", NAMES)
def test_each_shipped_plan_matches_its_golden_file(name, tmp_path):
    dom, prob = load_instance(name)
    res = solve(dom, prob)
    m = res.metrics
    assert {"states": m.states, "maxW": m.maxW, "leaves": m.leaves} == EXPECTED[name]
    out = tmp_path / f"{name}.policy.json"
    write_policy_file(out, load_shipped(dom.name), load_shipped(name), res.policy)
    assert out.read_bytes() == (GOLDEN / f"{name}.policy.json").read_bytes()


def _bad_values(node: dict, i: int) -> dict:
    """For each checked field, one value that is wrong for ``node`` whatever
    the replay would say, picked by the node's index ``i`` so that the
    nodes of a file between them try every kind of fault: a value of the
    wrong type, an unknown name, a leaf kind on a node with children (or the
    reverse), and an agent or kind that does not match the other field."""
    children = node["children"]
    if children:
        other = "H" if node["actor"] == "R" else "R"
        kinds = ["x", "LEAF", "AND" if other == "H" else "OR", None, "or"]
        actors = ["x", other, 3, None, []]
    else:
        kinds = ["OR", "AND", "x", None]
        actors = ["x", 3, None, [], "r"]
    lists = [None, "x", {}, [str(c) for c in children] or ["1"],
             [float(c) for c in children] or [1.0], [True] * max(1, len(children)), 0]
    flags = [None, "x", 0, 1, "true", []]
    return {field: values[i % len(values)] for field, values in (
        ("kind", kinds), ("actor", actors), ("copresent", flags), ("children", lists))}


@pytest.mark.parametrize("name", NAMES)
def test_simulate_rejects_a_wrong_field_on_any_node(name, tmp_path, capsys):
    text = (GOLDEN / f"{name}.policy.json").read_text(encoding="utf-8")
    bad = tmp_path / "bad.json"
    for i, node in enumerate(json.loads(text)["nodes"]):
        for field, value in _bad_values(node, i).items():
            doc = json.loads(text)
            doc["nodes"][i][field] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["simulate", "-P", str(bad), "--exhaustive"]) == 1, (i, field, value)
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot load policy: node {i} "), (i, field, value)
            assert "Traceback" not in err


def _misstatements(node: dict) -> dict:
    """For each field the replay checks, an edit of ``node`` that the reader
    accepts but that misstates the replayed state: ``copresent`` flipped,
    and the other agent as ``actor``, with the kind a node of that agent
    and those children has."""
    other = "H" if node["actor"] == "R" else "R"
    kind = ("OR" if other == "R" else "AND") if node["children"] else "LEAF"
    return {"copresent": {"copresent": not node["copresent"]},
            "actor": {"actor": other, "kind": kind}}


@pytest.mark.parametrize("name", NAMES)
def test_simulate_fails_a_node_that_misstates_the_replayed_state(name, tmp_path, capsys):
    """Every misstatement of every node fails the replay.  The file is loaded
    once and every edited copy replays on the loaded policy's call memo,
    which stays valid: an edit changes no replayed state.  The first edit of
    each field also goes through ``ehatp simulate`` whole."""
    path = GOLDEN / f"{name}.policy.json"
    text = path.read_text(encoding="utf-8")
    dom, prob, policy = read_policy_file(path)
    bad = tmp_path / "bad.json"
    shown = set()
    for i, node in enumerate(json.loads(text)["nodes"]):
        for field, edit in _misstatements(node).items():
            nodes = list(policy.nodes)
            nodes[i] = nodes[i]._replace(**edit)
            _check_tree(nodes)  # the reader accepts the edit
            report = simulate(dom, prob, Policy(nodes))
            assert not report.ok, (i, field)
            assert any(t.outcome == DEAD and f"[node {i} records {field} " in t.describe()
                       for t in report.traces), (i, field)
            if field in shown:
                continue
            shown.add(field)
            doc = json.loads(text)
            doc["nodes"][i].update(edit)
            bad.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["simulate", "-P", str(bad), "--exhaustive"]) == 2, (i, field)
            out = capsys.readouterr().out
            assert f"[node {i} records {field} " in out, (i, field)
    assert shown == {"copresent", "actor"}
