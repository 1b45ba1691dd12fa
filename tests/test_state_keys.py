"""Packed state keys: what they must not change.

A state's key is a tuple of interned ints, so two processes may key the same
state differently.  These tests pin what must stay the same anyway: the set
of states an exhaustive search reaches (as readable text, frozen before the
keys were packed) and the policy file a plan writes, whatever the process
handled before.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehatp
from ehatp import model
from ehatp.cli import write_policy_file
from ehatp.dsl import load_instance, load_shipped
from ehatp.model import BeliefBase, EpistemicState, Task, World
from ehatp.solver import solve
from helpers import base_of, describe, lit

# Count and SHA-256 of the newline-joined, sorted state signatures of the
# exhaustive search graph, recorded with string keys before the rewrite.
FROZEN_GRAPHS = {
    "p2": (78, "b7c983ae015651394107021b9b5a48d1a570d4293d5d57c5cfb1ce1593ccabc7"),
    "p6": (322, "f4a23520ce1b80ec0f2e4e2e5213d9b418a617266703869d52c56e608e5da8bb"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_GRAPHS))
def test_exhaustive_graph_matches_frozen_digest(name):
    dom, prob = load_instance(name)
    res = solve(dom, prob, exhaust=True)
    texts = sorted(describe(n.state) for n in res.all_nodes)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == FROZEN_GRAPHS[name]
    assert len({n.state.signature() for n in res.all_nodes}) == len(texts)


def test_describe_orders_worlds_by_their_text():
    b = base_of(lit("p"))
    later = World(b, b, b, tn_r=(Task("zz"),))
    earlier = World(b, b, b, tn_r=(Task("aa"),), acted=1, distinguishable=True)
    s = EpistemicState.make([later, earlier], designated=later, actor="H",
                            budget=2, pending=(lit("q"),))
    assert describe(s) == (
        "bel_r=p;bel_h=p;bel_rh=p;tn_r=[aa];tn_h=[];tn_rh=[];acted=1;dist"
        "||bel_r=p;bel_h=p;bel_rh=p;tn_r=[zz];tn_h=[];tn_rh=[];acted=0"
        "@d=1;actor=H;k=2;pending=[q]")


PLAN_P2 = """\
import sys
from ehatp import model
from ehatp.cli import write_policy_file
from ehatp.dsl import load_instance, load_shipped
from ehatp.solver import solve
res = solve(*load_instance("p2"))
write_policy_file(sys.argv[1], load_shipped("cube_org"), load_shipped("p2"), res.policy)
print(res.metrics.states, res.metrics.maxW, res.metrics.leaves)
print(*model._ATOMS, sep="\\n")
"""


def test_plan_is_independent_of_intern_history(tmp_path):
    fresh = tmp_path / "fresh.json"
    src = str(Path(ehatp.__file__).resolve().parents[1])
    counts, *fresh_order = subprocess.run(
        [sys.executable, "-c", PLAN_P2, str(fresh)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True).stdout.splitlines()

    # Atoms this process has not met yet get their bits in the reverse order.
    BeliefBase(lit(a) for a in reversed(fresh_order))
    for other in ("cooking3", "p6"):
        solve(*load_instance(other))
    res = solve(*load_instance("p2"))
    here = tmp_path / "here.json"
    write_policy_file(here, load_shipped("cube_org"), load_shipped("p2"), res.policy)

    met = set(fresh_order)
    assert [str(a) for a in model._ATOMS if str(a) in met] != fresh_order
    m = res.metrics
    assert counts == f"{m.states} {m.maxW} {m.leaves}"
    assert here.read_bytes() == fresh.read_bytes()


SUMMARIES_P4 = """\
import sys
from ehatp import model
from ehatp.cli import _divergence_summary
from ehatp.dsl import load_instance
from ehatp.solver import solve
from helpers import describe
for line in reversed(sys.stdin.read().splitlines()):
    pred, *args = line.split()
    model.atom_bit(model.Literal(pred, tuple(args)))
states = [n.state for n in solve(*load_instance("p4"), exhaust=True).all_nodes]
print(*(" ".join((a.pred, *a.args)) for a in model._ATOMS), sep="\\n")
print("--")
for s in sorted((s for s in states if len(s.worlds) >= 3), key=describe):
    print(_divergence_summary(s))
"""


def test_stepper_summaries_are_independent_of_intern_history():
    """The interactive stepper numbers a state's hypotheses as
    `helpers.describe` orders its worlds, so a process that met the atoms in the reverse order
    prints the same summaries of p4's states with three or more worlds."""
    path = os.pathsep.join([str(Path(ehatp.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])

    def run(earlier: str) -> tuple[list[str], list[str]]:
        lines = subprocess.run(
            [sys.executable, "-c", SUMMARIES_P4], input=earlier,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True).stdout.splitlines()
        cut = lines.index("--")
        return lines[:cut], lines[cut + 1:]

    fresh_order, fresh = run("")
    later_order, later = run("\n".join(fresh_order))
    assert later_order != fresh_order and sorted(later_order) == sorted(fresh_order)
    assert len(fresh) >= 60 and all(line.count("world ") >= 2 for line in fresh)
    assert later == fresh
