"""Epistemic dynamics: co-presence, observability, product update, assessment.

The product-update golden test freezes the expected successor worlds
explicitly (hand-applied action effects) and compares canonical state
signatures, so any drift in world content, designation, or ordering fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehatp
from ehatp import kernel, model
from ehatp.cli import communication_is_load_bearing, read_policy_file, simulate
from ehatp.dsl import GroundAction, load_instance, load_shipped, parse_domain, parse_problem
from ehatp.htn import feasible_refinements
from ehatp.kernel import (
    EpistemicAction,
    Event,
    build_epistemic_action,
    initial_state,
    product_update,
    situation_assessment,
    state_copresent,
    with_call_memo,
)
from ehatp.model import (
    BeliefBase,
    EpistemicState,
    Literal,
    MalformedLiteralError,
    Task,
    World,
    world_from,
)
from ehatp.solver import _step, _uniform_human_refinements, expand, offers, solve
from helpers import (
    cold,
    copresent,
    lit,
    observable,
    plain_assessment,
    plain_product_update,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "planbench"))
from variants import draws  # noqa: E402


@pytest.fixture(scope="module")
def cube():
    return parse_domain(load_shipped("cube_org"))


def bel(*atoms):
    return BeliefBase(frozenset(lit(a) for a in atoms))


def world(*atoms, tn_r=(), tn_h=(), tn_rh=(), acted=0, bel_rh=None, bel_h=None):
    b = bel(*atoms)
    return World(b, bel_h if bel_h is not None else b,
                 bel_rh if bel_rh is not None else b,
                 tn_r, tn_h, tn_rh, acted)


# ---------------------------------------------------------------- co-presence


def test_copresent_same_place(cube):
    w = world("at(R,mt)", "at(H,mt)")
    assert copresent(w, cube.copresence)


def test_copresent_different_place(cube):
    w = world("at(R,mt)", "at(H,ot)")
    assert not copresent(w, cube.copresence)


def test_copresent_overridden_rule_with_focus():
    dom = parse_domain("""
domain d {
  place mt
  predicate focus(agent, place) inferable
  copresent when at(R, P), at(H, P), focus(H, P)
  action a() by R at mt {
    pre at(R, mt)
    add focus(R, mt)
  }
}
""")
    both = world("at(R,mt)", "at(H,mt)")
    focused = world("at(R,mt)", "at(H,mt)", "focus(H,mt)")
    assert not copresent(both, dom.copresence)
    assert copresent(focused, dom.copresence)


# --------------------------------------------------------------- observability


def seen(dom, atom, w):
    """The reference's observability of ``atom`` in ``w``, checked against
    the compiled answer on the same reality."""
    want = observable(dom, atom, w)
    bit = model.atom_bit(atom)
    assert bool(kernel.in_view(dom, w.mask_r) & bit) is want
    return want


def test_observable_transparent_box(cube):
    w = world("at(R,mt)", "at(H,mt)", "transparent(box_1)", "inside(c_r,box_1)")
    assert seen(cube, lit("inside(c_r,box_1)"), w)


def test_observable_opaque_box_without_witness(cube):
    w = world("at(R,mt)", "at(H,mt)", "inside(c_r,box_1)")
    assert not seen(cube, lit("inside(c_r,box_1)"), w)


def test_observable_inferable_predicate_stays_hidden():
    cooking = parse_domain(load_shipped("cooking"))
    w = world("at(R,kitchen)", "at(H,kitchen)", "chopped(veg)", "washed(veg)")
    assert not seen(cooking, lit("washed(veg)"), w)
    assert seen(cooking, lit("chopped(veg)"), w)


def test_observable_needs_observer_at_place(cube):
    w = world("at(R,mt)", "at(H,ot)", "on(c_r,mt)")
    assert not seen(cube, lit("on(c_r,mt)"), w)
    assert seen(cube, lit("on(c_w,ot)"), w)


# ------------------------------------------------------------- initial state


def test_initial_state_shape():
    dom, prob = load_instance("p2")
    s = initial_state(dom, prob)
    assert len(s.worlds) == 1
    w = s.designated_world
    assert w.bel_r == prob.ground_truth
    assert w.mask_h == w.mask_rh == prob.initial_mask_h
    assert w.tn_r == (prob.root_task_r,)
    assert w.tn_h == (prob.root_task_h,)
    assert w.tn_rh == (prob.root_task_r,)
    assert s.actor == "H"
    assert s.budget == prob.k
    assert state_copresent(dom, s)


# ------------------------------------------------------- product update golden


def separated_pair(cube):
    """Two indistinguishable worlds: c_r stowed in box_2 vs box_1 (real)."""
    common = ("at(R,mt)", "at(H,ot)", "holding(R,c_y)", "partner(c_y,c_r)")
    tn = (Task("put_away", ("c_y",)),)
    w1 = world(*common, "inside(c_r,box_2)", "empty(box_1)",
               tn_r=tn, tn_h=(Task("organize_h"),), tn_rh=tn, acted=1)
    w2 = world(*common, "inside(c_r,box_1)", "empty(box_2)",
               tn_r=tn, tn_h=(Task("organize_h"),), tn_rh=tn, acted=1)
    return EpistemicState.make([w1, w2], designated=w2, actor="R", budget=1), w1, w2


def test_product_update_two_worlds_two_events(cube):
    s, w1, w2 = separated_pair(cube)
    a = EpistemicAction(
        events=(
            Event(cube.action("place").ground(("c_y", "box_2")), w1.wid, False, ()),
            Event(cube.action("place").ground(("c_y", "box_1")), w2.wid, True, ()),
        ),
        copresence=cube.copresence,
        actor="R",
    )
    nxt = product_update(cube, s, a)

    common = ("at(R,mt)", "at(H,ot)", "partner(c_y,c_r)")
    exp1 = world(*common, "empty(box_1)", "inside(c_r,box_2)", "inside(c_y,box_2)",
                 tn_h=(Task("organize_h"),), acted=2)
    exp2 = world(*common, "empty(box_2)", "inside(c_r,box_1)", "inside(c_y,box_1)",
                 tn_h=(Task("organize_h"),), acted=2)
    expected = EpistemicState.make([exp1, exp2], designated=exp2, actor="H", budget=0)
    assert nxt.signature() == expected.signature()
    # Neither successor is distinguishable: the agents were separated.
    assert not any(w.distinguishable for w in nxt.worlds)
    assert nxt.designated_world.bel_r.entails(lit("inside(c_y,box_1)"))


def test_product_update_drops_a_world_whose_base_forbids_the_event(cube):
    """An event survives only where its action's preconditions hold, a
    negated one included.  Search and replay build each hypothetical event
    from a refinement under the base it is tested against, so here the
    events are built by hand."""
    # The human scans the off table only while it believes it unscanned.
    fresh = world("at(R,mt)", "at(H,ot)")
    scanned = world("at(R,mt)", "at(H,ot)", "scanned(ot)")
    scan = cube.action("scan").ground(("ot",))
    s = EpistemicState.make([fresh, scanned], designated=fresh, actor="H", budget=0)
    a = EpistemicAction((Event(scan, fresh.wid, True), Event(scan, scanned.wid, False)),
                        cube.copresence, "H")
    nxt = product_update(cube.with_fresh_memo(), s, a)
    assert len(nxt.worlds) == 1 and nxt.designated_world.bel_h.entails(lit("scanned(ot)"))
    # The robot places a cube only where the human is believed away from mt.
    away = world("at(R,mt)", "at(H,ot)", "holding(R,c_y)")
    back = world("at(R,mt)", "at(H,ot)", "holding(R,c_y)",
                 bel_rh=bel("at(R,mt)", "at(H,mt)", "holding(R,c_y)"))
    place = cube.action("place").ground(("c_y", "box_1"))
    s = EpistemicState.make([away, back], designated=away, actor="R", budget=1)
    a = EpistemicAction((Event(place, away.wid, True), Event(place, back.wid, False)),
                        cube.copresence, "R")
    nxt = product_update(cube.with_fresh_memo(), s, a)
    assert len(nxt.worlds) == 1 and nxt.designated_world.bel_r.entails(lit("inside(c_y,box_1)"))


def test_product_update_copresent_marks_mismatch(cube):
    common = ("at(R,mt)", "at(H,mt)", "empty(box_1)", "empty(box_2)")
    des = world(*common, "on(c_r,mt)")
    other = world(*common, "on(c_y,mt)")
    watched = EpistemicState.make([des, other], designated=des, actor="R", budget=2)

    a = EpistemicAction(
        events=(
            Event(cube.action("pick").ground(("c_y", "mt")), other.wid, False, ()),
            Event(cube.action("pick").ground(("c_r", "mt")), des.wid, True, ()),
        ),
        copresence=cube.copresence,
        actor="R",
    )
    nxt = product_update(cube, s=watched, a=a)
    assert len(nxt.worlds) == 2
    flags = {w.distinguishable for w in nxt.worlds}
    assert flags == {True, False}
    assert not nxt.designated_world.distinguishable

    after = situation_assessment(cube, nxt, k=2)
    assert len(after.worlds) == 1
    assert after.designated_world.bel_r.entails(lit("holding(R,c_r)"))


def test_product_update_noop_advances_turn_only(cube):
    dom, prob = load_instance("p2")
    s0 = initial_state(dom, prob)
    s0 = EpistemicState.make(s0.worlds, s0.designated_world, actor="R", budget=s0.budget)
    a = EpistemicAction(
        events=(Event(None, s0.designated_world.wid, True, s0.designated_world.tn_r),),
        copresence=dom.copresence, actor="R")
    nxt = product_update(dom, s0, a)
    assert nxt.actor == "H"
    assert nxt.budget == s0.budget
    assert [w.key() for w in nxt.worlds] == [w.key() for w in s0.worlds]


# ------------------------------------------------------- building anticipation


def robot_choice(dom, s):
    (ref,) = feasible_refinements(dom, s.designated_world.tn_r,
                                  s.designated_world.mask_r)
    return ref


def test_build_after_departure_offers_act_and_noop():
    dom, prob = load_instance("p2")
    s = initial_state(dom, prob)
    move = next(r for r in feasible_refinements(dom, s.designated_world.tn_h,
                                                s.designated_world.mask_h)
                if r.first_primitive.name == "move")
    act = build_epistemic_action(dom, s, move, prob.k)
    gone = product_update(dom, s, act)
    assert not state_copresent(dom, gone)
    assert gone.actor == "R"

    choice = robot_choice(dom, gone)
    assert choice.first_primitive.name == "pick"
    ra = build_epistemic_action(dom, gone, choice, prob.k)
    kinds = {(e.action.name if e.action else "noop", e.designated) for e in ra.events}
    assert kinds == {("pick", True), ("pick", False), ("noop", False)}

    s2 = product_update(dom, gone, ra)
    assert len(s2.worlds) == 2  # picked it, or did nothing
    assert s2.designated_world.bel_r.entails(lit("holding(R,c_r)"))


def test_second_step_yields_four_possibilities():
    dom, prob = load_instance("p2")
    s = initial_state(dom, prob)
    move = next(r for r in feasible_refinements(dom, s.designated_world.tn_h,
                                                s.designated_world.mask_h)
                if r.first_primitive.name == "move")
    gone = product_update(dom, s, build_epistemic_action(dom, s, move, prob.k))
    s2 = product_update(dom, gone,
                        build_epistemic_action(dom, gone, robot_choice(dom, gone), prob.k))
    scan = next(r for r in feasible_refinements(dom, s2.designated_world.tn_h,
                                                s2.designated_world.mask_h))
    s3 = product_update(dom, s2, build_epistemic_action(dom, s2, scan, prob.k))

    place = next(r for r in feasible_refinements(dom, s3.designated_world.tn_r,
                                                 s3.designated_world.mask_r)
                 if r.first_primitive.args[-1] == "box_1")
    s4 = product_update(dom, s3, build_epistemic_action(dom, s3, place, prob.k))
    assert len(s4.worlds) == 4
    marks = sorted(
        ("holding(R,c_r)", "inside(c_r,box_1)", "inside(c_r,box_2)", "on(c_r,mt)")
    )
    found = sorted(
        next(m for m in marks if w.bel_r.entails(lit(m))) for w in s4.worlds)
    assert found == marks


def test_anticipation_respects_acted_cap():
    dom, prob = load_instance("p2")
    s = initial_state(dom, prob)
    move = next(r for r in feasible_refinements(dom, s.designated_world.tn_h,
                                                s.designated_world.mask_h)
                if r.first_primitive.name == "move")
    s = product_update(dom, s, build_epistemic_action(dom, s, move, prob.k))
    sizes = [len(s.worlds)]
    for hop in range(4):
        choice = None  # robot idles; hypotheses keep branching up to K deep
        act = build_epistemic_action(dom, s, choice, prob.k)
        s = product_update(dom, s, act)
        s = EpistemicState.make(s.worlds, s.designated_world, actor="R",
                                budget=s.budget)
        sizes.append(len(s.worlds))
    assert max(sizes) == 4
    assert sizes[-1] == sizes[-2] == 4  # stable once every hypothesis used K


def test_copresent_single_world_single_event(cube):
    dom, prob = load_instance("p1")
    s = initial_state(dom, prob)
    s = EpistemicState.make(s.worlds, s.designated_world, actor="R", budget=prob.k)
    gate_free = feasible_refinements(dom, s.designated_world.tn_r,
                                     s.designated_world.mask_r)
    assert gate_free == ()  # H at the table: the robot yields


# --------------------------------------------------------- situation assessment


def reunion_state(transparent: bool):
    """Reunion scene: four hypotheses about c_r, human back at the table."""
    extra = ("transparent(box_1)", "transparent(box_2)") if transparent else ()
    base = ("at(R,mt)", "at(H,mt)", "main(box_1)", "spare(box_2)", *extra)
    w_on = world(*base, "on(c_r,mt)", "empty(box_1)", "empty(box_2)", acted=0)
    w_hold = world(*base, "holding(R,c_r)", "empty(box_1)", "empty(box_2)", acted=1)
    w_b1 = world(*base, "inside(c_r,box_1)", "empty(box_2)", acted=2)
    w_b2 = world(*base, "inside(c_r,box_2)", "empty(box_1)", acted=2)
    return EpistemicState.make([w_on, w_hold, w_b1, w_b2], designated=w_b1,
                               actor="R", budget=0), w_on, w_hold, w_b1, w_b2


def test_sa_reunion_opaque_removes_two(cube):
    s, w_on, w_hold, w_b1, w_b2 = reunion_state(transparent=False)
    after = situation_assessment(cube, s, k=2)
    assert len(after.worlds) == 2
    assert after.designated_world.bel_r == w_b1.bel_r
    assert any(w.bel_r == w_b2.bel_r for w in after.worlds)
    assert all(not w.bel_r.entails(lit("on(c_r,mt)")) for w in after.worlds)
    assert all(not w.bel_r.entails(lit("holding(R,c_r)")) for w in after.worlds)
    assert after.budget == 2  # co-presence resets the allowance
    assert all(w.acted == 0 for w in after.worlds)


def test_sa_reunion_transparent_collapses(cube):
    s, *_ = reunion_state(transparent=True)
    after = situation_assessment(cube, s, k=2)
    assert len(after.worlds) == 1
    assert after.designated_world.bel_r.entails(lit("inside(c_r,box_1)"))


def test_sa_singleton_unchanged(cube):
    w = world("at(R,mt)", "at(H,mt)", "on(c_r,mt)")
    s = EpistemicState.make([w], designated=w, actor="H", budget=2)
    assert situation_assessment(cube, s, k=2).signature() == s.signature()


def test_sa_never_removes_designated_and_is_idempotent(cube):
    s, *_ = reunion_state(transparent=False)
    once = situation_assessment(cube, s, k=2)
    twice = situation_assessment(cube, once, k=2)
    assert once.designated_world.bel_r == s.designated_world.bel_r
    assert twice.signature() == once.signature()


def test_sa_keeps_hidden_divergence_while_separated(cube):
    base = ("at(R,mt)", "at(H,ot)", "main(box_1)", "spare(box_2)")
    w_real = world(*base, "inside(c_r,box_1)", "empty(box_2)", acted=2)
    w_alt = world(*base, "inside(c_r,box_2)", "empty(box_1)", acted=2)
    s = EpistemicState.make([w_real, w_alt], designated=w_real, actor="R", budget=0)
    after = situation_assessment(cube, s, k=2)
    assert len(after.worlds) == 2
    assert after.budget == 0  # no reunion, no reset


def test_sa_absorbs_observables_into_human_bases(cube):
    base = ("at(R,mt)", "at(H,mt)", "main(box_1)", "spare(box_2)")
    real = bel(*base, "on(c_y,mt)", "inside(c_r,box_1)")
    stale = bel(*base, "on(c_y,mt)", "on(c_r,mt)", "inside(c_r,box_1)")
    w = World(real, stale, stale, (), (), (), 0)
    s = EpistemicState.make([w], designated=w, actor="H", budget=2)
    after = situation_assessment(cube, s, k=2)
    got = after.designated_world
    assert not got.bel_h.entails(lit("on(c_r,mt)"))
    assert not got.bel_rh.entails(lit("on(c_r,mt)"))
    assert got.bel_h.entails(lit("on(c_y,mt)"))


def test_sa_trace_lines(cube, monkeypatch, capsys):
    monkeypatch.setenv("EHATP_LOG", "sa")
    s, w_on, w_hold, *_ = reunion_state(transparent=False)
    situation_assessment(cube, s, k=2)
    err = capsys.readouterr().err
    assert f"SA: removed {w_on.describe()} reason=on(c_r,mt)\n" in err
    assert f"SA: removed {w_hold.describe()} reason=holding(R,c_r)\n" in err


SA_LINES_P2 = """\
import os, sys
from ehatp import model
from ehatp.dsl import load_instance
from ehatp.model import BeliefBase
from ehatp.solver import solve
from helpers import lit
earlier = sys.stdin.read().split()
if earlier:
    # Atoms the other process met get their bits in the reverse order.
    BeliefBase(lit(a) for a in reversed(earlier))
    for other in ("cooking3", "p6"):
        solve(*load_instance(other))
os.environ["EHATP_LOG"] = "sa"
solve(*load_instance("p2"), exhaust=True)
print(*model._ATOMS, sep="\\n")
"""


def test_sa_lines_are_independent_of_intern_history():
    src = str(Path(ehatp.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))

    def run(earlier: str) -> tuple[list[str], str]:
        out = subprocess.run(
            [sys.executable, "-c", SA_LINES_P2], input=earlier,
            env={**os.environ, "PYTHONPATH": path, "EHATP_LOG": ""},
            capture_output=True, text=True, check=True)
        return out.stdout.split(), out.stderr

    fresh_order, fresh_lines = run("")
    later_order, later_lines = run("\n".join(fresh_order))
    met = set(fresh_order)
    assert [a for a in later_order if a in met] != fresh_order
    assert "reason=witness" in fresh_lines and "reason=on(" in fresh_lines
    assert later_lines == fresh_lines


# ------------------------------------------------------------ per-call memo


@pytest.mark.parametrize("name", ["p2", "cooking1"])
def test_memo_answers_match_a_fresh_domain_after_a_warm_search(name):
    dom, prob = load_instance(name)
    states = [n.state for n in solve(dom, prob, exhaust=True).all_nodes]
    shared = cold(dom)
    for s in states:
        expand(shared, prob, s)  # fills the memo as a search does
    kinds = {key if isinstance(key, str) else key[0] for key in shared.memo}
    assert kinds >= {"view", "copresent", "anticipate", "fold"}
    assert shared.copresence in shared.table  # co-presence is ground per domain
    for s in states:
        assert state_copresent(shared, s) == state_copresent(cold(dom), s)
        assert (situation_assessment(shared, s, prob.k).signature()
                == situation_assessment(cold(dom), s, prob.k).signature())


def _step_outcome(dom, s, choice, k):
    out = _step(dom, s, choice, k)
    return out.signature(), out.describe()


def _choices(dom, s):
    """Every choice the search hands ``_step`` at ``s``, and standing by: a
    robot action out of the human's sight only with budget left."""
    if s.actor == "H":
        return (*_uniform_human_refinements(dom, s), None)
    if not state_copresent(dom, s) and s.budget == 0:
        return (None,)
    d = s.designated_world
    return (*feasible_refinements(dom, d.tn_r, d.mask_r), None)


@pytest.mark.parametrize("names", [["p2"], ["p6"], ["cooking3"], ["p1", "p2"]])
def test_steps_on_a_warm_memo_match_a_fresh_memo(names):
    # One parsed domain for all the problems, so the memo warmed on the
    # first holds its entries when the last is checked.
    dom = load_instance(names[0])[0]
    warm = dom.with_fresh_memo()
    for name in names:
        prob = parse_problem(load_shipped(name), dom)
        states = [n.state for n in solve(dom, prob, exhaust=True).all_nodes]
        for s in states:
            expand(warm, prob, s)  # fills the memo as the search does
    assert any(key[0] == "fold" for key in warm.memo)
    # A world's successors are keyed on its group of events and the context.
    groups = [key[0] for key in warm.memo
              if isinstance(key, tuple) and isinstance(key[0], tuple)]
    assert groups and all(isinstance(e, Event) for g in groups for e in g)
    for s in states:
        for choice in _choices(warm, s):
            assert (_step_outcome(warm, s, choice, prob.k)
                    == _step_outcome(dom.with_fresh_memo(), s, choice, prob.k))


def _variants_graphs():
    dom = parse_domain(load_shipped("cube_org"))
    for d in draws(3):
        prob = parse_problem(d.text(), dom)
        yield dom, prob, [n.state for n in solve(dom, prob, exhaust=True).all_nodes]


@pytest.mark.parametrize("name", ["p2", "p6", "cooking3", "variants-3"])
def test_the_memoized_step_matches_a_plain_product_update(name):
    """Every state and option of the exhaustive graphs, on one memo warmed
    as the search warms it: each world's successors, looked up per group
    of events and step context, equal the plain per-event update."""
    graphs = _variants_graphs() if name == "variants-3" else [_exhaustive(name)]
    checked = 0
    for dom, prob, states in graphs:
        warm = with_call_memo(dom)
        for s in states:
            for choice in _choices(warm, s):
                a = build_epistemic_action(warm, s, choice, prob.k)
                got = product_update(warm, s, a)
                assert got.signature() == plain_product_update(dom, s, a).signature()
                checked += 1
    assert checked > 100


VIEW_DOMAIN = """
domain view_count {
  type thing
  place near
  place far
  object vc_first thing
  object vc_late thing
  predicate at(agent, place) inferable
  predicate vc_lies(thing, place) observable
  rule see_lying: vc_lies(T, P) when at(observer, P)
  copresent when at(R, P), at(H, P)
  action vc_wait() by R at near {
    pre at(R, near)
  }
  action vc_look() by H at near {
    pre at(H, near)
  }
}
"""


def _view_problem(thing):
    return f"""
problem view_{thing} {{
  domain view_count
  k 1
  communication off
  robot at near
  human at near
  task R vc_wait
  task H vc_look
  init {{
    vc_lies({thing}, near)
  }}
}}
"""


def test_the_view_covers_atoms_interned_after_it_was_judged():
    """One ground table serves every problem of its declarations: an atom a
    later problem states is judged under a truth whose view was already
    computed, on the same memo and on a fresh one."""
    dom = parse_domain(VIEW_DOMAIN)
    first = initial_state(dom, parse_problem(_view_problem("vc_first"), dom))
    assert situation_assessment(dom, first, 1).signature() == first.signature()
    late = lit("vc_lies(vc_late,near)")
    parse_problem(_view_problem("vc_late"), dom)
    d = first.designated_world
    w = world_from(d, d.mask_r, d.mask_h, d.mask_rh | model.known_bit(late),
                   d.tn_r, d.tn_h, d.tn_rh, d.acted)
    s = EpistemicState.make([d, w], designated=d, actor="R", budget=1)
    want = plain_assessment(dom, s, 1)
    assert len(want.worlds) == 1
    for memo in (dom, dom.with_fresh_memo()):
        assert situation_assessment(memo, s, 1).signature() == want.signature()


def test_anticipated_events_depend_on_the_allowance(cube):
    # ``w`` has spent its allowance, so it anticipates the robot's pick only
    # while the agents share a place.
    w = world("at(R,mt)", "at(H,ot)", "on(c_r,mt)",
              tn_rh=(Task("ensure_stored", ("c_r",)),), acted=1)
    shared = cube.with_fresh_memo()
    for d in (world("at(R,ot)", "at(H,ot)"), world("at(R,mt)", "at(H,ot)")):
        s = EpistemicState.make([d, w], designated=d, actor="R", budget=0)
        got, want = (build_epistemic_action(dom, s, None, k=1)
                     for dom in (shared, cube.with_fresh_memo()))
        assert ([(e.action, e.source, e.remainder) for e in got.events]
                == [(e.action, e.source, e.remainder) for e in want.events])


def test_a_human_successor_depends_on_the_remainder(cube):
    move = cube.action("move").ground(("ot", "mt"))
    d = world("at(R,mt)", "at(H,ot)", "on(c_r,mt)")
    w = world("at(R,mt)", "at(H,ot)", "on(c_y,mt)")
    s = EpistemicState.make([d, w], designated=d, actor="H", budget=1)
    shared = cube.with_fresh_memo()
    for rest in ((), (Task("finish_up"),)):
        a = EpistemicAction((Event(move, d.wid, True, rest),
                             Event(move, w.wid, False, rest)), cube.copresence, "H")
        assert {x.tn_h for x in product_update(shared, s, a).worlds} == {rest}


def test_a_fold_depends_on_the_truth_it_is_made_under(cube):
    # ``w`` survives under both realities; only the first shows the human
    # the red cube on the main table.
    base = ("at(R,mt)", "on(c_r,mt)", "on(c_y,ot)")
    w = world(*base, "at(H,mt)", bel_h=bel("at(R,mt)", "at(H,mt)", "on(c_y,ot)"))
    together = world(*base, "at(H,mt)")
    apart = world(*base, "at(H,ot)")
    misses_c_y = world("at(R,mt)", "at(H,ot)", "on(c_r,mt)")
    shared = cube.with_fresh_memo()
    for s in (EpistemicState.make([together, w], designated=together,
                                  actor="R", budget=0),
              EpistemicState.make([apart, w, misses_c_y], designated=apart,
                                  actor="R", budget=0)):
        assert (situation_assessment(shared, s, k=2).signature()
                == situation_assessment(cube.with_fresh_memo(), s, k=2).signature())


def applies(act, mask):
    """The precondition test of ``htn._walk`` and ``kernel._successor``."""
    return mask & act.need == act.need and not mask & act.forbid


@pytest.mark.parametrize("name", ["p6", "cooking3"])
def test_precondition_masks_match_literal_by_literal_entails(name):
    dom, prob = load_instance(name)
    states = [n.state for n in solve(dom, prob, exhaust=True).all_nodes]
    shared = cold(dom)
    for s in states:
        expand(shared, prob, s)  # grounds every action the search meets
    acts = [a for a in shared.table.values() if isinstance(a, GroundAction)]
    assert all(key == (a.name, a.args)
               for key, a in shared.table.items() if isinstance(a, GroundAction))
    assert any(not l.positive for a in acts for l in a.pre)
    bases = {b for s in states for w in s.worlds
             for b in (w.bel_r, w.bel_h, w.bel_rh)}
    never = Literal("never_interned", (name,))
    assert never not in model._BIT
    probes = []
    for a in acts:
        schema = dom.action(a.name)
        probes += [a] + [schema._replace(pre=pre).ground(a.args) for pre in (
            tuple(l.negate() for l in schema.pre),
            schema.pre + (never,),
            schema.pre + (never.negate(),))]
    outcomes = set()
    for a in probes:
        for b in bases:
            want = all(b.entails(l) for l in a.pre)
            assert applies(a, b.mask) == want
            outcomes.add(want)
    assert outcomes == {True, False}
    # Masks built before the atom first entered a base still hold after.
    grown = [BeliefBase(b.atoms | {never}) for b in bases]
    for a in probes:
        for b in grown:
            assert applies(a, b.mask) == all(b.entails(l) for l in a.pre)
    for a in acts:
        schema = dom.action(a.name)
        for free in (Literal("on", ("Unbound", "mt")), Literal("on", ("Unbound", "mt"), False)):
            bad = schema._replace(pre=(free,) + schema.pre)
            for _ in range(2):  # raised on every call
                with pytest.raises(MalformedLiteralError):
                    bad.ground(a.args)


def test_product_update_honours_the_action_copresence_rule(cube):
    common = ("at(R,mt)", "at(H,mt)", "empty(box_1)", "empty(box_2)")
    des = world(*common, "on(c_r,mt)")
    other = world(*common, "on(c_y,mt)")
    s = EpistemicState.make([des, other], designated=des, actor="R", budget=2)
    events = (
        Event(cube.action("pick").ground(("c_y", "mt")), other.wid, False, ()),
        Event(cube.action("pick").ground(("c_r", "mt")), des.wid, True, ()),
    )
    watched = EpistemicAction(events, cube.copresence, "R")
    unseen = EpistemicAction(events, (lit("focus(H,mt)"),), "R")  # no world has it
    for order in ((watched, unseen), (unseen, watched)):
        dom = cube.with_fresh_memo()
        for a in order:  # the first action's answer is in the memo for the second
            got = product_update(dom, s, a)
            assert got.signature() == product_update(cube.with_fresh_memo(), s, a).signature()
    seen_out = product_update(cube.with_fresh_memo(), s, watched)
    unseen_out = product_update(cube.with_fresh_memo(), s, unseen)
    assert any(w.distinguishable for w in seen_out.worlds) and seen_out.budget == 2
    assert not any(w.distinguishable for w in unseen_out.worlds)
    assert unseen_out.budget == 1


def test_sa_on_one_memo_matches_the_plain_reference(cube):
    opaque, *_ = reunion_state(transparent=False)
    clear, *_ = reunion_state(transparent=True)
    dom = cube.with_fresh_memo()
    for s in (opaque, clear, opaque, clear):  # later calls read the memo
        got = situation_assessment(dom, s, k=2)
        assert got.signature() == plain_assessment(cube, s, 2).signature()
    assert [len(situation_assessment(dom, s, k=2).worlds)
            for s in (opaque, clear)] == [2, 1]


# ------------------------------------------------------------- the mask step

GOLDEN = Path(__file__).resolve().parents[1] / "planbench" / "golden"
GOLDEN_NAMES = sorted(p.name.split(".")[0] for p in GOLDEN.glob("*.policy.json"))


def test_solving_and_replaying_the_golden_instances_builds_no_belief_base(monkeypatch):
    # A loaded policy's memo reads the flag as the file is loaded.
    monkeypatch.delenv("EHATP_LOG", raising=False)
    loaded = [read_policy_file(GOLDEN / f"{n}.policy.json") for n in GOLDEN_NAMES]
    assert len(loaded) == 9
    built = []

    def count(*args, **kwargs):
        built.append(args)

    # Parsing builds each problem's truth base; a step builds none.
    monkeypatch.setattr(BeliefBase, "__init__", count)
    monkeypatch.setattr(BeliefBase, "from_mask", classmethod(count))
    for dom, prob, policy in loaded:
        # Solved on a memo of its own, so the replay builds its own steps.
        res = solve(dom.with_fresh_memo(), prob)
        assert res.policy.node_dicts() == policy.node_dicts(), prob.name
        assert simulate(dom, prob, policy).ok, prob.name
        assert communication_is_load_bearing(dom, prob, policy), prob.name
    assert built == []


def _exhaustive(name):
    dom, prob = load_instance(name)
    return dom, prob, [n.state for n in solve(dom, prob, exhaust=True).all_nodes]


def test_steps_intern_only_the_agendas_they_change(monkeypatch):
    """A world built from another keeps the interned ids of the agendas it
    passes through, so assessment and speech acts intern none, and a human
    step interns only the human's remaining agenda."""
    dom, prob, states = _exhaustive("p2")
    interned = []
    intern = model._agenda_id
    monkeypatch.setattr(model, "_agenda_id", lambda tn: interned.append(tn) or intern(tn))
    folded = spoken = 0
    for s in states:
        memo = with_call_memo(dom)
        folded += situation_assessment(memo, s, prob.k) is not s
        for label, build in offers(memo, prob, s):
            if label.startswith(("inform-", "ask-")):
                build(memo)
                spoken += 1
        assert interned == [], s.describe()
    assert folded and spoken

    human = [s for s in states if s.actor == "H"]
    for s in human:
        for ref in _uniform_human_refinements(dom, s):
            product_update(dom.with_fresh_memo(), s,
                           build_epistemic_action(dom, s, ref, prob.k))
            assert interned and all(tn is ref.remainder for tn in interned), ref
            interned.clear()


def test_the_copresence_memo_agrees_with_the_rule_on_every_state():
    """The call memo keeps co-presence under the truth projected onto the
    atoms the rule's instances test, the agents' places here, so the
    states' many truths share a few entries."""
    dom, prob, states = _exhaustive("p2")
    memo = with_call_memo(dom)
    want = {s.designated_world.mask_r: copresent(s.designated_world, dom.copresence)
            for s in states}
    assert set(want.values()) == {True, False}
    for s in states + states:  # the second pass reads the memo
        assert state_copresent(memo, s) == want[s.designated_world.mask_r]
    places = sum(model.known_bit(lit("at", agent, place))
                 for agent in ("R", "H") for place in dom.places)
    *_, answers = memo.memo[kernel._COPRESENT]
    assert answers == {truth & places: co for truth, co in want.items()}
    assert len(answers) < len(want)
    assert kernel._COPRESENT not in dom.table and dom.copresence in dom.table


FAST_AGAINST_PLAIN = """\
import sys
from pathlib import Path

from ehatp import kernel, model
from ehatp.dsl import load_instance, load_shipped, parse_domain, parse_problem
from ehatp.solver import solve
from helpers import copresent, observable

dom, p2 = load_instance("p2")
memo = kernel.with_call_memo(dom)


def typed(dom, a):
    # Whether dom's declared types allow a: an atom of another domain is in
    # none of its worlds, and out of its view.
    types = dom.predicate(a.pred).param_types
    return all(arg in dom._of_type.get(t, ()) for arg, t in zip(a.args, types))


def check(states, dom=dom, memo=memo):
    views = []
    for s in states:
        d = s.designated_world
        assert kernel.state_copresent(memo, s) == copresent(d, dom.copresence), s.describe()
        plain = sum(model.known_bit(a) for a in model._ATOMS
                    if observable(dom, a, d) and typed(dom, a))
        views.append(kernel.in_view(memo, d.mask_r))
        assert views[-1] == plain, s.describe()
    return views


graph_p2 = [n.state for n in solve(dom, p2, exhaust=True).all_nodes]
before = check(graph_p2)
graph_p6 = [n.state for n in solve(dom, parse_problem(load_shipped("p6"), dom),
                                   exhaust=True).all_nodes]
after = check(graph_p6 + graph_p2)[len(graph_p6):]

# Where the robot moves: truths that differ only in its place.
data = Path(sys.argv[1])
roam = parse_domain((data / "roam.ehatp").read_text())
graph = [n.state for n in solve(roam, parse_problem((data / "roam_p.ehatp").read_text(), roam),
                                 exhaust=True).all_nodes]
views = check(graph, roam, kernel.with_call_memo(roam))
robot = sum(model.known_bit(a) for a in model._ATOMS if a.pred == "at" and a.args[0] == "R")
apart = {}
for s, view in zip(graph, views):
    truth = s.designated_world.mask_r
    co = copresent(s.designated_world, roam.copresence)
    apart.setdefault(truth & ~robot, set()).add((view, co))
moved = [answers for answers in apart.values() if len(answers) > 1]
print(len(graph_p2), len(graph_p6), sum(b != a for b, a in zip(before, after)),
      len(graph), sum(len({v for v, _ in a}) > 1 for a in moved),
      sum(len({c for _, c in a}) > 1 for a in moved))
"""


def test_the_fast_kernel_matches_the_plain_rules_on_one_memo():
    """On one call memo, in a fresh process: co-presence and the in-view mask
    of every state of p2's and then p6's whole graphs equal the plain rules
    on the unprojected truth, and p2's views are the same again after p6's
    were judged on that memo.  On a memo of its own, so do those of the
    whole graph of ``tests/data/``'s roam problem, where the robot moves:
    some of its truths differ only in the robot's place, and those differ
    in view and in co-presence."""
    here = Path(__file__).resolve().parent
    src = str(Path(ehatp.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(here)))
    out = subprocess.run(
        [sys.executable, "-c", FAST_AGAINST_PLAIN, str(here / "data")],
        env={**os.environ, "PYTHONPATH": path, "EHATP_LOG": ""},
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    states_p2, states_p6, changed, states_roam, views, copresence = out.stdout.split()
    assert (states_p2, states_p6, states_roam) == ("78", "322", "24")
    assert changed == "0", out.stdout
    assert int(views) > 0 and int(copresence) > 0, out.stdout


FIRST_VIEW = """\
from itertools import product

from ehatp import kernel, model
from ehatp.dsl import load_instance, load_shipped, parse_problem
from ehatp.model import Literal

dom, p2 = load_instance("p2")
allowed = {Literal(p.name, args) for p in dom.predicates if p.observable
           for args in product(*(dom._of_type[t] for t in p.param_types))}
observed = lambda: {a for a in model._ATOMS if dom.predicate(a.pred).observable}
before = observed()
kernel.in_view(kernel.with_call_memo(dom), p2.ground_truth.mask)
first = observed()
for name in ("p1", "p3", "p4", "p5", "p6"):
    parse_problem(load_shipped(name), dom)
print(len(allowed), len(before), len(first), first == allowed, observed() == first)
"""


def test_the_first_view_interns_every_observable_atom_the_types_allow():
    """In a fresh process: p2 states a few of cube_org's observable atoms;
    the first ``in_view`` call grounds the view and interns all of them,
    and parsing the domain's other problems afterwards interns none."""
    src = str(Path(ehatp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", FIRST_VIEW],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    allowed, before, first, grounded, unchanged = out.stdout.split()
    assert int(before) < int(first) == int(allowed), out.stdout
    assert grounded == unchanged == "True", out.stdout
