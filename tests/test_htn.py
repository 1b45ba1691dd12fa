"""Decomposition engine: refinements, advancement, and perspective diffs.

Expected refinement sets here are frozen from hand-enumeration of the
shipped method definitions against the stated belief bases; the brute-force
oracle at the bottom re-derives them independently.
"""

import pytest

from ehatp import htn
from ehatp.dsl import ParseError, load_shipped, parse_domain, parse_problem
from ehatp.htn import advance, alignment_diff, effectively_decomposed, feasible_refinements
from ehatp.model import BeliefBase, Task, atom_bit, is_variable
from helpers import lit


@pytest.fixture(scope="module")
def cube():
    return parse_domain(load_shipped("cube_org"))


@pytest.fixture(scope="module")
def cooking():
    return parse_domain(load_shipped("cooking"))


def bel(*atoms):
    return BeliefBase(frozenset(lit(a) for a in atoms))


def prims(refs):
    return {(r.first_primitive.name, r.first_primitive.args) for r in refs}


# ---------------------------------------------------------------- refinement


def test_organize_refines_to_pick_only(cube):
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")
    refs = feasible_refinements(cube, (Task("organize"),), b.mask)
    assert prims(refs) == {("pick", ("c_r", "mt"))}
    (r,) = refs
    assert r.remainder == (Task("put_away", ("c_r",)),)


def test_empty_network_has_no_refinements(cube):
    assert feasible_refinements(cube, (), bel("at(R,mt)").mask) == ()


def test_place_choice_appears_only_after_holding(cube):
    b = bel("at(R,mt)", "holding(R,c_r)", "empty(box_1)", "empty(box_2)",
            "main(box_1)", "spare(box_2)", "any_box(c_r)", "partner(c_r,c_r)")
    refs = feasible_refinements(cube, (Task("put_away", ("c_r",)),), b.mask)
    assert prims(refs) == {("place", ("c_r", "box_1")), ("place", ("c_r", "box_2"))}
    assert all(r.remainder == () for r in refs)


def test_robot_yields_table_while_human_is_there(cube):
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)", "at(H,mt)")
    assert feasible_refinements(cube, (Task("organize"),), b.mask) == ()


def test_prepare_skips_completed_steps(cooking):
    b = bel("at(R,kitchen)", "chopped(veg)")
    refs = feasible_refinements(cooking, (Task("prepare", ("veg",)),), b.mask)
    assert prims(refs) == {("wash", ("veg",))}
    (r,) = refs
    assert [t.name for t in r.remainder] == ["ensure_cooked", "ensure_seasoned"]


def test_human_root_offers_fetch_and_store(cube):
    b = bel("on(c_r,mt)", "on(c_w,ot)", "empty(box_1)", "empty(box_2)",
            "at(R,mt)", "at(H,mt)", "main(box_1)", "spare(box_2)",
            "any_box(c_r)", "partner(c_r,c_r)")
    refs = feasible_refinements(cube, (Task("organize_h"),), b.mask)
    assert prims(refs) == {("move", ("mt", "ot")), ("pick_h", ("c_r", "mt"))}


def _error_at(text, dom, needle, filename):
    """The positioned error that parsing ``text`` raises, and the position of
    ``needle``'s last word in ``text``."""
    with pytest.raises(ParseError) as e:
        if dom is None:
            parse_domain(text, filename)
        else:
            parse_problem(text, dom, filename)
    at = text.index(needle) + needle.rindex(" ") + 1
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    return str(e.value), f"{filename}:{line}:{col}"


def test_a_root_task_reaching_the_other_agents_action_is_a_parse_error(cube):
    # Each agenda is refined for its owner alone, so the parser, not the
    # search, rejects a root task that reaches the other agent's action.
    text = load_shipped("p2").replace("task H organize_h", "task H organize")
    error, at = _error_at(text, cube, "task H organize", "p2.ehatp")
    assert error == f"{at}: error: root task 'organize' of H decomposes to 'pick', an action of R"


def test_a_methodless_task_is_a_parse_error(cube):
    text = load_shipped("p2").replace("task R organize", "task R ghost_task")
    error, at = _error_at(text, cube, "task R ghost_task", "p2.ehatp")
    assert error == f"{at}: error: root task 'ghost_task' is not declared in the domain"
    text = load_shipped("cube_org").replace("sub pick(C, mt), put_away(C)",
                                            "sub pick(C, mt), ghost_task", 1)
    error, at = _error_at(text, None, "method ensure_stored", "cube_org.ehatp")
    assert error == (f"{at}: error: subtask 'ghost_task' in ensure_stored/store "
                     "resolves to neither an action nor a method")


def test_a_refinement_keeps_the_method_gates_on_its_way(cube):
    """``store``'s gate forbids the human at ``mt``, which ``pick`` does not
    test: the refinement's ``pres`` holds it all the same."""
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")
    (r,) = feasible_refinements(cube, (Task("organize"),), b.mask)
    gate = atom_bit(lit("at(H,mt)"))
    assert r.pres & gate
    assert not (r.first_primitive.need | r.first_primitive.forbid) & gate


# ---------------------------------------------------------------- advancing


def test_advance_consumes_first_primitive(cube):
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")
    act = cube.action("pick").ground(("c_r", "mt"))
    rest = advance(cube, (Task("organize"),), act, b.mask)
    assert rest == (Task("put_away", ("c_r",)),)


def test_advance_past_last_primitive_empties_network(cube):
    b = bel("at(R,mt)", "holding(R,c_r)", "empty(box_1)", "empty(box_2)",
            "main(box_1)", "spare(box_2)", "any_box(c_r)", "partner(c_r,c_r)")
    act = cube.action("place").ground(("c_r", "box_1"))
    assert advance(cube, (Task("put_away", ("c_r",)),), act, b.mask) == ()


def test_advance_past_an_underivable_action_keeps_the_agenda(cube):
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")
    act = cube.action("place").ground(("c_r", "box_1"))
    tn = (Task("organize"),)
    assert advance(cube, tn, act, b.mask) is tn


# ------------------------------------------------------------- decomposition


def test_effectively_decomposed_via_zero_primitive_methods(cube):
    # ensure_stored bottoms out in leave_it once the cube is off the table.
    tn = (Task("ensure_stored", ("c_r",)),)
    assert effectively_decomposed(cube, tn, bel("inside(c_r,box_1)", "at(R,mt)").mask)
    assert not effectively_decomposed(cube, tn, bel("on(c_r,mt)", "at(R,mt)").mask)


def test_effectively_decomposed_cooking_skips(cooking):
    tn = (Task("ensure_cooked", ("veg",)), Task("ensure_seasoned", ("veg",)))
    done = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)", "boiled(veg)",
               "seasoned(veg)")
    half = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)", "boiled(veg)")
    assert effectively_decomposed(cooking, tn, done.mask)
    assert not effectively_decomposed(cooking, tn, half.mask)


@pytest.mark.parametrize("first, second", [
    (effectively_decomposed, feasible_refinements),
    (feasible_refinements, effectively_decomposed),
], ids=["decomposed-first", "refinements-first"])
def test_both_answers_come_from_one_walk_per_memo(cube, monkeypatch, first, second):
    walks = []
    walk = htn._walk
    monkeypatch.setattr(htn, "_walk", lambda *args: walks.append(args) or walk(*args))
    dom = cube.with_fresh_memo()
    tn = (Task("ensure_stored", ("c_r",)),)
    b = bel("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")
    for fn in (first, second, first, second):
        fn(dom, tn, b.mask)
    assert len(walks) == 1


CHORE = """
domain d {
  place mt
  predicate done inferable
  action work() by R at mt {
    add done
  }
  method chore skip {
  }
  method chore act {
    sub work
  }
}
"""


def test_an_agenda_can_both_act_and_be_decomposed():
    dom = parse_domain(CHORE)
    tn, b = (Task("chore"),), bel("at(R,mt)")
    assert prims(feasible_refinements(dom, tn, b.mask)) == {("work", ())}
    assert effectively_decomposed(dom, tn, b.mask)


# ------------------------------------------------------------ alignment diff


CW_BASE = ("at(R,mt)", "at(H,ot)", "holding(R,c_w)", "main(box_1)",
           "spare(box_2)", "any_box(c_w)", "partner(c_w,c_w)",
           "inside(c_r,box_1)")


def test_alignment_identical_bases_is_empty(cube):
    b = bel(*CW_BASE, "empty(box_2)")
    tn = (Task("put_away", ("c_w",)),)
    assert alignment_diff(cube, b.mask, tn, b.mask, tn) == frozenset()


def test_alignment_transfers_blocking_fact(cube):
    tn = (Task("put_away", ("c_w",)),)
    bel_r = bel(*CW_BASE, "empty(box_2)")
    bel_rh = bel(*CW_BASE)  # believes box_2 is occupied (closed world)
    assert alignment_diff(cube, bel_r.mask, tn, bel_rh.mask, tn) == {lit("empty(box_2)")}


def test_alignment_ignores_irrelevant_divergence(cube):
    tn = (Task("put_away", ("c_w",)),)
    bel_r = bel(*CW_BASE, "empty(box_2)", "scanned(ot)", "wrapped(c_w)")
    bel_rh = bel(*CW_BASE, "empty(box_2)")
    assert alignment_diff(cube, bel_r.mask, tn, bel_rh.mask, tn) == frozenset()


def test_alignment_picks_minimal_relevant_subset(cube):
    tn = (Task("put_away", ("c_w",)),)
    bel_r = bel(*CW_BASE, "empty(box_2)", "scanned(ot)")
    bel_rh = bel(*CW_BASE, "wrapped(c_w)")
    diff = alignment_diff(cube, bel_r.mask, tn, bel_rh.mask, tn)
    assert diff == {lit("empty(box_2)")}


def test_alignment_can_require_a_negative_transfer(cooking):
    # The onlooker thinks the dish is already boiled; the pipeline disagrees.
    tn = (Task("ensure_cooked", ("veg",)),)
    bel_r = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)")
    bel_rh = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)", "boiled(veg)")
    diff = alignment_diff(cooking, bel_r.mask, tn, bel_rh.mask, tn)
    assert diff == {lit("not boiled(veg)")}


def test_alignment_structural_divergence_impossible(cube, cooking):
    # No fact transfer makes an empty agenda produce put_in_pan.
    bel_r = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)")
    assert alignment_diff(cooking, bel_r.mask, (Task("ensure_cooked", ("veg",)),),
                          bel_r.mask, ()) is None


def test_alignment_finished_perspectives_agree(cooking):
    # Both sides decompose to nothing: aligned regardless of belief gaps.
    bel_r = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)", "boiled(veg)",
                "seasoned(veg)")
    bel_rh = bel("at(R,kitchen)", "chopped(veg)", "washed(veg)", "boiled(veg)")
    diff = alignment_diff(cooking, bel_r.mask, (), bel_rh.mask,
                          (Task("ensure_seasoned", ("veg",)),))
    assert diff == {lit("seasoned(veg)")}


# Five preconditions put the one transfer that aligns past the size-4 subsets,
# so `alignment_diff` falls back to the precondition atoms checked on the way
# to each first primitive, a method's gate among them.
FIVE = """
domain five {
  place p
  predicate f1 inferable
  predicate f2 inferable
  predicate f3 inferable
  predicate f4 inferable
  predicate f5 inferable
  predicate g inferable
  predicate z inferable
  action a() by R at p {
    pre f1, f2, f3, f4, f5
  }
  method u plain {
    sub a
  }
  method t gated {
    pre g
    sub a
  }
}
"""


def test_alignment_falls_back_to_the_relevant_atoms_past_four():
    dom = parse_domain(FIVE)
    fs = ("f1", "f2", "f3", "f4", "f5")
    u, t = (Task("u"),), (Task("t"),)
    # The relevant part of the difference aligns, and ``z`` is dropped.
    assert alignment_diff(dom, bel(*fs, "z").mask, u, bel().mask, u) == {lit(f) for f in fs}
    # ``g`` gates the method of ``t``, so it is relevant too; ``z`` is not.
    assert alignment_diff(dom, bel(*fs, "g", "z").mask, t, bel().mask, t) \
        == {lit(f) for f in (*fs, "g")}


# --------------------------------------------------- brute-force completeness


def brute_force_refinements(dom, tn, b, depth=6):
    """Naive recursive enumeration of every method tree, as a cross-check."""
    out = set()

    def walk(agenda, trace, d):
        if not agenda or d < 0:
            return
        head, rest = agenda[0], agenda[1:]
        act = dom.action(head.name)
        if act is not None:
            if any(is_variable(v) for v in head.args):
                return
            g = act.ground(head.args)
            if all(b.entails(p) for p in g.pre):
                out.add((g.name, g.args, tuple(rest), trace))
            return
        for m in dom.methods_for(head.name):
            if len(m.params) != len(head.args):
                continue
            for binding in _bindings(dom, m, head.args, b):
                pres = [p.substitute(binding) for p in m.pre]
                if not all(b.entails(p) for p in pres):
                    continue
                subs = tuple(Task(t.name, tuple(binding.get(a, a) for a in t.args))
                             for t in m.subtasks)
                walk(subs + tuple(rest), trace + (m.label,), d - 1)

    def _bindings(dom, m, args, b):
        base = dict(zip((p.name for p in m.params), args))
        free = sorted({a for p in m.pre for a in p.args
                       if is_variable(a) and a not in base})
        if not free:
            yield base
            return
        pools = []
        for v in free:
            pool = {c for c, _ in dom.objects} | set(dom.places) | set("RH")
            pools.append(sorted(pool))
        import itertools
        for combo in itertools.product(*pools):
            yield {**base, **dict(zip(free, combo))}

    walk(tuple(tn), (), depth)
    return {(n, a, r) for (n, a, r, _) in out}


@pytest.mark.parametrize("case", [
    ("organize", ("on(c_r,mt)", "empty(box_1)", "empty(box_2)", "at(R,mt)")),
    ("organize", ("on(c_r,mt)", "at(R,mt)", "at(H,mt)")),
    ("organize_both", ("on(c_r,mt)", "on(c_y,mt)", "at(R,mt)", "empty(box_1)",
                       "empty(box_2)", "main(box_1)", "spare(box_2)",
                       "any_box(c_r)", "main_first(c_y)",
                       "partner(c_r,c_y)", "partner(c_y,c_r)")),
    ("put_away", ("at(R,mt)", "holding(R,c_r)", "empty(box_1)", "empty(box_2)",
                  "main(box_1)", "spare(box_2)", "any_box(c_r)",
                  "partner(c_r,c_r)")),
])
def test_refinements_match_brute_force(cube, case):
    name, atoms = case
    args = ("c_r",) if name == "put_away" else ()
    tn = (Task(name, args),)
    b = bel(*atoms)
    got = {(r.first_primitive.name, r.first_primitive.args, r.remainder)
           for r in feasible_refinements(cube, tn, b.mask)}
    assert got == brute_force_refinements(cube, tn, b)


def test_cooking_refinements_match_brute_force(cooking):
    for atoms in [
        (),
        ("chopped(veg)",),
        ("chopped(veg)", "washed(veg)"),
        ("chopped(veg)", "washed(veg)", "boiled(veg)"),
        ("chopped(veg)", "washed(veg)", "boiled(veg)", "seasoned(veg)"),
    ]:
        b = bel("at(R,kitchen)", *atoms)
        tn = (Task("prepare", ("veg",)),)
        got = {(r.first_primitive.name, r.first_primitive.args, r.remainder)
               for r in feasible_refinements(cooking, tn, b.mask)}
        assert got == brute_force_refinements(cooking, tn, b), atoms
