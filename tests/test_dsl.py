"""Parser, validator, and pretty-printer behavior."""

import pytest

from ehatp.dsl import (
    ParseError,
    load_instance,
    load_shipped,
    parse_domain,
    parse_problem,
    validate,
)
from ehatp.model import BeliefBase, Literal
from helpers import lit, pretty_print_domain, pretty_print_problem


@pytest.fixture(scope="module")
def cube():
    return parse_domain(load_shipped("cube_org"), filename="cube_org.ehatp")


@pytest.fixture(scope="module")
def cooking():
    return parse_domain(load_shipped("cooking"), filename="cooking.ehatp")


def test_cube_domain_structure(cube):
    assert cube.name == "cube_org"
    assert set(cube.places) == {"mt", "ot"}
    actors = {a.name: a.actor for a in cube.actions}
    assert actors["move"] == "H"
    assert actors["pick"] == "R"
    assert actors["place"] == "R"
    assert actors["pick_h"] == "H"
    assert actors["place_h"] == "H"
    assert {r.name for r in cube.rules} == {
        "see_on_table", "see_inside_transparent", "see_holding"}
    assert [str(l) for l in cube.copresence] == ["at(R,P)", "at(H,P)"]


def test_cube_observability_classes(cube):
    observable = {p.name for p in cube.predicates if p.observable}
    assert observable == {"on", "inside", "holding"}
    assert not cube.predicate("empty").observable


def test_cooking_observability_classes(cooking):
    assert not cooking.predicate("washed").observable
    assert not cooking.predicate("seasoned").observable
    assert cooking.predicate("chopped").observable
    assert cooking.predicate("boiled").observable


def test_action_grounding(cube):
    g = cube.action("pick").ground(("c_r", "mt"))
    assert g.actor == "R"
    assert lit("at(R,mt)") in g.pre
    assert lit("on(c_r,mt)") in g.pre
    assert g.adds == (lit("holding(R,c_r)"),)
    assert g.dels == (lit("on(c_r,mt)"),)


def test_empty_string_is_syntax_error_at_1_1():
    with pytest.raises(ParseError) as e:
        parse_domain("", filename="x.ehatp")
    d = e.value.diagnostic
    assert (d.line, d.col) == (1, 1)
    assert d.severity == "error"


def test_undeclared_predicate_is_rejected():
    text = """
domain d {
  place mt
  action a() by R at mt {
    pre ghost(mt)
  }
}
"""
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert "ghost" in str(e.value)
    assert e.value.diagnostic.line > 1


def test_arity_mismatch_is_rejected():
    text = """
domain d {
  place mt
  predicate on(agent, place) inferable
  action a() by R at mt {
    pre on(R)
  }
}
"""
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert "arity" in str(e.value)


def test_unbound_action_variable_is_rejected():
    text = """
domain d {
  place mt
  predicate on(agent, place) inferable
  action a() by R at mt {
    pre on(X, mt)
  }
}
"""
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert "X" in str(e.value)


def test_problem_round_trip_parameters(cube):
    prob = parse_problem(load_shipped("p1"), cube, filename="p1.ehatp")
    assert prob.name == "p1"
    assert prob.k == 2
    assert prob.comm_allowed is False
    assert prob.robot_place == "mt"
    assert prob.human_place == "mt"
    assert prob.root_task_r.name == "organize"
    assert prob.root_task_h.name == "organize_h"
    assert prob.ground_truth.entails(lit("at(R,mt)"))
    assert prob.ground_truth.entails(lit("at(H,mt)"))
    assert prob.ground_truth.entails(lit("transparent(box_1)"))
    assert prob.initial_mask_h == prob.ground_truth.mask


def test_unknown_object_in_init(cube):
    text = """
problem bad {
  domain cube_org
  k 1
  communication off
  robot at mt
  human at mt
  task R organize
  task H organize_h
  init { on(c_z, mt) }
}
"""
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube)
    assert "c_z" in str(e.value)


def test_negative_k_rejected(cube):
    text = """
problem bad {
  domain cube_org
  k -1
  communication off
  robot at mt
  human at mt
  task R organize
  task H organize_h
  init { }
}
"""
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube)
    assert "k" in str(e.value)


def test_a_non_decimal_digit_after_k_is_rejected(cube):
    """``²`` lexes as a digit, but ``int()`` reads only decimal ones."""
    text = load_shipped("p3").replace("k 2", "k ²a2")
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube, "p3.ehatp")
    assert str(e.value) == "p3.ehatp:4:5: error: expected an integer after 'k'"


def test_a_k_with_more_digits_than_int_converts_is_rejected(cube):
    text = load_shipped("p2").replace("k 2", "k " + "9" * 5000)
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube, "p2.ehatp")
    assert str(e.value) == "p2.ehatp:4:5: error: k has too many digits"


def test_missing_fields_reported(cube):
    with pytest.raises(ParseError) as e:
        parse_problem("problem p { domain cube_org }", cube)
    msg = str(e.value)
    assert "k" in msg and "communication" in msg and "task R" in msg


def test_false_belief_is_accepted_and_noted(cube):
    text = """
problem fb {
  domain cube_org
  k 1
  communication off
  robot at mt
  human at mt
  task R organize
  task H organize_h
  init { on(c_r, mt) }
  believe inside(c_r, box_1)
  believe not on(c_r, mt)
}
"""
    prob = parse_problem(text, cube)
    bel_h = BeliefBase.from_mask(prob.initial_mask_h)
    assert bel_h.entails(lit("inside(c_r,box_1)"))
    assert not bel_h.entails(lit("on(c_r,mt)"))
    assert prob.ground_truth.entails(lit("on(c_r,mt)"))
    notes = [d for d in validate(cube, prob) if d.severity == "note"]
    assert len(notes) == 2


def test_false_belief_notes_point_at_their_believe(cube):
    text = """problem fb {
  domain cube_org
  k 1
  communication off
  robot at mt
  human at mt
  task R organize
  task H organize_h
  init { on(c_r, mt) }
    believe not on(c_r, mt)
  believe inside(c_r, box_1)
}
"""
    prob = parse_problem(text, cube, "fb.ehatp")
    notes = [str(d) for d in validate(cube, prob, problem_file="fb.ehatp")]
    assert notes == [
        "fb.ehatp:11:3: note: initial false belief: human believes inside(c_r,box_1)",
        "fb.ehatp:10:5: note: initial false belief: human believes not on(c_r,mt)",
    ]


def test_validate_clean_on_shipped_pairs():
    for name in ("p1", "p2", "p3", "p4", "p5", "p6",
                 "cooking1", "cooking2", "cooking3"):
        dom, prob = load_instance(name)
        assert validate(dom, prob) == [], name


def test_validate_observable_without_rule_warns():
    text = """
domain d {
  place mt
  predicate glow(place) observable
  action a() by R at mt {
    add glow(mt)
  }
}
"""
    diags = validate(parse_domain(text))
    assert any(d.severity == "warning" and "glow" in d.message for d in diags)


# The errors a whole model can have, each raised at the declaration named.
MODEL_ERRORS = {
    "inferable-rule-target": ("""\
domain d {
  place mt
  predicate hidden(place) inferable
  rule peek: hidden(P) when at(observer, P)
}
""", "d.ehatp:4:8: error: knowledge rule 'peek' targets inferable-only predicate 'hidden'"),
    "action-and-method-task": ("""\
domain d {
  place mt
  action a() by R at mt {
  }
  method b m0 {
    sub a
  }
  method a m1 {
  }
  method a m2 {
    sub a
  }
}
""", "d.ehatp:8:10: error: 'a' is both an action and a method task name"),
    "recursion": ("""\
domain d {
  place mt
  action a() by R at mt {
  }
  method t0 m0 {
    sub t2
  }
  method t2 m2 {
    sub a, t1
  }
  method t1 m1 {
    sub t2
  }
  method t1 m1b {
  }
}
""", "d.ehatp:8:10: error: recursive task decomposition: t2 -> t1 -> t2"),
    "self-recursion": ("domain d {\n  place mt\n  method t0 m0 {\n    sub t0\n  }\n}\n",
                       "d.ehatp:3:10: error: recursive task decomposition: t0 -> t0"),
    "duplicate-method-label": ("""\
domain d {
  place mt
  action a() by R at mt {
  }
  method t m {
    sub a, zz
  }
  method t m {
    sub a
  }
}
""", "d.ehatp:8:12: error: duplicate method label 'm' for task 't'"),
    # An effect is a positive atom: ``add not p`` is rejected at its ``not``.
    "negated-effect": ("""\
domain d {
  place mt
  predicate p(place) observable
  action a() by R at mt {
    add not p(mt)
  }
}
""", "d.ehatp:5:9: error: an effect is a positive atom: 'add' and 'del' take no 'not'"),
    # ``observer`` names the watching human in knowledge rules only.
    "observer-in-an-action": ("""\
domain d {
  place mt
  predicate p(place) observable
  rule see_p: p(P) when at(observer, P)
  action mark() by R at mt {
    del p(observer)
  }
}
""", "d.ehatp:5:10: error: unknown object 'observer' in action mark del"),
    "observer-in-the-copresent-rule": ("""\
domain d {
  place mt
  copresent when at(R, P), at(observer, P)
}
""", "d.ehatp:3:3: error: unknown object 'observer' in copresent rule"),
}


@pytest.mark.parametrize("case", MODEL_ERRORS)
def test_a_model_error_is_raised_at_its_declaration(case):
    text, expected = MODEL_ERRORS[case]
    with pytest.raises(ParseError) as e:
        parse_domain(text, "d.ehatp")
    assert str(e.value) == expected


MOVE = """\
  action move(From place, To place) by H at From {
    pre at(H, From), not at(H, To)
    add at(H, To)
    del at(H, From)
  }
"""
# Effects a state cannot take, each reported at the action's name: an agent
# left at two places or none (rule a), or one atom both added and deleted
# (rule b).  The edits are made to ``cube_org``'s ``move``, whose name is at
# 60:10, or to an action added at the end of the domain.
EFFECT_ERRORS = {
    "swapped-arguments": ("", """\
  action swap(X cube, Y cube) by R at mt {
    add partner(X, Y)
    del partner(Y, X)
  }
""", "swap adds partner(X,Y) and deletes partner(Y,X), one atom when X = Y"),
    "one-ground-atom": ("", """\
  action redo() by R at mt {
    add empty(box_1)
    del empty(box_1)
  }
""", "redo adds empty(box_1) and deletes empty(box_1), one atom"),
    "move-without-its-guard": (("    pre at(H, From), not at(H, To)\n", "    pre at(H, From)\n"), "",
                               "move adds at(H,To) and deletes at(H,From), one atom when To = From"),
    "move-without-its-delete": (("    del at(H, From)\n", ""), "",
                                "move adds at(H,To) without deleting a place of H it requires"),
    "move-without-its-requirement": (("pre at(H, From), not", "pre not"), "",
                                     "move adds at(H,To) without deleting a place of H it requires"),
    "two-places-for-one-agent": ("", """\
  action split(A agent, To place) by H at mt {
    pre at(H, mt), not at(H, To)
    add at(H, To), at(A, To)
    del at(H, mt)
  }
""", "split adds at(H,To) and at(A,To), two places for one agent"),
    "leaving-for-nowhere": ("", """\
  action vanish() by H at mt {
    pre at(H, mt)
    del at(H, mt)
  }
""", "vanish deletes at(H,mt) without adding a place of H"),
}


@pytest.mark.parametrize("case", EFFECT_ERRORS)
def test_an_effect_error_is_raised_at_the_action(case):
    edit, action, message = EFFECT_ERRORS[case]
    text = load_shipped("cube_org")
    assert MOVE in text
    if edit:
        assert edit[0] in MOVE
        text = text.replace(MOVE, MOVE.replace(*edit))
        pos = "60:10"
    else:
        text, pos = _insert_at(text, text.rindex("}"), action, action.split()[1].split("(")[0])
    with pytest.raises(ParseError) as e:
        parse_domain(text, "cube_org.ehatp")
    assert str(e.value) == f"cube_org.ehatp:{pos}: error: action {message}"


@pytest.mark.parametrize("action", [
    MOVE,  # ``not at(H, To)`` contradicts ``at(H, From)`` when To = From
    MOVE.replace("move(From place, To place) by H", "carry(A agent, From place, To place) by R")
        .replace("(H,", "(A,"),  # the agent a parameter
    """\
  action regroup(X cube, Y cube) by R at mt {
    pre partner(Y, X), not partner(X, Y)
    add partner(X, Y)
    del partner(Y, X)
  }
""",  # the swapped atoms contradict the preconditions when X = Y
])
def test_effects_that_cannot_clash_are_accepted(action):
    text = load_shipped("cube_org")
    text = text.replace(MOVE, "") if action == MOVE else text
    text = text[:text.rindex("}")] + action + "}\n"
    assert parse_domain(text).action(action.split()[1].split("(")[0]) is not None


@pytest.mark.parametrize("line", ["  believe at(H, ot)\n", "  believe not at(R, mt)\n"])
def test_a_belief_about_an_agent_place_is_rejected(cube, line):
    """A human step is checked against the human's beliefs and applied to the
    truth: one who believed it was at a second place could move from there
    and be at two."""
    text = load_shipped("p1")
    text, pos = _insert_at(text, text.index("  init {"), line, "at")
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube, "p1.ehatp")
    assert str(e.value) == (f"p1.ehatp:{pos}: error: agent positions are set by the "
                            "'robot at'/'human at' lines, not believe")


def _insert_at(text, cut, lines, word):
    """``text`` with ``lines`` inserted at offset ``cut``, the start of a
    line, and the ``line:col`` of the last ``word`` in them."""
    at = lines.rindex(word)
    line_no = text.count("\n", 0, cut) + lines.count("\n", 0, at) + 1
    col = at - lines.rfind("\n", 0, at)
    return text[:cut] + lines + text[cut:], f"{line_no}:{col}"


# A second declaration of a name is an error at the second one, whatever its
# kind; places, objects and the agents share one namespace.  Each case adds
# its line at the end of the domain block.
DUPLICATE_DECLARATIONS = {
    "type": ("  type cube\n", "cube", "type 'cube'"),
    "place": ("  place ot\n", "ot", "constant 'ot'"),
    "object": ("  object c_w box\n", "c_w", "constant 'c_w'"),
    "object-named-as-a-place": ("  object mt box\n", "mt", "constant 'mt'"),
    "place-named-as-an-agent": ("  place H\n", "H", "constant 'H'"),
    "predicate": ("  predicate empty(cube) observable\n", "empty", "predicate 'empty'"),
    "rule": ("  rule see_holding: on(C, P) when at(observer, P)\n", "see_holding",
             "rule 'see_holding'"),
    "copresent": ("  copresent when at(R, P), at(H, P)\n", "copresent", "copresent rule"),
    "action": ("  action pick() by R at mt {\n  }\n", "pick", "action 'pick'"),
}


@pytest.mark.parametrize("case", DUPLICATE_DECLARATIONS)
def test_a_duplicate_declaration_is_an_error_at_the_second(case):
    line, word, what = DUPLICATE_DECLARATIONS[case]
    text = load_shipped("cube_org")
    text, pos = _insert_at(text, text.rindex("}"), line, word)
    with pytest.raises(ParseError) as e:
        parse_domain(text, "cube_org.ehatp")
    assert str(e.value) == f"cube_org.ehatp:{pos}: error: duplicate {what}"


# Each of these lines may appear once in a problem, and one belief per atom:
# a second would say another start, budget, agenda or belief than the first.
DUPLICATE_PROBLEM_LINES = {
    "domain": ("  domain cube_org\n", "domain", "line 'domain'"),
    "k": ("  k 5\n", "k", "line 'k'"),
    "communication": ("  communication on\n", "communication", "line 'communication'"),
    "robot at": ("  robot at ot\n", "robot", "line 'robot at'"),
    "human at": ("  human at ot\n", "human", "line 'human at'"),
    "task R": ("  task R organize\n", "task", "line 'task R'"),
    "task H": ("  task H organize_h\n", "task", "line 'task H'"),
    "believe": ("  believe not main(box_2)\n  believe main(box_2)\n", "main",
                "belief about main(box_2)"),
}


@pytest.mark.parametrize("case", DUPLICATE_PROBLEM_LINES)
def test_a_repeated_problem_line_is_an_error_at_the_second(cube, case):
    line, word, what = DUPLICATE_PROBLEM_LINES[case]
    text = load_shipped("p1")
    text, pos = _insert_at(text, text.index("  init {"), line, word)
    with pytest.raises(ParseError) as e:
        parse_problem(text, cube, "p1.ehatp")
    assert str(e.value) == f"p1.ehatp:{pos}: error: duplicate {what}"


def test_unresolvable_subtask_rejected_at_parse():
    text = """
domain d {
  place mt
  predicate p(place) inferable
  action a() by R at mt {
    add p(mt)
  }
  method t1 m1 {
    sub nothing_here
  }
}
"""
    with pytest.raises(ParseError) as e:
        parse_domain(text)
    assert "nothing_here" in str(e.value)


def test_diagnostic_format():
    try:
        parse_domain("domain x {", filename="f.ehatp")
    except ParseError as e:
        s = str(e.diagnostic)
        assert s.startswith("f.ehatp:")
        parts = s.split(":")
        assert parts[1].isdigit() and parts[2].isdigit()


@pytest.mark.parametrize("text, expected", [
    pytest.param("""domain d {
  place mt
  action a(p place) by R at mt {
  }
}
""", "d.ehatp:3:12: error: parameter 'p' must start uppercase",
                 id="lowercase-parameter"),
    pytest.param("""domain d {
  type cube
  predicate on(cube, shelf) inferable
}
""", "d.ehatp:3:22: error: undeclared type 'shelf'",
                 id="undeclared-predicate-type"),
    pytest.param("""domain d {
  place mt
  action a() by R at mt {
    pre at(R, mt
  }
}
""", "d.ehatp:5:3: error: expected ')', got '}'",
                 id="unclosed-literal"),
    pytest.param("""domain d {
  place mt
  action a(P place) by R at P {
  }
  method t m1 {
    sub a(mt
  }
}
""", "d.ehatp:7:3: error: expected ')', got '}'",
                 id="unclosed-task"),
    pytest.param("""domain d {
  place mt
  action a() by R at mt {
    pre at(R, mt),
  }
}
""", "d.ehatp:5:3: error: expected a predicate name, got '}'",
                 id="missing-literal-after-comma"),
])
def test_list_syntax_diagnostics(text, expected):
    with pytest.raises(ParseError) as e:
        parse_domain(text, filename="d.ehatp")
    assert str(e.value.diagnostic) == expected


def test_domain_pretty_print_round_trip(cube, cooking):
    for dom in (cube, cooking):
        text = pretty_print_domain(dom)
        again = parse_domain(text, filename="rt.ehatp")
        assert again == dom
        assert pretty_print_domain(again) == text


def test_problem_pretty_print_round_trip(cube):
    for name in ("p1", "p2", "p5"):
        prob = parse_problem(load_shipped(name), cube, filename=name)
        text = pretty_print_problem(prob)
        again = parse_problem(text, cube, filename="rt")
        assert again == prob


def test_parse_is_deterministic():
    a = parse_domain(load_shipped("cube_org"))
    b = parse_domain(load_shipped("cube_org"))
    assert a == b


def test_zero_arity_predicates_and_actions(cooking):
    assert cooking.predicate("mats_laid").param_types == ()
    act = cooking.action("lay_mats")
    assert act.params == ()
    g = act.ground(())
    assert Literal("mats_laid", (), False) in g.pre
    assert g.adds == (lit("mats_laid"),)


def test_copresence_override_parses():
    text = """
domain d {
  place mt
  predicate at(agent, place) inferable
  predicate focus(agent, place) inferable
  copresent when at(R, P), at(H, P), focus(H, P)
  action a(P place) by R at P {
    pre at(R, P)
    add focus(R, P)
  }
}
"""
    dom = parse_domain(text)
    assert [l.pred for l in dom.copresence] == ["at", "at", "focus"]
    diags = validate(dom)
    assert any(d.severity == "warning" and "focus" in d.message for d in diags)
    assert not any(d.severity == "error" for d in diags)
