"""Compiled HTN refinement, observability and co-presence against ``match``.

The planner grounds each domain once and answers its first-order queries
with mask tests.  Here every answer is checked against the first-order
reference in ``helpers``, on every base of exhaustive search graphs: the
refinements with their order-dependent traces and checked preconditions,
effective decomposition, each atom's observability under each reality, and
co-presence under the domain's rule and an action-carried one.  The
hand-written domain declares a place and an agent as objects, which the
grounding must range over like the built-in ones.  Every model with equal
declarations shares one table, so a search on a table other problems warmed
must answer as on a cold one.
"""

import re
import sys
from itertools import product
from pathlib import Path

import pytest

from ehatp import dsl, kernel
from ehatp.cli import write_policy_file
from ehatp.dsl import (
    _DECLARATIONS,
    DomainModel,
    ParseError,
    load_instance,
    load_shipped,
    parse_domain,
    parse_problem,
)
from ehatp.htn import effectively_decomposed, feasible_refinements
from ehatp.model import BeliefBase, Task, World, atom_bit, is_variable
from ehatp.solver import solve
from helpers import UnboundError, cold, copresent, lit, match, observable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "planbench"))
from variants import draws  # noqa: E402

HAND = """
domain hand {
  type thing
  place a
  object b place
  object bob agent
  object t2 thing
  object t1 thing
  predicate focus(agent, place) inferable
  predicate partner(thing, thing) inferable
  predicate label(thing) inferable
  predicate glow(thing) observable
  predicate done(thing) inferable
  rule see_glow: glow(T) when at(observer, P), at(R, P), focus(observer, P), not done(T)
  rule glow_shown: glow(T) when at(observer, b), focus(A, b), not done(T)
  copresent when at(R, P), at(H, P), focus(H, P)
  action light(T thing) by R at a {
    pre at(R, a), not glow(T)
    add glow(T)
  }
  action rest(T thing) by R at a {
    pre glow(T)
    add done(T)
  }
  action look(P place) by H at P {
    pre at(H, P), not focus(H, P)
    add focus(H, P)
  }
  action walk(From place, To place) by H at From {
    pre at(H, From), not at(H, To)
    add at(H, To)
    del at(H, From), focus(H, From)
  }
  method work(T thing) alone {
    pre partner(T, T), not glow(T)
    sub light(T), rest(T)
  }
  method work(T thing) paired {
    pre partner(T, U), label(U), not done(U)
    sub light(U)
  }
  method work(T thing) any_partner {
    pre partner(T, U)
    sub light(T)
  }
  method work(T thing) finished {
    pre done(T)
  }
  method roam go {
    pre at(H, P), focus(H, P), not done(t1)
    sub walk(P, b), look(b)
  }
  method roam stay {
    pre at(H, a)
    sub look(a)
  }
}
"""

# ``label`` appears in no effect, and the human wrongly believes one fact of it.
HAND_PROBLEM = """
problem hand1 {
  domain hand
  k 2
  communication on
  robot at a
  human at a
  task R work(t1)
  task H roam
  init {
    partner(t1, t1), partner(t1, t2), label(t1)
  }
  believe label(t2)
}
"""

# Conjunctions whose negative literal names a variable that neither an
# earlier positive literal nor (for a rule) the target binds: the text, the
# declaration the parser points at, and its message.
UNBOUND = {
    "rule": (HAND.replace("  copresent when",
                          "  rule guessed: glow(T) when label(T), not focus(H, P)\n  copresent when"),
             "guessed: glow",
             "variable 'P' in a negative antecedent of rule guessed is not bound by an "
             "earlier positive"),
    "copresent": (HAND.replace("at(H, P), focus(H, P)\n", "at(H, P), not done(T)\n"),
                  "copresent when",
                  "variable 'T' in a negative literal of the copresent rule is not bound by an "
                  "earlier positive"),
    "method": (HAND.replace("label(U), not done(U)", "not done(V), label(V)"),
               "work(T thing) paired",
               "variable 'V' in a negative precondition of work/paired is not bound by an "
               "earlier positive"),
}

# A co-presence rule an epistemic action may carry instead of the domain's.
CARRIED = (lit("at(H,P)"), lit("not focus(H,P)"))

# Every base over these atoms is checked on the hand-written domain.
POOL = ("at(R,a)", "at(H,a)", "at(H,b)", "focus(H,a)", "focus(bob,b)", "partner(t1,t1)",
        "partner(t1,t2)", "label(t2)", "glow(t1)", "done(t1)", "done(t2)")

# Arguments the grounding would not range over, or a count of them that no
# method takes, each rejected at parse time.
MISTYPED = [
    (HAND.replace("sub light(U)", "sub walk(a, U)"), HAND_PROBLEM,
     "argument 'U' of walk(a,U) has type 'thing', expected 'place'"),
    (HAND.replace("sub light(T), rest(T)", "sub light(T), rest(b)"), HAND_PROBLEM,
     "argument 'b' of rest(b) has type 'place', expected 'thing'"),
    (HAND, HAND_PROBLEM.replace("work(t1)", "work(a)"),
     "root task argument 'a' of work(a) has type 'place', expected 'thing'"),
    (HAND, HAND_PROBLEM.replace("task H roam", "task H look(t1)"),
     "root task argument 't1' of look(t1) has type 'thing', expected 'place'"),
    (HAND, HAND_PROBLEM.replace("task H roam", "task H look"),
     "root task look expects 1 arguments"),
    (HAND, HAND_PROBLEM.replace("task H roam", "task H roam(a)"),
     "root task roam(a) has no method taking 1 arguments"),
    (HAND.replace("sub look(a)", "sub look(a), work(t1, t2)"), HAND_PROBLEM,
     "subtask work(t1,t2) has no method taking 2 arguments in roam/stay"),
    (HAND.replace("place a\n", "place a\n  predicate at(agent, thing) inferable\n"),
     HAND_PROBLEM, "predicate 'at' must be declared as at(agent, place)"),
]


def _answer(fn, *args):
    try:
        return fn(*args)
    except UnboundError as e:
        return UnboundError, str(e)


def plain_refinements(dom, tn, bel):
    """Refinements read off the definition: methods bound with ``match``,
    actions checked literal by literal, as ``(name, args, remainder, mask of
    the checked precondition atoms)`` in the planner's order."""
    found = {}
    frontier = [(tuple(tn), ())]
    while frontier:
        agenda, acc = frontier.pop()
        if not agenda:
            continue
        head, rest = agenda[0], agenda[1:]
        schema = dom.action(head.name)
        if schema is not None:
            if any(is_variable(a) for a in head.args):
                raise UnboundError(f"unbound arguments in subtask {head}")
            g = schema.ground(head.args)
            if all(bel.entails(l) for l in g.pre):
                found.setdefault((g.name, g.args, rest), (str(g), acc + g.pre))
            continue
        for m in dom.methods_for(head.name):
            if len(m.params) != len(head.args):
                continue
            params = dict(zip((p.name for p in m.params), head.args))
            for b in match(bel, m.pre, params):
                subs = tuple(Task(t.name, tuple(b.get(a, a) for a in t.args))
                             for t in m.subtasks)
                frontier.append((subs + rest, acc + tuple(p.substitute(b) for p in m.pre)))
    order = sorted(found, key=lambda k: (found[k][0], tuple(map(str, k[2]))))
    return [k + (BeliefBase(l.atom for l in found[k][1]).mask,) for k in order]


def plain_decomposed(dom, tn, bel):
    frontier = [tuple(tn)]
    seen = set()
    while frontier:
        agenda = frontier.pop()
        if not agenda:
            return True
        if agenda in seen:
            continue
        seen.add(agenda)
        head, rest = agenda[0], agenda[1:]
        if dom.action(head.name) is not None:
            continue
        for m in dom.methods_for(head.name):
            if len(m.params) != len(head.args):
                continue
            params = dict(zip((p.name for p in m.params), head.args))
            for b in match(bel, m.pre, params):
                frontier.append(tuple(Task(t.name, tuple(b.get(a, a) for a in t.args))
                                      for t in m.subtasks) + rest)
    return False


def compiled_refinements(dom, tn, bel):
    return [(r.first_primitive.name, r.first_primitive.args, r.remainder, r.pres)
            for r in feasible_refinements(dom.with_fresh_memo(), tn, bel.mask)]


def check_graph(dom, worlds, rules):
    """Every compiled answer over ``worlds`` equals the reference's.

    Returns how many refinement queries, atoms and realities were checked.
    The compiled answers come from a cold table, so each check grounds what
    it asks whatever ran earlier in the process.
    """
    dom = cold(dom)
    queries = {(tn, b) for w in worlds
               for tn, b in ((w.tn_r, w.bel_r), (w.tn_h, w.bel_h), (w.tn_rh, w.bel_rh))}
    for tn, b in queries:
        assert (_answer(compiled_refinements, dom, tn, b)
                == _answer(plain_refinements, dom, tn, b)), (tn, b)
        assert (effectively_decomposed(dom.with_fresh_memo(), tn, b.mask)
                == plain_decomposed(dom, tn, b)), (tn, b)
    atoms = {a for w in worlds for b in (w.bel_r, w.bel_h, w.bel_rh) for a in b.atoms}
    realities = {w.bel_r.mask: w for w in worlds}
    for d in realities.values():
        for rule in rules:
            assert kernel._copresent(dom, d.mask_r, rule) == copresent(d, rule)
        for a in atoms:
            bit = atom_bit(a)
            assert (bool(kernel.in_view(dom, d.mask_r) & bit)
                    == _answer(observable, dom, a, d)), (a, d.describe())
    return len(queries), len(atoms), len(realities)


def graph_worlds(dom, prob):
    return [w for n in solve(dom, prob, exhaust=True).all_nodes for w in n.state.worlds]


@pytest.mark.parametrize("name", ["p2", "p6", "cooking3"])
def test_compiled_queries_match_the_reference_on_shipped_graphs(name):
    dom, prob = load_instance(name)
    queries, atoms, realities = check_graph(dom, graph_worlds(dom, prob),
                                            (dom.copresence, CARRIED))
    assert queries > 50 and atoms > 10 and realities > 5


def test_compiled_queries_match_the_reference_on_a_variants_seed():
    dom = parse_domain(load_shipped("cube_org"))
    worlds = []
    for d in draws(3):
        worlds += graph_worlds(dom, parse_problem(d.text(), dom))
    queries, atoms, realities = check_graph(dom, worlds, (dom.copresence, CARRIED))
    assert queries > 1000 and realities > 50


def test_compiled_queries_match_the_reference_on_a_hand_written_domain():
    dom = parse_domain(HAND)
    prob = parse_problem(HAND_PROBLEM, dom)
    worlds = graph_worlds(dom, prob)
    # The human's static belief differs from the truth in some searched world.
    assert any(w.bel_h.entails(lit("label(t2)")) and not w.bel_r.entails(lit("label(t2)"))
               for w in worlds)
    tasks = ((Task("work", ("t1",)),), (Task("roam"),), (Task("work", ("t2",)),))
    for picks in product((False, True), repeat=len(POOL)):
        b = BeliefBase(lit(a) for a, pick in zip(POOL, picks) if pick)
        worlds.append(World(b, b, b, *tasks))
    rules = (dom.copresence, CARRIED, (lit("at(R,P)"), lit("at(H,P)")))
    queries, atoms, realities = check_graph(dom, worlds, rules)
    assert realities >= 2 ** len(POOL)
    # ``alone`` repeats a variable, partner(T, T): it fits t2 here, not t1.
    # Only ``alone`` leaves ``rest(T)`` after ``light(T)``.
    base = BeliefBase([lit("at(R,a)"), lit("partner(t1,t2)"), lit("partner(t2,t2)")])

    def remainders(thing):
        return {r[2] for r in compiled_refinements(dom, (Task("work", (thing,)),), base)}

    assert ((Task("rest", ("t2",)),) in remainders("t2")
            and (Task("rest", ("t1",)),) not in remainders("t1"))


def test_equal_declarations_share_one_table():
    text = load_shipped("cube_org")
    dom = parse_domain(text)
    assert parse_domain(text).table is dom.table
    declarations = {name: getattr(dom, name) for name in _DECLARATIONS}
    assert DomainModel(**declarations).table is dom.table
    assert dom.with_fresh_memo().table is dom.table
    more = declarations | {"objects": dom.objects + (("c_x", "cube"),)}
    assert DomainModel(**more).table is not dom.table


def test_the_shared_tables_are_bounded_and_still_shared():
    for i in range(1000):
        parse_domain(f"domain generated{i} {{\n  place a\n  predicate p(place) inferable\n}}\n")
    assert len(dsl._TABLES) <= dsl.TABLES_KEPT
    # The most recent sets are the ones kept, and a live model keeps its own.
    text = load_shipped("cube_org")
    dom = parse_domain(text)
    parse_domain(HAND)
    assert parse_domain(text).table is dom.table
    for i in range(dsl.TABLES_KEPT):
        parse_domain(f"domain generated{i} {{\n  place a\n}}\n")
    assert all(table is not dom.table for table in dsl._TABLES.values())
    assert dom.with_fresh_memo().table is dom.table and parse_domain(text) == dom


def test_a_table_warmed_by_other_problems_solves_as_a_cold_one(tmp_path):
    texts = {name: load_shipped(name) for name in ("cube_org", "p1", "p2", "p3", "p4",
                                                   "p5", "p6")}
    dom = parse_domain(texts["cube_org"])
    for name in ("p1", "p2", "p3", "p4", "p5"):
        solve(dom, parse_problem(texts[name], dom))
    prob = parse_problem(texts["p6"], dom)
    assert len(dom.table) > 50
    out = []
    for d in (dom, cold(dom)):
        res = solve(d, prob)
        path = tmp_path / f"{len(out)}.json"
        write_policy_file(path, texts["cube_org"], texts["p6"], res.policy)
        out.append((path.read_bytes(), res.metrics._replace(time_ms=0)))
    assert out[0] == out[1]


@pytest.mark.parametrize("domain, problem, message", MISTYPED)
def test_arguments_outside_the_declared_types_are_rejected(domain, problem, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_problem(problem, parse_domain(domain))


@pytest.mark.parametrize("kind", sorted(UNBOUND))
def test_an_unbound_negative_literal_is_rejected_at_its_declaration(kind):
    text, declaration, message = UNBOUND[kind]
    with pytest.raises(ParseError) as e:
        parse_domain(text, filename="hand.ehatp")
    at = text.index(declaration)
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert str(e.value) == f"hand.ehatp:{line}:{col}: error: {message}"
