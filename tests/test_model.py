import gc

import pytest

from ehatp import model
from ehatp.dsl import DomainModel, ProblemInstance, load_instance, load_shipped, parse_domain
from ehatp.htn import Refinement
from ehatp.kernel import EpistemicAction, Event
from ehatp.model import (
    BeliefBase,
    EpistemicState,
    FrozenInstanceError,
    Literal,
    MalformedLiteralError,
    Task,
    World,
    known_bit,
    unify,
    world_from,
)
from ehatp.solver import solve
from helpers import agent_place, applied, assigned, base_of, lit


def test_entails_membership():
    base = base_of(lit("inside", "c_r", "box_1"))
    assert base.entails(lit("inside", "c_r", "box_1")) is True


def test_entails_closed_world_negative():
    base = base_of(lit("inside", "c_r", "box_1"))
    assert base.entails(lit("inside", "c_r", "box_2", positive=False)) is True
    assert base.entails(lit("inside", "c_r", "box_2")) is False


def test_entails_empty_base():
    assert BeliefBase().entails(lit("inside", "c_r", "box_1")) is False


def test_entails_rejects_unbound_variable():
    base = base_of(lit("on", "c_r", "mt"))
    with pytest.raises(MalformedLiteralError):
        base.entails(lit("on", "C", "mt"))


def test_base_rejects_negative_members():
    with pytest.raises(MalformedLiteralError):
        base_of(lit("on", "c_r", "mt", positive=False))


def test_base_rejects_non_ground_members():
    with pytest.raises(MalformedLiteralError):
        base_of(lit("on", "C", "mt"))


def test_updates_reject_non_ground_atoms():
    base = base_of(lit("on", "c_r", "mt"))
    free = lit("on", "C", "mt")
    with pytest.raises(MalformedLiteralError):
        applied(base, [free], [])
    with pytest.raises(MalformedLiteralError):
        applied(base, [], [free])
    with pytest.raises(MalformedLiteralError):
        assigned(base, free, True)


def test_apply_effects_pick_semantics():
    base = base_of(lit("on", "c_r", "mt"))
    out = applied(base, [lit("holding", "R", "c_r")], [lit("on", "c_r", "mt")])
    assert out == base_of(lit("holding", "R", "c_r"))


def test_apply_effects_identity():
    base = base_of(lit("p"))
    assert applied(base, [], []) == base


def test_apply_effects_place_semantics():
    base = base_of(lit("holding", "R", "c_y"))
    out = applied(base, [lit("inside", "c_y", "box_1")], [lit("holding", "R", "c_y")])
    assert out == base_of(lit("inside", "c_y", "box_1"))


def test_apply_effects_conflict():
    # The parser rejects such an action; the masks still drop, then add.
    assert applied(BeliefBase(), [lit("p")], [lit("p")]) == base_of(lit("p"))
    base = base_of(lit("on", "c_r", "mt"), lit("holding", "R", "c_y"))
    on = lit("on", "c_r", "mt")
    assert applied(base, [on], [on, lit("holding", "R", "c_y")]) == base_of(on)


def test_apply_effects_idempotent_when_subsumed():
    base = base_of(lit("p"), lit("q"))
    out = applied(base, [lit("p")], [lit("r")])
    assert out == base


def test_assign():
    base = base_of(lit("p"))
    assert assigned(base, lit("q"), True) == base_of(lit("p"), lit("q"))
    assert assigned(base, lit("p"), False) == BeliefBase()
    never = lit("never_assigned")
    assert assigned(base, never, False) == base and known_bit(never) == 0


def test_state_dedup_merges_identical_worlds():
    w = World(
        bel_r=base_of(lit("p")),
        bel_h=base_of(lit("p")),
        bel_rh=base_of(lit("p")),
    )
    dup = World(
        bel_r=base_of(lit("p")),
        bel_h=base_of(lit("p")),
        bel_rh=base_of(lit("p")),
    )
    s = EpistemicState.make([w, dup], designated=w, actor="R", budget=2)
    assert len(s.worlds) == 1
    assert s.designated_world.key() == w.key()


def test_state_signature_is_order_insensitive():
    w1 = World(bel_r=base_of(lit("p")), bel_h=BeliefBase(), bel_rh=BeliefBase())
    w2 = World(bel_r=base_of(lit("q")), bel_h=BeliefBase(), bel_rh=BeliefBase())
    a = EpistemicState.make([w1, w2], designated=w1, actor="R", budget=0)
    b = EpistemicState.make([w2, w1], designated=w1, actor="R", budget=0)
    assert a.signature() == b.signature()


def test_agent_place():
    w = World(
        bel_r=base_of(lit("at", "R", "mt"), lit("at", "H", "ot")),
        bel_h=BeliefBase(),
        bel_rh=BeliefBase(),
    )
    assert agent_place(w) == {"R": "mt", "H": "ot"}


def test_agent_place_rejects_two_places():
    w = World(
        bel_r=base_of(lit("at", "R", "mt"), lit("at", "R", "ot")),
        bel_h=BeliefBase(),
        bel_rh=BeliefBase(),
    )
    with pytest.raises(MalformedLiteralError):
        agent_place(w)


def test_world_key_includes_networks_and_acted():
    base = base_of(lit("p"))
    w1 = World(bel_r=base, bel_h=base, bel_rh=base, tn_r=(Task("go"),))
    w2 = World(bel_r=base, bel_h=base, bel_rh=base, tn_r=())
    w3 = World(bel_r=base, bel_h=base, bel_rh=base, tn_r=(Task("go"),), acted=1)
    assert len({w1.key(), w2.key(), w3.key()}) == 3


def test_a_world_built_from_masks_is_the_world_built_from_bases():
    p, q = base_of(lit("p")), base_of(lit("q"))
    go = (Task("go"),)
    worlds = [World(p, q, p, go, (), go, 1), World(q, q, p, (), go, (), 0, True),
              World(p, p, p), World(q, p, q, go, go, go, 2)]
    source = World(q, q, q, go, go, go)
    again = []
    for w in worlds:
        # From no source, from one sharing some agenda objects, and with
        # equal agendas that are other objects.
        for src, tns in ((None, (w.tn_r, w.tn_h, w.tn_rh)), (source, (w.tn_r, w.tn_h, w.tn_rh)),
                         (w, tuple(tuple(list(tn)) for tn in (w.tn_r, w.tn_h, w.tn_rh)))):
            v = world_from(src, w.mask_r, w.mask_h, w.mask_rh, *tns, w.acted,
                           w.distinguishable)
            assert v is w and v.key() == w.key()
        again.append(world_from(None, w.mask_r, w.mask_h, w.mask_rh, w.tn_r, w.tn_h,
                                w.tn_rh, w.acted, w.distinguishable))
    for d in range(len(worlds)):
        built = EpistemicState.make(worlds, worlds[d], actor="R", budget=1)
        from_masks = EpistemicState.make(again[::-1], again[d], actor="R", budget=1)
        assert [w.key() for w in from_masks.worlds] == [w.key() for w in built.worlds]
        assert from_masks == built and from_masks.designated == built.designated


# -- hash-consed worlds ---------------------------------------------------------


def test_a_live_world_is_the_one_world_with_its_content():
    p, q = base_of(lit("p")), base_of(lit("q"))
    go = (Task("go"),)
    w = World(p, q, p, go, (), go, 1)
    # The public constructor, and `world_from` from no source or another one,
    # with equal content in other objects.
    assert World(base_of(lit("p")), q, p, (Task("go"),), (), (Task("go"),), 1) is w
    assert world_from(None, w.mask_r, w.mask_h, w.mask_rh, go, (), go, 1) is w
    assert world_from(World(q, q, q), w.mask_r, w.mask_h, w.mask_rh, go, (), go, 1) is w
    assert w.wid is w and Event(None, w.wid, True).source is w
    # Other content gives other worlds, and worlds order by key.
    others = [World(p, q, p, go, (), go, 2), World(p, q, p, go, (), go, 1, True),
              World(q, q, p, go, (), go, 1), World(p, q, p, (), (), go, 1)]
    assert all(v is not w and v != w for v in others)
    assert sorted(others + [w]) == sorted(others + [w], key=World.key)


def test_a_dead_world_leaves_the_intern_table():
    p = base_of(lit("p"))
    w = World(p, p, p, acted=7)
    key = w.key()
    assert model._WORLDS[key]() is w
    del w
    gc.collect()
    assert key not in model._WORLDS
    assert World(p, p, p, acted=7).key() == key


def test_no_world_outlives_the_solve_that_built_it():
    dom, prob = load_instance("p6")
    gc.collect()
    before = set(model._WORLDS)  # worlds other tests keep alive
    res = solve(dom, prob)
    assert res.policy is not None and set(model._WORLDS) - before
    del res
    gc.collect()
    assert set(model._WORLDS) <= before


# -- the value types built once per search step -------------------------------

PICK = parse_domain(load_shipped("cube_org")).action("pick").ground(("c_r", "mt"))


def _values() -> list:
    """One of each immutable value type, built twice from equal content."""
    def build():
        p = base_of(lit("p"))
        w = World(p, BeliefBase(), p, tn_r=(Task("go"),), acted=1)
        e = Event(PICK, w.wid, True, (Task("go"),))
        return [p, w, EpistemicState.make([w], w, actor="H", budget=2),
                e, EpistemicAction((e,), (lit("q"),), "R"),
                Refinement(PICK, (Task("go"),), ("m",), 3)]
    return list(zip(build(), build()))


@pytest.mark.parametrize("i", range(6))
def test_no_field_of_a_value_type_can_be_assigned_or_deleted(i):
    value, _ = _values()[i]
    for name in type(value).__slots__:
        before = getattr(value, name)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(FrozenInstanceError):
        value.extra = 1


def test_equal_content_gives_equal_values_and_hashes():
    (p, p2), (w, w2), (s, s2), (e, e2), (a, a2), (r, r2) = _values()
    for x, y in ((p, p2), (s, s2), (r, r2)):
        assert x is not y and x == y and hash(x) == hash(y)
    # a world with the content of a live one is that world
    assert w is w2
    assert World(p, BeliefBase(), p, tn_r=(Task("go"),), acted=1,
                 distinguishable=True) != w
    assert EpistemicState.make([w], w, actor="R", budget=2) != s
    assert Refinement(PICK, (Task("go"),), ("m",), 0) != r
    # events and epistemic actions are compared by identity
    assert e != e2 and a != a2 and e == e and a == a


def test_parsed_values_refuse_assignment_and_compare_their_declared_fields():
    dom, prob = load_instance("p2")
    twin, _ = load_instance("p2")
    pick = twin.action("pick").ground(("c_r", "mt"))
    for value in (dom, prob, pick):
        for name in type(value).__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
    fresh = dom.with_fresh_memo()
    assert fresh == dom == twin and hash(fresh) == hash(dom) == hash(twin)
    assert fresh.table is dom.table and fresh.memo == {} and fresh.memo is not dom.memo
    assert [getattr(fresh, n) for n in DomainModel.__slots__ if n != "memo"] \
        == [getattr(dom, n) for n in DomainModel.__slots__ if n != "memo"]
    elsewhere = ProblemInstance(*[getattr(prob, n) for n in prob._compared], ((9, 9),))
    assert elsewhere == prob and hash(elsewhere) == hash(prob)
    assert pick == PICK and hash(pick) == hash(PICK) and pick is not PICK
    assert repr(pick) == ("GroundAction(name='pick', args=('c_r', 'mt'), actor='R', "
                          f"pre={pick.pre!r}, adds={pick.adds!r}, dels={pick.dels!r})")
    assert repr(dom).startswith("DomainModel(name='cube_org', types=") and "memo" not in repr(dom)


def test_make_keeps_the_designated_object_among_equal_worlds():
    p, q = base_of(lit("p")), base_of(lit("q"))
    w, dup, other = World(p, p, p), World(p, p, p), World(q, q, q)
    for worlds in ([w, dup, other], [other, w, dup], [dup, other]):
        s = EpistemicState.make(worlds, designated=dup, actor="R", budget=0)
        assert s.designated_world is dup
        assert [x.key() for x in s.worlds] == sorted({w.key(), other.key()})


def test_make_single_world_and_sorted_pending_match_the_general_path():
    p = base_of(lit("p"))
    w, v = World(p, p, p), World(p, p, p, acted=1)
    ask = (lit("q"), lit("b"))
    one = EpistemicState.make([w], w, actor="R", budget=1, pending=ask)
    assert (one.worlds, one.designated, one.pending) == ((w,), 0, (lit("b"), lit("q")))
    assert one == EpistemicState((w,), 0, "R", 1, (lit("b"), lit("q")))
    assert one == EpistemicState.make([w, World(p, p, p)], w, actor="R", budget=1,
                                      pending=ask[::-1])
    two = EpistemicState.make([v, w], v, actor="R", budget=1, pending=ask)
    order = sorted((w, v), key=World.key)
    assert two == EpistemicState(tuple(order), order.index(v), "R", 1, one.pending)


def test_value_types_print_their_fields():
    p = base_of(lit("p"))
    w = World(p, BeliefBase(), p, tn_r=(Task("go"),))
    assert repr(w) == (f"World(mask_r={p.mask}, mask_h=0, mask_rh={p.mask}, "
                       "tn_r=(Task(name='go', args=()),), "
                       "tn_h=(), tn_rh=(), acted=0, distinguishable=False)")
    s = EpistemicState.make([w], w, actor="H", budget=2)
    assert repr(s) == f"EpistemicState(worlds=({w!r},), designated=0, actor='H', budget=2, pending=())"
    assert repr(Event(None, w.wid, True)) == (f"Event(action=None, source={w!r}, "
                                              "designated=True, remainder=())")
    assert repr(Refinement(PICK, (), ())).startswith("Refinement(first_primitive=")


def test_literal_str_forms():
    assert str(lit("handempty", "R")) == "handempty(R)"
    assert str(lit("mixed")) == "mixed"
    assert str(lit("on", "c_r", "mt", positive=False)) == "not on(c_r,mt)"


def test_literal_substitute():
    l = Literal("on", ("C", "mt"))
    assert l.substitute({"C": "c_r"}) == lit("on", "c_r", "mt")


def test_unify_gives_a_resolved_most_general_unifier():
    x_y, y_x = Literal("p", ("X", "Y")), Literal("p", ("Y", "X"))
    assert unify(x_y, y_x) == {"X": "Y"}
    assert x_y.substitute(unify(x_y, y_x)) == y_x.substitute(unify(x_y, y_x))
    chain = unify(Literal("q", ("X", "Y", "Y")), Literal("q", ("Y", "Z", "a")))
    assert chain == {"X": "a", "Y": "a", "Z": "a"}
    assert unify(Literal("q", ("X", "X")), Literal("q", ("a", "b"))) is None
    assert unify(Literal("q", ("X", "b")), Literal("q", ("a", "Y")), {"Y": "c"}) is None
    assert unify(lit("on", "C", "P"), lit("on", "c_r", "mt"), {"P": "mt"}) == {"P": "mt", "C": "c_r"}
