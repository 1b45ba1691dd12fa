"""Randomized invariants of the belief dynamics, search, and file format.

Every suite runs at least a thousand generated cases.  States are drawn over
the box-stowing domain with scrambled cube layouts, divergent belief bases,
and arbitrary agendas; graphs and domain models are built from scratch.
"""

from functools import reduce
from itertools import combinations
from operator import or_

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ehatp import htn, kernel
from ehatp.dsl import (
    ActionSchema,
    DomainModel,
    KnowledgeRule,
    MethodSchema,
    Param,
    PredicateDecl,
    _foreign_action,
    load_shipped,
    parse_domain,
)
from ehatp.htn import (
    Answer,
    alignment_diff,
    answers,
    effectively_decomposed,
    feasible_refinements,
    relevant,
)
from ehatp.kernel import (
    build_epistemic_action,
    product_update,
    situation_assessment,
)
from ehatp.model import (
    BeliefBase,
    EpistemicState,
    Literal,
    MalformedLiteralError,
    Task,
    World,
    atoms_of,
    is_variable,
)
from ehatp.solver import (
    DEAD,
    DONE,
    UNKNOWN,
    SearchNode,
    propagate_revised_status,
)
from helpers import (
    applied,
    assigned,
    base_of,
    copresent,
    lit,
    plain_assessment,
    pretty_print_domain,
)

CUBE = parse_domain(load_shipped("cube_org"))
CUBES = ("c_r", "c_y", "c_w")
BOXES = ("box_1", "box_2")
SPOTS = ("mt", "ot", "box_1", "box_2", "R", "H")

CASES = settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def _task_pool() -> list[Task]:
    pool: list[Task] = []
    for name in sorted(CUBE.task_names()):
        m = CUBE.methods_for(name)[0]
        if not m.params:
            pool.append(Task(name))
        elif len(m.params) == 1 and m.params[0].type == "cube":
            pool.extend(Task(name, (c,)) for c in CUBES)
    return pool


TASKS = _task_pool()


def cube_truth(layout, r_at, h_at, wrapped, scanned, transparent) -> BeliefBase:
    atoms = [lit("at", "R", r_at), lit("at", "H", h_at),
             lit("main", "box_1"), lit("spare", "box_2")]
    for c in CUBES:
        atoms += [lit("partner", c, c), lit("any_box", c)]
    for c, where in zip(CUBES, layout):
        if where in ("mt", "ot"):
            atoms.append(lit("on", c, where))
        elif where in BOXES:
            atoms.append(lit("inside", c, where))
        else:
            atoms.append(lit("holding", where, c))
    for b in BOXES:
        if all(where != b for where in layout):
            atoms.append(lit("empty", b))
    atoms += [lit("wrapped", c) for c in wrapped]
    atoms += [lit("scanned", p) for p in scanned]
    atoms += [lit("transparent", b) for b in transparent]
    return base_of(*atoms)


layouts = st.tuples(*(st.sampled_from(SPOTS) for _ in CUBES))
# Agendas an agent may hold: tasks that decompose to none of the other
# agent's actions, as the parser requires of root tasks.  ``tn_r`` and
# ``tn_rh`` are the robot's agenda, ``tn_h`` the human's.
OWN_TASKS = {agent: [t for t in TASKS if _foreign_action(CUBE, t, agent) is None]
             for agent in ("R", "H")}
agendas = {agent: st.lists(st.sampled_from(tasks), max_size=2).map(tuple)
           for agent, tasks in OWN_TASKS.items()}


@st.composite
def cube_states(draw, max_worlds=4):
    r_at = draw(st.sampled_from(("mt", "ot")))
    h_at = draw(st.sampled_from(("mt", "ot")))
    wrapped = draw(st.sets(st.sampled_from(CUBES)))
    scanned = draw(st.sets(st.sampled_from(("mt", "ot"))))
    transparent = draw(st.sets(st.sampled_from(BOXES)))
    tn_r = draw(agendas["R"])
    tn_h = draw(agendas["H"])

    def world(i: int) -> World:
        lay_r = draw(layouts)
        lay_h = draw(st.one_of(st.just(lay_r), layouts))
        lay_rh = draw(st.one_of(st.just(lay_h), layouts))
        return World(
            bel_r=cube_truth(lay_r, r_at, h_at, wrapped, scanned, transparent),
            bel_h=cube_truth(lay_h, r_at, h_at, wrapped, scanned, transparent),
            bel_rh=cube_truth(lay_rh, r_at, h_at, wrapped, scanned, transparent),
            tn_r=tn_r,
            tn_h=tn_h,
            tn_rh=draw(agendas["R"]),
            acted=draw(st.integers(0, 2)),
            distinguishable=i > 0 and draw(st.booleans()),
        )

    worlds = [world(i) for i in range(draw(st.integers(1, max_worlds)))]
    return EpistemicState.make(
        worlds, worlds[0],
        actor=draw(st.sampled_from(("R", "H"))),
        budget=draw(st.integers(0, 3)))


def _robot_view(w: World):
    return (w.bel_r, w.tn_r, w.tn_h, w.tn_rh)


# -- situation assessment ----------------------------------------------------


@CASES
@given(cube_states(), st.integers(1, 3))
def test_assessment_keeps_the_designated_world(s, k):
    out = situation_assessment(CUBE, s, k)
    assert _robot_view(out.designated_world) == _robot_view(s.designated_world)


@CASES
@given(cube_states(), st.integers(1, 3))
def test_assessment_only_removes_worlds(s, k):
    out = situation_assessment(CUBE, s, k)
    assert len(out.worlds) <= len(s.worlds)
    before = {_robot_view(w) for w in s.worlds}
    assert all(_robot_view(w) in before for w in out.worlds)


@CASES
@given(cube_states(), st.integers(1, 3))
def test_assessment_twice_is_once(s, k):
    once = situation_assessment(CUBE, s, k)
    again = situation_assessment(CUBE, once, k)
    assert again.signature() == once.signature()


@CASES
@given(cube_states(), st.integers(1, 3))
def test_assessment_matches_a_plain_reference(s, k):
    assert (situation_assessment(CUBE, s, k).signature()
            == plain_assessment(CUBE, s, k).signature())


# -- product update ----------------------------------------------------------


@CASES
@given(cube_states(), st.integers(1, 3), st.booleans())
def test_product_pairs_account_for_every_world(s, k, act):
    d = s.designated_world
    refs = (feasible_refinements(CUBE, d.tn_r, d.mask_r)
            if s.actor == "R"
            else feasible_refinements(CUBE, d.tn_h, d.mask_h))
    choice = refs[0] if (act and refs) else None
    # The search never offers a hidden robot action with no budget left.
    assume(not (s.actor == "R" and choice is not None
                and not copresent(d, CUBE.copresence) and s.budget == 0))
    a = build_epistemic_action(CUBE, s, choice, k)
    out = product_update(CUBE, s, a)

    # Count the applicable (world, event) pairs and mirror the pairing to
    # predict the surviving distinct worlds: the successor keeps exactly one
    # world per distinct outcome, never more than one per pair.  Each pair's
    # three bases are also predicted over plain sets, (atoms - dels) | adds.
    by_wid = {w.wid: w for w in s.worlds}
    d_event = a.designated_event
    co = copresent(by_wid[d_event.source], a.copresence)
    pairs = 0
    outcomes = set()
    bases = set()
    for e in a.events:
        w = by_wid[e.source]
        if e.action is not None:
            base = (w.bel_h if a.actor == "H"
                    else (w.bel_r if e.designated else w.bel_rh))
            atoms = base.atoms
            if not all((l.atom in atoms) == l.positive for l in e.action.pre):
                continue
        pairs += 1
        mark = (co and a.actor == "R" and not e.designated
                and not kernel._same_act(e.action, d_event.action))
        child = kernel._successor(CUBE, w, e, a.actor, mark)
        outcomes.add(child.key())
        r, h, rh = w.bel_r.atoms, w.bel_h.atoms, w.bel_rh.atoms
        if e.action is not None:
            adds, dels = e.action.adds, e.action.dels
            h, rh = _ref_apply(h, adds, dels), _ref_apply(rh, adds, dels)
            # A hypothetical robot course's truth is the human's projection.
            r = (_ref_apply(r, adds, dels) if a.actor == "H" or e.designated
                 else rh)
        bases.add((r, h, rh))
        if e.designated:
            designated = (r, h, rh)
    assert len(out.worlds) == len(outcomes)
    assert len(out.worlds) <= pairs
    assert {(w.bel_r.atoms, w.bel_h.atoms, w.bel_rh.atoms)
            for w in out.worlds} == bases
    d_out = out.designated_world
    assert (d_out.bel_r.atoms, d_out.bel_h.atoms, d_out.bel_rh.atoms) == designated


# -- world growth under hidden work ------------------------------------------


@st.composite
def separated_starts(draw):
    lay = draw(layouts)
    lay_h = draw(st.one_of(st.just(lay), layouts))
    w = World(
        bel_r=cube_truth(lay, "mt", "ot", frozenset(), frozenset(), frozenset()),
        bel_h=cube_truth(lay_h, "mt", "ot", frozenset(), frozenset(), frozenset()),
        bel_rh=cube_truth(lay_h, "mt", "ot", frozenset(), frozenset(), frozenset()),
        tn_r=draw(agendas["R"]),
        tn_h=draw(agendas["H"]),
        tn_rh=draw(agendas["R"]),
    )
    k = draw(st.integers(1, 2))
    return EpistemicState.make([w], w, actor="R", budget=k), k


@CASES
@given(separated_starts())
def test_hidden_work_growth_is_budget_bounded(start):
    s, k = start
    m = 1
    for _ in range(k + 2):
        for w in s.worlds:
            m = max(m, 1 + len(feasible_refinements(CUBE, w.tn_rh, w.mask_rh)))
        a = build_epistemic_action(CUBE, s, None, k)
        s = situation_assessment(CUBE, product_update(CUBE, s, a), k)
        assert len(s.worlds) <= sum(m ** i for i in range(k + 1))
        a = build_epistemic_action(CUBE, s, None, k)  # human stands by
        s = situation_assessment(CUBE, product_update(CUBE, s, a), k)


# -- status propagation --------------------------------------------------------


@st.composite
def search_graphs(draw):
    n = draw(st.integers(1, 50))
    kinds = [draw(st.sampled_from(("OR", "AND"))) for _ in range(n)]
    children: list[list[int] | None] = []
    for i in range(n):
        if i < n - 1 and draw(st.booleans()):
            kids = draw(st.lists(st.integers(i + 1, n - 1),
                                 min_size=1, max_size=3))
            if draw(st.integers(0, 9)) == 0:
                kids.append(draw(st.integers(0, i)))  # cycle or shared child
            children.append(kids)
        else:
            children.append(None)
    statuses = [draw(st.sampled_from((DONE, DEAD))) for _ in range(n)]
    order = draw(st.permutations(range(n)))
    return kinds, children, statuses, order


def _fixpoint(kinds, children, statuses):
    out = [statuses[i] if kids is None else UNKNOWN
           for i, kids in enumerate(children)]
    changed = True
    while changed:
        changed = False
        for i, kids in enumerate(children):
            if kids is None or out[i] != UNKNOWN:
                continue
            vals = [out[j] for j in kids]
            if kinds[i] == "OR":
                new = (DONE if DONE in vals
                       else DEAD if all(v == DEAD for v in vals) else UNKNOWN)
            else:
                new = (DONE if all(v == DONE for v in vals)
                       else DEAD if DEAD in vals else UNKNOWN)
            if new != UNKNOWN:
                out[i] = new
                changed = True
    return out


@CASES
@given(search_graphs())
def test_status_propagation_matches_fixpoint(graph):
    kinds, children, statuses, order = graph
    nodes = [SearchNode(state=None, kind=k) for k in kinds]
    for i, kids in enumerate(children):
        if kids is None:
            continue
        nodes[i].children = [(f"e{j}", nodes[j]) for j in kids]
        for j in kids:
            nodes[j].parents.append(nodes[i])
    for i in order:
        if children[i] is None:
            nodes[i].children = []
            nodes[i].status = statuses[i]
            propagate_revised_status(nodes[i])
    assert [n.status for n in nodes] == _fixpoint(kinds, children, statuses)


# -- alignment patches ---------------------------------------------------------


def _transfer(base: BeliefBase, literals) -> BeliefBase:
    """``base`` with each literal's atom forced to the literal's polarity."""
    atoms = set(base.atoms)
    for l in literals:
        (atoms.add if l.positive else atoms.discard)(l.atom)
    return BeliefBase(atoms)


def _relevant_atoms(bel: BeliefBase, tn) -> set[Literal]:
    return {p.atom for r in feasible_refinements(CUBE, tn, bel.mask)
            for p in r.first_primitive.pre}


@st.composite
def divergent_views(draw):
    """A robot view plus a perturbed model of the human, biased so the flips
    usually touch atoms the current refinements actually read."""
    h_at = draw(st.sampled_from(("mt", "ot", "ot")))
    lay = tuple(draw(st.sampled_from(("mt", "mt", "ot", "box_1", "box_2", "H")))
                for _ in CUBES)
    bel_r = cube_truth(lay, "mt", h_at, frozenset(), frozenset(), frozenset())
    tn = draw(st.lists(st.sampled_from(OWN_TASKS["R"]), min_size=1, max_size=2).map(tuple))
    tn_rh = tn if draw(st.integers(0, 4)) else draw(agendas["R"])
    rel = sorted(_relevant_atoms(bel_r, tn) | _relevant_atoms(bel_r, tn_rh),
                 key=str)
    extra = ([lit("on", c, p) for c in CUBES for p in ("mt", "ot")]
             + [lit("empty", b) for b in BOXES])
    cands = rel if (rel and draw(st.integers(0, 4))) else extra
    bel_rh = bel_r
    for a in draw(st.sets(st.sampled_from(cands), min_size=1, max_size=3)):
        bel_rh = _transfer(bel_rh, [a.negate() if bel_rh.entails(a) else a])
    return bel_r, tn, bel_rh, tn_rh


@CASES
@given(divergent_views())
def test_alignment_patch_is_minimal(view):
    bel_r, tn, bel_rh, tn_rh = view
    diff = alignment_diff(CUBE, bel_r.mask, tn, bel_rh.mask, tn_rh)
    assume(diff is not None)
    if not diff:
        # An empty patch must mean the views already induce the same options.
        assert (answers(CUBE, tn_rh, bel_rh.mask).firsts
                == answers(CUBE, tn, bel_r.mask).firsts)
        return
    assert alignment_diff(CUBE, bel_r.mask, tn, _transfer(bel_rh, diff).mask,
                          tn_rh) == frozenset()
    if len(diff) <= 3:  # the subset search is exhaustive in this range
        for take in range(1, len(diff)):
            for subset in combinations(sorted(diff, key=str), take):
                assert alignment_diff(
                    CUBE, bel_r.mask, tn, _transfer(bel_rh, subset).mask,
                    tn_rh) != frozenset()


# -- printed domains reparse identically ---------------------------------------


@st.composite
def domain_models(draw):
    types = [f"ty{i}" for i in range(draw(st.integers(0, 2)))]
    places = [f"pl{i}" for i in range(draw(st.integers(1, 3)))]
    objects = []
    for i, t in enumerate(types):
        objects += [(f"ob{i}{j}", t) for j in range(draw(st.integers(0, 3)))]
    usable = sorted({t for _, t in objects}) + ["place", "agent"]

    def constants(t: str) -> tuple[str, ...]:
        if t == "agent":
            return ("R", "H")
        if t == "place":
            return tuple(places)
        return tuple(n for n, ot in objects if ot == t)

    predicates = [PredicateDecl("at", ("agent", "place"), False)]
    for i in range(draw(st.integers(0, 3))):
        sig = tuple(draw(st.sampled_from(usable))
                    for _ in range(draw(st.integers(0, 2))))
        predicates.append(PredicateDecl(
            f"pr{i}", sig, draw(st.booleans())))

    rules = []
    observed = [p for p in predicates if p.observable]
    if observed and draw(st.booleans()):
        target_decl = draw(st.sampled_from(observed))
        args = []
        place_var = None
        for j, t in enumerate(target_decl.param_types):
            if t == "place" and place_var is None:
                place_var = f"Pv{j}"
                args.append(place_var)
            else:
                args.append(f"Va{j}")
        rules.append(KnowledgeRule(
            "r0", Literal(target_decl.name, tuple(args)),
            (Literal("at", ("observer", place_var or "Pw")),)))

    def literal(bound: dict[str, str], polarity=True) -> Literal | None:
        cands = [p for p in predicates
                 if all(constants(t) or
                        any(bt == t for bt in bound.values())
                        for t in p.param_types)]
        if not cands:
            return None
        p = draw(st.sampled_from(cands))
        args = []
        for t in p.param_types:
            vars_of_t = [v for v, bt in bound.items() if bt == t]
            pool = list(constants(t)) + vars_of_t
            args.append(draw(st.sampled_from(pool)))
        positive = polarity if isinstance(polarity, bool) else draw(st.booleans())
        return Literal(p.name, tuple(args), positive)

    def clause(bound, size, polarity=True):
        out = []
        for _ in range(draw(st.integers(0, size))):
            l = literal(bound, polarity)
            if l is not None:
                out.append(l)
        return tuple(out)

    actions = []
    for i in range(draw(st.integers(1, 3))):
        params = []
        for j in range(draw(st.integers(0, 2))):
            t = draw(st.sampled_from(usable))
            if constants(t) or t == "place":
                params.append(Param(f"X{j}", t))
        bound = {p.name: p.type for p in params}
        place_params = [p.name for p in params if p.type == "place"]
        place = draw(st.sampled_from(place_params + places))
        pre = clause(bound, 2, polarity=None)
        # Effects the parser accepts: no add and delete that may name one
        # atom, and an agent's place changed only by a move, which requires
        # the place it leaves and not the one it enters.
        adds = tuple(l for l in clause(bound, 2) if l.pred != "at")
        dels = tuple(l for l in clause(bound, 2) if l.pred != "at" and not any(
            a.pred == l.pred and all(x == y or is_variable(x) or is_variable(y)
                                     for x, y in zip(a.args, l.args)) for a in adds))
        if draw(st.booleans()):
            agent = draw(st.sampled_from(["R", "H"] + [v for v, t in bound.items() if t == "agent"]))
            there, here = (draw(st.sampled_from(places + place_params)) for _ in range(2))
            pre += (Literal("at", (agent, here)), Literal("at", (agent, there), False))
            adds += (Literal("at", (agent, there)),)
            dels += (Literal("at", (agent, here)),)
        actions.append(ActionSchema(
            f"ac{i}", draw(st.sampled_from(("R", "H"))), tuple(params), place,
            pre, adds, dels))

    task_names = [f"tk{i}" for i in range(draw(st.integers(1, 3)))]
    methods = []
    for i, tname in enumerate(task_names):
        subtasks = []
        later = task_names[i + 1:]  # an acyclic task graph: the parser rejects the rest
        for _ in range(draw(st.integers(0, 2))):
            if not later or draw(st.booleans()):
                a = draw(st.sampled_from(actions))
                subtasks.append(Task(a.name, tuple(
                    draw(st.sampled_from(constants(p.type)))
                    for p in a.params)))
            else:
                subtasks.append(Task(draw(st.sampled_from(later))))
        methods.append(MethodSchema(
            tname, (), f"m{i}", clause({}, 2, polarity=None), tuple(subtasks)))

    return DomainModel(
        name="gen0",
        types=tuple(types),
        places=tuple(places),
        objects=tuple(objects),
        predicates=tuple(predicates),
        rules=tuple(rules),
        copresence=(Literal("at", ("R", "P")), Literal("at", ("H", "P"))),
        actions=tuple(actions),
        methods=tuple(methods),
    )


@CASES
@given(domain_models())
def test_printed_domains_reparse_identically(dom):
    assert parse_domain(pretty_print_domain(dom)) == dom


# -- packed belief bases against a plain frozenset reference -------------------

HELD = ([lit("on", c, p) for c in CUBES for p in ("mt", "ot")]
        + [lit("inside", c, b) for c in CUBES for b in BOXES]
        + [lit("empty", b) for b in BOXES]
        + [lit("wrapped", c) for c in CUBES]
        + [lit("mixed")])
# Atoms no base ever holds: queried and retracted, never added.
NEVER_HELD = [lit("never_held", c) for c in CUBES]
NON_GROUND = Literal("on", ("C", "mt"))


def _signed(pool):
    return st.sampled_from(pool).flatmap(
        lambda l: st.sampled_from((l, l.negate())))


held_sets = st.frozensets(st.sampled_from(HELD))
queries = _signed(HELD + NEVER_HELD + [NON_GROUND])
effects = st.lists(_signed(HELD + [NON_GROUND]), max_size=3)


def _require_ground(l: Literal) -> None:
    if not l.is_ground():
        raise MalformedLiteralError(str(l))


def _ref_entails(atoms: frozenset, l: Literal) -> bool:
    _require_ground(l)
    return (l.atom in atoms) == l.positive


def _ref_assign(atoms: frozenset, l: Literal, value: bool) -> frozenset:
    if not value:
        return atoms - {l.atom}
    _require_ground(l)
    return atoms | {l.atom}


def _ref_apply(atoms: frozenset, adds, dels) -> frozenset:
    """Drop, then add: an atom both added and deleted ends up held."""
    add = frozenset(l.atom for l in adds)
    drop = frozenset(l.atom for l in dels)
    for a in add | drop:
        _require_ground(a)
    return (atoms - drop) | add


def _outcome(fn, *args):
    """What ``fn`` returns (a base read as its atom set), or the error type."""
    try:
        out = fn(*args)
    except MalformedLiteralError as e:
        return type(e)
    return out.atoms if isinstance(out, BeliefBase) else out


@CASES
@given(held_sets, held_sets, effects, effects, st.lists(queries, max_size=4),
       st.booleans())
def test_packed_bases_match_a_frozenset_reference(a, b, adds, dels, asked, value):
    x, y = BeliefBase(a), BeliefBase(b)
    assert x.atoms == a and len(x) == len(a)
    assert x == BeliefBase(sorted(a, key=str, reverse=True))
    assert (x == y) == (a == b)
    assert a != b or hash(x) == hash(y)
    assert set(atoms_of(x.mask ^ y.mask)) == a ^ b
    for q in asked:
        assert _outcome(x.entails, q) == _outcome(_ref_entails, a, q)
        assert (_outcome(lambda: assigned(x, q.atom, value))
                == _outcome(_ref_assign, a, q, value))
    assert _outcome(applied, x, adds, dels) == _outcome(_ref_apply, a, adds, dels)


# -- memoized HTN queries against fresh, uncached calls --------------------------

# One memo shared by every case, so that repeated inputs are answered from it.
MEMO_CUBE = CUBE.with_fresh_memo()


@CASES
@given(layouts, st.sampled_from(("mt", "ot")), st.sets(st.sampled_from(CUBES)),
       st.sets(st.sampled_from(BOXES)), st.one_of(agendas["R"], agendas["H"]),
       layouts, st.sets(st.sampled_from(CUBES)))
def test_memoized_htn_queries_match_fresh_calls(lay, h_at, wrapped, transparent, tn,
                                                other_lay, other_wrapped):
    bel = cube_truth(lay, "mt", h_at, wrapped, frozenset(), transparent)
    walked = htn._walk(CUBE, tn, bel.mask)  # no memo, the full mask
    record = answers(MEMO_CUBE, tn, bel.mask)
    for field in Answer._fields:
        assert getattr(record, field) == getattr(walked, field), field
    assert answers(MEMO_CUBE, tn, bel.mask) is record  # a memo hit
    for fn, want in ((feasible_refinements, walked.refinements),
                     (effectively_decomposed, walked.done)):
        assert fn(CUBE.with_fresh_memo(), tn, bel.mask) == want
        assert fn(MEMO_CUBE, tn, bel.mask) == want
    # The record's views are those of its refinements.
    refs = walked.refinements
    assert walked.keys == {r.key() for r in refs}
    assert walked.firsts == {(r.first_primitive.name, r.first_primitive.args) for r in refs}
    assert walked.pres == reduce(or_, (r.pres for r in refs), 0)
    # A base that agrees with ``bel`` on the relevant atoms gets the same
    # walk, and shares ``bel``'s one memo entry.
    rel = relevant(CUBE, tn)
    other = cube_truth(other_lay, "ot", h_at, other_wrapped, frozenset({"mt"}), transparent)
    mixed = (bel.mask & rel) | (other.mask & ~rel)
    assert htn._walk(CUBE, tn, mixed) == walked
    dom = CUBE.with_fresh_memo()
    assert answers(dom, tn, mixed) is answers(dom, tn, bel.mask)
    assert len({id(v) for v in dom.memo.values()}) == 1
