"""What a parse keeps, and where its warnings point.

Each parse builds its model from the text alone: a second parse of the same
text makes an equal model, not the same one, and leaves every module-level
table as the first parse left it.  Equal declarations still share one ground
table (``dsl._TABLES``), which outlives the parse by design.  The positions
the parser keeps on a model put `validate`'s warnings at their declaration.
"""

from pathlib import Path

from ehatp import cli, dsl, htn, kernel, model, solver
from ehatp.dsl import load_shipped, parse_domain, parse_problem, validate

DATA = Path(dsl.__file__).parent / "data"


def _module_state() -> dict[str, int]:
    """The size of every container, and of every function cache, that an
    ``ehatp`` module holds at module level."""
    sizes = {}
    for mod in (cli, dsl, htn, kernel, model, solver):
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)):
                sizes[f"{mod.__name__}.{name}"] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[f"{mod.__name__}.{name}"] = value.cache_info().currsize
    return sizes


def test_a_second_parse_builds_a_new_model_and_keeps_nothing():
    for dname, pname in (("cube_org", "p5"), ("cooking", "cooking2")):
        text, ptext = load_shipped(dname), load_shipped(pname)
        first = parse_domain(text, f"{dname}.ehatp")
        first_prob = parse_problem(ptext, first)
        state = _module_state()
        second = parse_domain(text, f"{dname}.ehatp")
        second_prob = parse_problem(ptext, second)
        assert second == first and second is not first
        assert second.memo == {} and second.memo is not first.memo
        assert second.declared_at == first.declared_at
        assert second.declared_at is not first.declared_at
        assert second.table is first.table  # shared by equal declarations
        assert second_prob == first_prob and second_prob is not first_prob
        assert _module_state() == state, dname


def test_plan_prints_each_warning_at_its_declaration(tmp_path, capsys):
    text = (load_shipped("cube_org")
            .replace("  rule see_holding: holding(A, C) when at(observer, P), at(A, P)\n", "")
            .replace("copresent when at(R, P), at(H, P)",
                     "copresent when at(R, P), at(H, P), on(c_r, P)"))
    domain = tmp_path / "cube_warned.ehatp"
    domain.write_text(text, encoding="utf-8")
    cli.main(["plan", "-d", str(domain), "-p", str(DATA / "p1.ehatp"),
              "-o", str(tmp_path / "p1.json")])
    warnings = [l for l in capsys.readouterr().err.splitlines() if ": warning: " in l]
    holding = text[:text.index("predicate holding")].count("\n") + 1
    copresent = text[:text.index("copresent when")].count("\n") + 1
    assert warnings == [
        f"{domain}:{holding}:13: warning: observable predicate 'holding' has no knowledge rule",
        f"{domain}:{copresent}:3: warning: copresent rule references 'on'; "
        "only agent positions are conventional",
    ]


def test_a_model_built_without_the_parser_warns_at_0_0():
    dom = parse_domain(load_shipped("cube_org"))
    bare = dsl.DomainModel(**{name: getattr(dom, name) for name in dsl._DECLARATIONS}
                           | {"rules": ()})
    assert {(d.line, d.col) for d in validate(bare)} == {(0, 0)}
    assert {(d.line, d.col) for d in validate(dom)} == set()
