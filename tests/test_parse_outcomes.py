"""Every parse outcome of a fixed corpus of edited model files, pinned.

The corpus takes each shipped `.ehatp` file and edits one token at a time:
it drops the token, duplicates it, replaces it with a word from a small pool
(`POOL`) or with another word of the same file, or inserts a pool word
(into a problem, a `believe` line from `BELIEFS`) before the first token of
its line.  Which tokens and which words is drawn from a generator seeded
with the file's name, so the corpus is the same on every run.  Each edit's
outcome is the exact text of the `ParseError` it raises, or a digest of
every parsed field (`belief_at` included) when it parses.

`tests/data/parse_outcomes.json` holds the outcomes the parser gave when the
file was written; a rewrite of the parser must reproduce each of them.  Run
this module as a script to write the file again:

    PYTHONPATH=src python3 tests/test_parse_outcomes.py
"""

import hashlib
import json
import random
import re
from pathlib import Path

from ehatp.dsl import ParseError, load_shipped, parse_domain, parse_problem

GOLDEN = Path(__file__).resolve().parent / "data" / "parse_outcomes.json"

DOMAINS = ("cube_org", "cooking")
PROBLEMS = {**{f"p{i}": "cube_org" for i in range(1, 7)},
            **{f"cooking{i}": "cooking" for i in range(1, 4)}}
EDITS = {"cube_org": 300, "cooking": 300, **{name: 100 for name in PROBLEMS}}
POOL = ("(", ")", "{", "}", ",", ":", "not", "X", "q", "at", "H", "R", "7", "-1",
        "when", "observable", "mt", "cube", "task", "$")
# What an insertion into a problem file adds: a belief line.
BELIEFS = ("believe on(c_r, ot)", "believe not empty(box_1)", "believe washed(veg)",
           "believe not mats_laid")
# A token as the lexer splits the shipped files: an identifier, an integer,
# a punctuation mark, or any other visible character.
TOKEN = re.compile(r"[A-Za-z_]\w*|-?[0-9]+|\S")


def edits(name: str) -> list[tuple[str, str]]:
    """``(label, text)`` of each edit of the shipped file ``name``, the
    unedited text first."""
    text = load_shipped(name)
    blank = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), text)
    spans = [m.span() for m in TOKEN.finditer(blank)]
    words = sorted({text[a:b] for a, b in spans if text[a].isalpha()})
    rng = random.Random(name)
    out = [(name, text)]
    for n in range(EDITS[name]):
        i = rng.randrange(len(spans))
        op = rng.choice(("drop", "dup", "replace", "insert", "swap"))
        while op == "insert" and i and "\n" not in blank[spans[i - 1][1]:spans[i][0]]:
            i -= 1  # insert at the start of a line
        start, end = spans[i]
        word = rng.choice(words if op == "swap" else
                          BELIEFS if op == "insert" and name in PROBLEMS else POOL)
        new = {"drop": " ", "dup": f"{text[start:end]} {text[start:end]}",
               "replace": f" {word} ", "insert": f" {word} {text[start:end]}",
               "swap": f" {word} "}[op]
        label = f"{name}:{n}:{op}:{i}" + (f":{word}" if op not in ("drop", "dup") else "")
        out.append((label, text[:start] + new + text[end:]))
    return out


def _digest(fields: tuple) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def outcome(name: str, text: str, shipped: dict) -> str:
    """The error text, or ``ok <digest>`` of the parsed fields; a problem is
    parsed against its domain in ``shipped``."""
    try:
        if name in DOMAINS:
            d = parse_domain(text, filename=f"{name}.ehatp")
            return "ok " + _digest((d.name, d.types, d.places, d.objects, d.predicates,
                                    d.rules, d.copresence, d.actions, d.methods))
        p = parse_problem(text, shipped[PROBLEMS[name]], filename=f"{name}.ehatp")
        return "ok " + _digest((p.name, p.domain_name, p.k, p.comm_allowed, p.robot_place,
                                p.human_place, p.root_task_r, p.root_task_h,
                                p.ground_truth.canonical(), p.belief_deltas, p.belief_at))
    except ParseError as e:
        return str(e)


def outcomes() -> dict[str, str]:
    shipped = {name: parse_domain(load_shipped(name)) for name in DOMAINS}
    return {label: outcome(name, text, shipped)
            for name in (*DOMAINS, *PROBLEMS) for label, text in edits(name)}


def test_every_edit_parses_or_fails_as_pinned():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outcomes()
    assert list(got) == list(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_the_corpus_reaches_every_outcome_kind():
    """Most edits fail, in the syntax or the reference checks; some parse,
    a number of them with a false belief."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    ok = [k for k, v in want.items() if v.startswith("ok ")]
    assert len(want) == 1511
    assert len(ok) > 50
    assert sum(":believe" in k for k in ok) > 10
    assert any("undeclared" in v for v in want.values())
    assert any("expected" in v for v in want.values())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outcomes(), indent=0, ensure_ascii=False) + "\n",
                      encoding="utf-8")
