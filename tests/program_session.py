"""One run of each of the planner's entry points, under ``sys.setprofile``.

``python tests/program_session.py OUT`` runs, in a fresh interpreter:

* ``ehatp plan`` on p2, cooking1 and ``tests/data/roam``, and on a problem
  with a validation warning and a false ``believe``;
* ``ehatp simulate --exhaustive`` and a scripted ``--interactive`` on the
  policies it wrote;
* ``ehatp bench``;
* ``ehatp plan`` on malformed domains that reach the lexer's, the syntax
  and the reference errors;
* the library calls the benchmark (``planbench/run.py``) makes.

The profiler is set before ``ehatp`` is imported, so import-time calls
count.  It writes ``OUT/called.json``: each Python function called in
``src/ehatp``, as ``[file name, first line, code name]``.  The call census
in ``test_no_test_only_code.py`` reads it.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ehatp"
DATA = SRC / "data"
TESTS_DATA = ROOT / "tests" / "data"

called = set()


def _record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(_record)

from ehatp import cli, dsl, solver  # noqa: E402  (after the profiler, on purpose)


# Malformed domains, each reaching one kind of parse error.
MALFORMED = {
    "lexer": "domain d {\n  type cube @\n}\n",
    "syntax": "domain d {\n  type cube\n  predicate (\n}\n",
    "reference": "domain d {\n  method t m {\n    sub nowhere\n  }\n}\n",
}


def _plan(out: Path, name: str, domain: Path, problem: Path) -> Path:
    policy = out / f"{name}.policy.json"
    cli.main(["plan", "-d", str(domain), "-p", str(problem), "-o", str(policy),
              "--metrics", str(out / f"{name}.csv")])
    return policy


def _step(policy: Path, replies: str) -> None:
    stdin, sys.stdin = sys.stdin, io.StringIO(replies)
    try:
        cli.main(["simulate", "-P", str(policy), "--interactive"])
    finally:
        sys.stdin = stdin


def session(out: Path) -> None:
    p2 = _plan(out, "p2", DATA / "cube_org.ehatp", DATA / "p2.ehatp")
    cooking1 = _plan(out, "cooking1", DATA / "cooking.ehatp", DATA / "cooking1.ehatp")
    roam = _plan(out, "roam", TESTS_DATA / "roam.ehatp", TESTS_DATA / "roam_p.ehatp")

    # A predicate declared observable with no knowledge rule (a warning), and
    # a human who believes the cube is not on the main table (a note).
    odd_domain = out / "roam_warned.ehatp"
    odd_domain.write_text((TESTS_DATA / "roam.ehatp").read_text().replace(
        "  predicate at(agent, place) inferable",
        "  predicate at(agent, place) inferable\n  predicate lit(place) observable"))
    odd_problem = out / "roam_believed.ehatp"
    odd_problem.write_text((TESTS_DATA / "roam_p.ehatp").read_text().replace(
        "  init {", "  believe not on(c, mt)\n  init {"))
    _plan(out, "roam_odd", odd_domain, odd_problem)

    for policy in (p2, cooking1, roam):
        cli.main(["simulate", "-P", str(policy), "--exhaustive"])
    _step(p2, "\n" * 8)
    _step(cooking1, "3\n" + "1\n" * 8)
    cli.main(["bench", "-o", str(out / "bench.csv")])

    for kind, text in MALFORMED.items():
        bad = out / f"{kind}.ehatp"
        bad.write_text(text)
        cli.main(["plan", "-d", str(bad), "-p", str(DATA / "p2.ehatp"),
                  "-o", str(out / f"{kind}.policy.json")])

    # The benchmark's own calls (planbench/run.py).
    dom, prob = dsl.load_instance("p2")
    dsl.validate(dom, prob, filename="p2")
    res = solver.solve(dom, prob)
    cli.write_policy_file(out / "lib.policy.json", dsl.load_shipped("cube_org"),
                          dsl.load_shipped("p2"), res.policy)
    res.policy.to_json()
    dom, prob, policy = cli.read_policy_file(out / "lib.policy.json")
    cli.simulate(dom, prob, policy)
    cli.communication_is_load_bearing(dom, prob, policy)


def main() -> None:
    out = Path(sys.argv[1])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        session(out)
    sys.setprofile(None)
    rows = sorted({(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
                   for c in called if Path(c.co_filename).resolve().parent == SRC})
    (out / "called.json").write_text(json.dumps(rows))


if __name__ == "__main__":
    main()
