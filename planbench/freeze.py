#!/usr/bin/env python3
"""Freeze the golden data the benchmark checks against.

    python3 planbench/freeze.py

Writes ``golden/<instance>.policy.json`` for the nine shipped instances,
exactly as ``ehatp.cli.write_policy_file`` emits them, and
``golden/expected.json`` with each instance's structural counts and the
outcome of replaying its frozen policy.  Run it only on a commit whose
planner output is the reference; the benchmark never runs it.
"""

import json

from run import GOLDEN, SHIPPED, load_program, replay_facts


def main() -> None:
    prog = load_program()
    expected: dict[str, dict] = {"shipped": {}, "replay": {}}
    for name in SHIPPED:
        dom, prob = prog.dsl.load_instance(name)
        res = prog.solver.solve(dom, prob)
        m = res.metrics
        expected["shipped"][name] = {"maxW": m.maxW, "leaves": m.leaves, "states": m.states}
        path = GOLDEN / f"{name}.policy.json"
        prog.cli.write_policy_file(path, prog.dsl.load_shipped(dom.name),
                                   prog.dsl.load_shipped(name), res.policy)
        dom, prob, policy = prog.cli.read_policy_file(path)
        expected["replay"][name] = replay_facts(
            policy, prog.cli.simulate(dom, prob, policy),
            prog.cli.communication_is_load_bearing(dom, prob, policy))
    (GOLDEN / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
