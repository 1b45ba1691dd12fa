#!/usr/bin/env python3
"""Where the time goes: cProfile over warm rounds of one planbench workload.

    python3 tools/profile.py --workload {shipped,variants,replay}

The planner is imported from this checkout's ``src/`` the way
``tools/ab.py`` loads a tree, and the operations are
``planbench/run.py``'s own: the workload prepares its inputs, its checks
run on every input once during the untimed warm-up, and then `ROUNDS`
rounds of every input run under the profiler.  A failed check prints what
failed and exits 1 without profiling.

Printed: the seconds spent under the profiler; for each layer the
benchmark's tracer names (``planbench/tracer.py``), its calls, cumulative
seconds and cumulative share of that total; and the `TOP` functions by self
time, with their share.  cProfile charges a cost to every Python call, so
the shares lean towards call-heavy code; time a change with ``planbench``
or ``tools/ab.py``, not with this table.

Before profiling, one more round runs with every call memo captured as
``kernel.with_call_memo`` makes it, with the table of live interned
worlds (``model._WORLDS``) read after each world is built, and with the
HTN's questions counted.  Printed: the memo entries per key kind, summed
over the round and in the largest memo, its lookups and the share of them
answered from the memo; the most worlds alive at once in one call; the
calls of ``htn.answers`` against the distinct (agenda, base) questions
among them and the walks made (``htn._walk``), so the share answered by
the projection onto relevant atoms shows; and the share of the solver's
uniform-choice calls (``solver._uniform_human_refinements``) that meet a
world whose answer record is not the designated world's, so still
intersect; and, where the workload runs the load-bearing check
(``cli.communication_is_load_bearing``), the successors built inside it
(``solver._step`` and ``solver.synthesize_communication`` calls), which
a check on a loaded policy that `simulate` has replayed finds in the memo.
The collector runs before each call, so no call's worlds are counted in
the next.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# This file shares its name with the standard library's ``profile``, which
# ``cProfile`` imports: this directory is off the path for that import.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
import cProfile  # noqa: E402
import pstats  # noqa: E402

sys.path.insert(0, str(HERE))
import ab  # noqa: E402  (tools/ab.py: tree loading and planbench's workloads)
import tracer  # noqa: E402  (planbench/tracer.py, on the path ab.py set)

WARMUP = 3
ROUNDS = 5
TOP = 15
# Memo key kinds in the order a step meets them; any other kind is listed
# after these.  A key that is a tuple starting with a string is of that
# kind; the others are successors, keyed ``(group of events, context)``.
# ``done`` holds state evaluation's verdict per world; ``htn`` one answer
# record under each exact and each projected (agenda, mask) key;
# ``anticipate`` and ``human`` a world's group of events; ``view`` the
# in-view mask of a truth projected onto the atoms the observable
# instances test.  ``copresent`` counts the truths, projected onto the
# atoms the co-presence rule tests, in its own dict.
KINDS = ("done", "htn", "anticipate", "human", "successor", "view", "fold", "offer",
         "copresent")


def _code_key(prog, module: str, path: str) -> tuple | None:
    """The ``pstats`` key of the function a tracer target names."""
    obj = getattr(prog, module)
    for part in path.split("."):
        obj = getattr(obj, part)
    fn = getattr(obj, "fget", None) or getattr(obj, "__func__", None) or obj
    code = getattr(fn, "__code__", None)
    return code and (code.co_filename, code.co_firstlineno, code.co_name)


def _where(key: tuple) -> str:
    filename, line, name = key
    return f"{Path(filename).name}:{line}({name})" if line else name


def _kind(key) -> str | None:
    if isinstance(key, str):
        return key if key == "copresent" else None  # the other is the log flag
    head = key[0]
    return head if isinstance(head, str) else "successor"


class _Tallied(dict):
    """A call memo that counts, per key kind, the lookups made through
    ``get`` and the entries stored; a lookup that stores nothing was
    answered from the memo.  ``copresent`` is counted where it is asked."""

    tally: Counter

    def get(self, key, default=None):
        kind = _kind(key)
        if kind is not None and kind != "copresent":
            self.tally[kind, "lookups"] += 1
        return dict.get(self, key, default)

    def __setitem__(self, key, value) -> None:
        kind = _kind(key)
        if kind is not None and kind != "copresent":
            self.tally[kind, "stores"] += 1
        dict.__setitem__(self, key, value)


def _swapped(prog, fn, wrapper) -> list:
    """Put ``wrapper`` in place of ``fn`` in every module of ``prog`` that
    holds it; returns what undoes that."""
    undo = []
    for mod in prog.modules.values():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))
    return undo


def cache_sizes(prog, wl, items) -> tuple[list[Counter], int, str, Counter]:
    """One round of ``items`` with each call memo captured: each memo's
    entries by key kind, the most interned worlds alive at once in one
    call, that call's input, and one tally of the memo lookups and stores
    per kind, the HTN's calls, distinct questions and walks, the
    uniform-choice calls and those that intersect, and the load-bearing
    checks and the successors built inside them, by builder."""
    memos: list[dict] = []
    table = prog.model._WORLDS
    live = [0]
    with_call_memo, world_from = prog.kernel.with_call_memo, prog.model.world_from
    answers, walk = prog.htn.answers, prog.htn._walk
    copresent, uniform = prog.kernel._copresent, prog.solver._uniform_human_refinements
    check = prog.cli.communication_is_load_bearing
    builders = (prog.solver._step, prog.solver.synthesize_communication)
    memo_slot = vars(prog.dsl.DomainModel)["memo"]
    asked = Counter()
    checking_now = [False]
    questions: set = set()  # (memo id, agenda, mask); the memos live per input

    def capturing(dom):
        out = with_call_memo(dom)
        if out is not dom:
            memo = _Tallied(out.memo)
            memo.tally = asked
            memo_slot.__set__(out, memo)
            memos.append(memo)
        return out

    def asking_copresent(dom, truth, rule):
        if rule is dom.copresence and isinstance(dom.memo, _Tallied):
            asked["copresent", "lookups"] += 1
        return copresent(dom, truth, rule)

    def choosing(dom, s):
        out = uniform(dom, s)
        d = s.designated_world
        mine = dom.memo[("htn", d.tn_h, d.mask_h)]  # stored by the call, not tallied
        asked["uniform"] += 1
        asked["intersect"] += any(dom.memo[("htn", w.tn_h, w.mask_h)] is not mine
                                  for w in s.worlds)
        return out

    def counting(*args):
        w = world_from(*args)
        live[0] = max(live[0], len(table))
        return w

    def asking(dom, tn, mask):
        asked["calls"] += 1
        questions.add((id(dom.memo), tn, mask))
        return answers(dom, tn, mask)

    def walking(*args):
        asked["walks"] += 1
        return walk(*args)

    def checking(*args):
        asked["checks"] += 1
        checking_now[0] = True
        try:
            return check(*args)
        finally:
            checking_now[0] = False

    def building(build):
        def counted(*args, **kwargs):
            if checking_now[0]:
                asked["check builds", build.__name__] += 1
            return build(*args, **kwargs)
        return counted

    undo = (_swapped(prog, with_call_memo, capturing) + _swapped(prog, world_from, counting)
            + _swapped(prog, answers, asking) + _swapped(prog, walk, walking)
            + _swapped(prog, copresent, asking_copresent) + _swapped(prog, uniform, choosing)
            + _swapped(prog, check, checking)
            + [u for build in builders for u in _swapped(prog, build, building(build))])
    sizes: list[Counter] = []
    peak, where = 0, ""
    try:
        for item in items:
            gc.collect()
            live[0] = len(table)
            wl.call(prog, item)
            if live[0] > peak:
                peak, where = live[0], item.key
            # Counted and dropped now: a memo kept would keep its worlds.
            for memo in memos:
                kinds = Counter()
                for key, value in memo.items():
                    kind = _kind(key)
                    if kind is not None:
                        kinds[kind] += len(value[-1]) if kind == "copresent" else 1
                sizes.append(kinds)
                asked["copresent", "stores"] += kinds["copresent"]
            memos.clear()
            asked["questions"] += len(questions)
            questions.clear()
    finally:
        for mod, attr, fn in undo:
            setattr(mod, attr, fn)
    return sizes, peak, where, asked


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ab.run.WORKLOADS))
    args = ap.parse_args(argv)

    prog = ab.load_tree(ROOT / "src")
    ab.use(prog)
    wl = ab.run.WORKLOADS[args.workload]()
    items, problems = wl.prepare(prog, ab.SEED)
    failures = list(problems)
    for rep in range(WARMUP):
        for item in items:
            res = wl.call(prog, item)
            if rep == 0:
                failures += wl.check(prog, item, res).failures
    failures += wl.finish(prog, items)[1]
    if failures:
        print("wrong outputs:", *failures, sep="\n  ", file=sys.stderr)
        return 1

    per_memo, peak, where, asked = cache_sizes(prog, wl, items)
    kinds = list(KINDS) + sorted({k for c in per_memo for k in c} - set(KINDS))
    print(f"{args.workload}: {len(per_memo)} call memos in one round of {len(items)} inputs; "
          f"at most {peak} interned worlds alive at once ({where})")
    print(f"  {'memo key kind':<36} {'entries':>8} {'largest':>8} {'lookups':>8} {'hits':>6}")
    for kind in kinds:
        counts = [c[kind] for c in per_memo] or [0]
        lookups = asked[kind, "lookups"]
        hits = (lookups - asked[kind, "stores"]) / lookups if lookups else 0.0
        print(f"  {kind:<36} {sum(counts):>8} {max(counts):>8} {lookups:>8} {hits:6.1%}")
    calls, questions, walks = asked["calls"], asked["questions"], asked["walks"]
    print(f"  htn.answers: {calls} calls, {questions} distinct (agenda, base) questions, "
          f"{walks} walks; the projection answered {questions - walks} "
          f"({(questions - walks) / max(questions, 1):.1%} of the questions)")
    print(f"  uniform human choices: {asked['uniform']} calls, {asked['intersect']} "
          f"intersect ({asked['intersect'] / max(asked['uniform'], 1):.1%})")
    if asked["checks"]:
        steps, told = (asked["check builds", name] for name in ("_step", "synthesize_communication"))
        print(f"  load-bearing checks: {asked['checks']} calls, {steps + told} successors "
              f"built inside them (_step {steps}, synthesize_communication {told})")

    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(ROUNDS):
        for item in items:
            wl.call(prog, item)
    profiler.disable()
    stats = pstats.Stats(profiler).stats  # key -> (prim calls, calls, self, cum, callers)
    total = sum(entry[2] for entry in stats.values())

    print(f"{args.workload}: {ROUNDS} warm rounds of {len(items)} inputs, "
          f"{total:.3f} s under cProfile")
    print(f"  {'layer':<36} {'calls':>8} {'cum s':>8} {'share':>6}")
    for span, module, path, _ in tracer.TARGETS:
        entry = stats.get(_code_key(prog, module, path))
        calls, cum = (entry[1], entry[3]) if entry else (0, 0.0)
        print(f"  {span:<36} {calls:>8} {cum:8.3f} {cum / total:6.3f}")
    print(f"  top {TOP} by self time")
    print(f"  {'function':<50} {'calls':>8} {'self s':>8} {'share':>6}")
    ranked = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:TOP]
    for key, (_, calls, self_s, _, _) in ranked:
        print(f"  {_where(key):<50} {calls:>8} {self_s:8.3f} {self_s / total:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
