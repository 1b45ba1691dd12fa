#!/usr/bin/env python3
"""In-process alternating A/B of two planner trees.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload {shipped,variants,replay}

Each ``*_SRC`` is a ``src/`` directory holding an ``ehatp`` package, for
example a ``git archive`` copy of the parent commit and this checkout's
``src``.  Both trees are imported into this one process, under the same
package name one after the other, so each keeps its own modules, interned
atoms and grounding tables.  The operations are ``planbench``'s own: the
workload classes of ``planbench/run.py`` prepare the inputs and make each
call, and their checks run on every input once, during warm-up.  Then the
two sides' answers are compared input by input: the search counts or
replayed states and traces of each call, and for ``variants`` each draw's
verdict, counts and policy digest.  If any check fails or any answer
differs, nothing is timed and the exit status is 1, so a ratio is only
ever printed for two trees that compute the same answers.

After `WARMUP` untimed repeats, each of `ROUNDS` rounds visits the inputs
in one order drawn from a generator seeded with `SEED` (also the
workload's seed) and times each input on both sides back to back, a pair;
which side goes first alternates from input to input and, for each input,
from round to round.  The collector runs before every call, so neither
side pays for the other's garbage.  The two calls of a pair are
milliseconds apart, so they share the machine's drift, which a run of
``planbench`` per side, or a whole round per side, does not.

Printed: per input, each side's median wall time, their ratio (change
over parent) and the pairs the change won; the geometric mean of those
ratios; the pairs and the round totals the change won; and each side's
median round total.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import random
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 40
WARMUP = 3
SEED = 1
sys.path.insert(0, str(ROOT / "planbench"))
import run  # noqa: E402  (planbench's workloads)


def _drop() -> None:
    for name in [n for n in sys.modules if n == "ehatp" or n.startswith("ehatp.")]:
        del sys.modules[name]


def load_tree(src: Path) -> SimpleNamespace:
    """The planner's modules imported from ``src``.  ``modules`` keeps every
    ``ehatp`` entry of ``sys.modules`` for `use`, since the planner looks up
    its own package by name (to read its shipped data)."""
    if not (src / "ehatp" / "__init__.py").is_file():
        raise SystemExit(f"no ehatp package under {src}")
    _drop()
    sys.path.insert(0, str(src))
    try:
        prog = SimpleNamespace(**{m: importlib.import_module(f"ehatp.{m}")
                                  for m in run.MODULES})
    finally:
        sys.path.remove(str(src))
    if Path(prog.model.__file__).resolve().parent != (src / "ehatp").resolve():
        raise SystemExit(f"ehatp was imported from {prog.model.__file__}, not {src}")
    prog.modules = {n: m for n, m in sys.modules.items()
                    if n == "ehatp" or n.startswith("ehatp.")}
    return prog


def use(prog: SimpleNamespace) -> None:
    """Make ``prog``'s tree the one that ``import ehatp`` finds."""
    _drop()
    sys.modules.update(prog.modules)


def answer(wl, item, out) -> tuple:
    """What one checked call computed, in a form comparable across trees."""
    first = item.expect[0] if isinstance(wl, run.Variants) else None
    return out.work, out.search, out.traces, first


def timed(wl, prog, item) -> float:
    gc.collect()
    t0 = time.perf_counter()
    wl.call(prog, item)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's src/ directory")
    ap.add_argument("change", type=Path, help="the change's src/ directory")
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)

    sides = []
    for src in (args.parent, args.change):
        prog = load_tree(src.resolve())
        use(prog)
        wl = run.WORKLOADS[args.workload]()
        items, problems = wl.prepare(prog, SEED)
        if problems:
            raise SystemExit(f"{src}: invalid inputs: {problems}")
        sides.append((prog, wl, items))
    keys = [i.key for i in sides[0][2]]

    failures, answers = [], []
    for prog, wl, items in sides:
        use(prog)
        got = []
        for rep in range(WARMUP):
            for item in items:
                res = wl.call(prog, item)
                if rep == 0:
                    out = wl.check(prog, item, res)
                    failures += out.failures
                    got.append(answer(wl, item, out))
        failures += wl.finish(prog, items)[1]
        answers.append(got)
    for k, a, b in zip(keys, *answers):
        if a != b:
            failures.append(f"{k}: parent computed {a}, change {b}")
    if failures:
        print("wrong or differing outputs:", *failures, sep="\n  ", file=sys.stderr)
        return 1

    rng = random.Random(SEED)
    times = [{k: [] for k in keys}, {k: [] for k in keys}]
    totals: list[list[float]] = [[0.0] * ROUNDS, [0.0] * ROUNDS]
    for r in range(ROUNDS):
        order = list(range(len(keys)))
        rng.shuffle(order)
        for i in order:
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                prog, wl, items = sides[side]
                use(prog)
                dt = timed(wl, prog, items[i])
                times[side][keys[i]].append(dt)
                totals[side][r] += dt

    ratios = []
    print(f"{args.workload}: {ROUNDS} rounds after {WARMUP} warm-up, "
          "median wall ms per input, pairs the change won")
    print(f"  {'input':<12} {'parent':>9} {'change':>9} {'ratio':>7} {'won':>6}")
    for k in keys:
        a, b = statistics.median(times[0][k]), statistics.median(times[1][k])
        ratios.append(b / a)
        pairs = sum(y < x for x, y in zip(times[0][k], times[1][k]))
        print(f"  {k:<12} {a * 1e3:9.3f} {b * 1e3:9.3f} {b / a:7.3f} {pairs:>3}/{ROUNDS}")
    geo = math.exp(sum(map(math.log, ratios)) / len(ratios))
    won = sum(b < a for a, b in zip(*totals))
    pairs = sum(y < x for k in keys for x, y in zip(times[0][k], times[1][k]))
    print(f"  geomean ratio {geo:.3f}; change won {pairs}/{ROUNDS * len(keys)} pairs "
          f"and {won}/{ROUNDS} round totals; round medians "
          f"{statistics.median(totals[0]) * 1e3:.2f} -> "
          f"{statistics.median(totals[1]) * 1e3:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
