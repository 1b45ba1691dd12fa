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
"""

from __future__ import annotations

import argparse
import sys
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
