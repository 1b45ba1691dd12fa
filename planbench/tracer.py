"""Outside-in tracing of the planner's layers.

The tracer wraps public functions of the ``ehatp`` modules without touching
their source.  A module-level function is replaced in every module
namespace that holds it (``product_update`` is called through both
``kernel`` and ``solver``), so calls the program makes to itself are caught
too.  Methods, properties and class methods are replaced on their class.

Each call records one span: name, parent span, start and end.  Spans stay in
memory in flat arrays while the traced pass runs and are written out when
it ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Hooks record layer counters from a traced call's arguments and result.
Hook = Callable[[Counter, tuple, object], None]


def _events(c: Counter, args: tuple, res) -> None:
    c["kernel.events"] += len(res.events)


def _worlds_out(c: Counter, args: tuple, res) -> None:
    c["kernel.product_update.worlds_out"] += len(res.worlds)


def _assessed(c: Counter, args: tuple, res) -> None:
    c["kernel.sa.worlds_in"] += len(args[1].worlds)
    c["kernel.sa.worlds_pruned"] += len(args[1].worlds) - len(res.worlds)


def _children(c: Counter, args: tuple, res) -> None:
    c["solver.children"] += len(res)


def _kept(c: Counter, args: tuple, res) -> None:
    # Called only when synthesis returned; a raised EhatpError means the
    # candidate was discarded.
    c["solver.synthesize_communication.kept"] += 1


def _traces(c: Counter, args: tuple, res) -> None:
    c["cli.simulate.traces"] += len(res.traces)


# (span name, module, attribute path, counter hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("dsl.parse_domain", "dsl", "parse_domain", None),
    ("dsl.parse_problem", "dsl", "parse_problem", None),
    ("dsl.validate", "dsl", "validate", None),
    ("htn.feasible_refinements", "htn", "feasible_refinements", None),
    ("htn.effectively_decomposed", "htn", "effectively_decomposed", None),
    ("htn.alignment_diff", "htn", "alignment_diff", None),
    ("htn.advance", "htn", "advance", None),
    ("kernel.initial_state", "kernel", "initial_state", None),
    ("kernel.build_epistemic_action", "kernel", "build_epistemic_action", _events),
    ("kernel.product_update", "kernel", "product_update", _worlds_out),
    ("kernel.situation_assessment", "kernel", "situation_assessment", _assessed),
    ("kernel.state_copresent", "kernel", "state_copresent", None),
    ("model.World.key", "model", "World.key", None),
    ("model.World.wid", "model", "World.wid", None),
    ("model.EpistemicState.make", "model", "EpistemicState.make", None),
    ("model.EpistemicState.signature", "model", "EpistemicState.signature", None),
    ("solver.solve", "solver", "solve", None),
    ("solver.expand", "solver", "expand", _children),
    ("solver.evaluate_state", "solver", "evaluate_state", None),
    ("solver.synthesize_communication", "solver", "synthesize_communication", _kept),
    ("solver.propagate_revised_status", "solver", "propagate_revised_status", None),
    ("solver.extract_joint_solution", "solver", "extract_joint_solution", None),
    ("cli.read_policy_file", "cli", "read_policy_file", None),
    ("cli.simulate", "cli", "simulate", _traces),
    ("cli.communication_is_load_bearing", "cli", "communication_is_load_bearing", None),
)

# Spans whose self time is an outer loop's residual rather than the work of
# a named layer; trace coverage counts their self time as unaccounted.
LOOPS = ("solver.solve", "cli.simulate")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.current = -1
        self.counts: Counter = Counter()
        self._restore: list[Callable[[], None]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, span: str, fn: Callable, hook: Hook | None) -> Callable:
        idx = self._name_index(span)
        parent_a, name_a, start_a, end_a = self.parent, self.name, self.start, self.end
        counts = self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = self.current
            sid = len(start_a)
            parent_a.append(parent)
            name_a.append(idx)
            end_a.append(0)
            self.current = sid
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, result)
                return result
            finally:
                end_a[sid] = clock()
                self.current = parent

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, span: str):
        """A span the benchmark opens itself, around one operation."""
        idx = self._name_index(span)
        sid = len(self.start)
        self.parent.append(self.current)
        self.name.append(idx)
        self.end.append(0)
        outer, self.current = self.current, sid
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter_ns()
            self.current = outer

    @contextmanager
    def installed(self):
        """Wrap the targets for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            while self._restore:
                self._restore.pop()()

    def _install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ehatp" or n.startswith("ehatp."))]
        for span, mod_name, path, hook in TARGETS:
            owner = sys.modules[f"ehatp.{mod_name}"]
            if "." in path:
                self._install_on_class(span, getattr(owner, path.split(".")[0]),
                                       path.split(".")[1], hook)
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(span, fn, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append(
                            lambda mod=mod, attr=attr, fn=fn: setattr(mod, attr, fn))

    def _install_on_class(self, span: str, cls: type, attr: str,
                          hook: Hook | None) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, property):
            new = property(self._wrap(span, raw.fget, hook))
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(span, raw.__func__, hook))
        else:
            new = self._wrap(span, raw, hook)
        setattr(cls, attr, new)
        self._restore.append(lambda: setattr(cls, attr, raw))

    # ------------------------------------------------------------------
    # Analysis

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {s: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for s in self.names}
        for i in range(n):
            rec = out[self.names[name[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["ms"] += dur / 1e6
            rec["self_ms"] += (dur - child[i]) / 1e6
        return out

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time that spans of named layers
        account for: all of it except the self time of the roots and of the
        outer loops."""
        summary = self.summary()
        total = summary.get(root, {}).get("ms", 0.0)
        if total == 0.0:
            return 0.0
        unaccounted = summary[root]["self_ms"] + sum(
            summary[d]["self_ms"] for d in LOOPS if d in summary)
        return 1.0 - unaccounted / total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i]},{self.end[i]}\n")
