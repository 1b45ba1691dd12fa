#!/usr/bin/env python3
"""Planner benchmark.

    python3 planbench/run.py --workload {shipped,variants,replay} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the planner is imported from ``src/``.
Each workload is a closed loop with one client on one thread: the next call
starts only when the previous one has returned.

* ``shipped``  solves the nine shipped instances and checks every policy
  file byte for byte, and every structural count, against ``golden/``.
* ``variants`` solves seeded draws over the ``cube_org`` domain
  (``variants.py``).  A draw with no plan is a valid outcome; a solved draw
  must replay to DONE, and every repeat of a draw must give the same
  verdict, counts and policy digest.
* ``replay``   reads the frozen policy files and replays them exhaustively,
  then checks that every speech act is load-bearing.  No search runs.

With ``--trace 0`` the loop runs for ``--seconds`` seconds untraced and
reports the end-to-end metrics, with times taken to a reference machine
speed (``at_reference_speed``).  With ``--trace 1`` it runs every input
once untraced and once traced (see ``tracer.py``) and reports the per-layer
metrics.  The last line of standard output is one
JSON object; a readable summary precedes it, and a run record with the
sample counts is written under ``planbench/out/``.  The exit code is 1 when
any output is wrong, 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from variants import draws  # noqa: E402

SHIPPED = ("p1", "p2", "p3", "p4", "p5", "p6",
           "cooking1", "cooking2", "cooking3")
MODULES = ("model", "dsl", "htn", "kernel", "solver", "cli")
# Setup is repeated this many times per run and its median reported.
SETUP_REPS = 11
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# Timed figures are reported at the machine speed at which one call of
# reference_work() takes this long (see at_reference_speed).
REFERENCE_MS = 10.0
# How many reference timings on each side of an operation gauge the
# machine's speed during it.
REFERENCE_SPAN = 3


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """A fresh import of the planner from this checkout's ``src/``."""
    if not (SRC / "ehatp" / "__init__.py").is_file():
        raise ProgramMissing(f"no planner source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ehatp" or n.startswith("ehatp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ehatp")
    if Path(pkg.__file__).resolve().parent != (SRC / "ehatp").resolve():
        raise ProgramMissing(f"ehatp was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ehatp.{m}")
                              for m in MODULES})


# --------------------------------------------------------------------------
# Workloads.  Each prepares its inputs (the timed set-up), runs one
# operation per input (the timed call), and checks the operation's output.


@dataclass
class Item:
    key: str
    args: tuple
    expect: Any = None


@dataclass
class Outcome:
    """What one operation produced, reduced to what the metrics need."""
    work: int  # states dequeued (search) or policy states replayed
    failures: list[str] = field(default_factory=list)
    search: dict | None = None  # structural counts of one solve
    traces: int = 0  # traces replayed


def search_counts(res) -> dict:
    edges = sum(len(n.children) for n in res.all_nodes if n.children)
    return {"states": res.metrics.states, "maxW": res.metrics.maxW,
            "edges": edges, "new_nodes": len(res.all_nodes) - 1}


def validation_errors(prog, dom, prob, label: str) -> list[str]:
    return [f"{label}: {d}" for d in prog.dsl.validate(dom, prob, filename=label)
            if d.severity == "error"]


class Workload:
    name = ""
    op = "plan"  # what one timed operation does; names the latency lines

    def call(self, prog, item: Item):
        return prog.solver.solve(*item.args)

    def finish(self, prog, items: list[Item]) -> tuple[int, list[str]]:
        """Checks made once after the loop: how many, and which failed."""
        return 0, []


class Shipped(Workload):
    name = "shipped"

    def prepare(self, prog, seed: int) -> tuple[list[Item], list[str]]:
        expected = json.loads((GOLDEN / "expected.json").read_text())["shipped"]
        items, problems = [], []
        for name in SHIPPED:
            dom, prob = prog.dsl.load_instance(name)
            problems += validation_errors(prog, dom, prob, name)
            texts = (prog.dsl.load_shipped(dom.name), prog.dsl.load_shipped(name))
            golden = (GOLDEN / f"{name}.policy.json").read_bytes()
            items.append(Item(name, (dom, prob), (texts, golden, expected[name])))
        return items, problems

    def check(self, prog, item: Item, res) -> Outcome:
        (dom_text, prob_text), golden, want = item.expect
        m = res.metrics
        out = Outcome(m.states, search=search_counts(res))
        got = {"maxW": m.maxW, "leaves": m.leaves, "states": m.states}
        if got != want:
            out.failures.append(f"{item.key}: counts {got} != golden {want}")
        if res.policy is None:
            out.failures.append(f"{item.key}: no policy")
            return out
        path = OUT / "policies" / f"{item.key}.policy.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        prog.cli.write_policy_file(path, dom_text, prob_text, res.policy)
        if path.read_bytes() != golden:
            out.failures.append(f"{item.key}: policy file differs from golden")
        return out


class Variants(Workload):
    name = "variants"

    def prepare(self, prog, seed: int) -> tuple[list[Item], list[str]]:
        dom_text = prog.dsl.load_shipped("cube_org")
        dom = prog.dsl.parse_domain(dom_text, "cube_org.ehatp")
        items, problems = [], []
        for d in draws(seed):
            prob = prog.dsl.parse_problem(d.text(), dom, f"{d.name}.ehatp")
            problems += validation_errors(prog, dom, prob, d.name)
            items.append(Item(d.name, (dom, prob)))
        return items, problems

    def check(self, prog, item: Item, res) -> Outcome:
        m = res.metrics
        if res.policy is None:
            verdict, digest = f"no plan ({res.root.status})", ""
        else:
            verdict = "plan"
            digest = hashlib.sha256(res.policy.to_json().encode()).hexdigest()
        record = (verdict, m.maxW, m.leaves, m.states, digest)
        out = Outcome(m.states, search=search_counts(res))
        if item.expect is None:
            item.expect = (record, res.policy)
        elif item.expect[0] != record:
            out.failures.append(f"{item.key}: repeat gave {record}, first {item.expect[0]}")
        return out

    def finish(self, prog, items: list[Item]) -> tuple[int, list[str]]:
        """Replay every solved draw once; it must end DONE on every trace."""
        solved = [i for i in items if i.expect is not None and i.expect[1] is not None]
        failures = [f"{i.key}: replay of the solved draw is not all DONE"
                    for i in solved if not prog.cli.simulate(*i.args, i.expect[1]).ok]
        return len(solved), failures


def replay_facts(policy, report, load_bearing: bool) -> dict:
    digest = hashlib.sha256(
        "\n".join(t.describe() for t in report.traces).encode()).hexdigest()
    return {"ok": report.ok, "traces": len(report.traces), "trace_digest": digest,
            "load_bearing": load_bearing}


class Replay(Workload):
    name = "replay"
    op = "replay"

    def prepare(self, prog, seed: int) -> tuple[list[Item], list[str]]:
        expected = json.loads((GOLDEN / "expected.json").read_text())["replay"]
        items = [Item(name, (GOLDEN / f"{name}.policy.json",), expected[name])
                 for name in SHIPPED]
        return items, []

    def call(self, prog, item: Item):
        dom, prob, policy = prog.cli.read_policy_file(*item.args)
        report = prog.cli.simulate(dom, prob, policy)
        load_bearing = prog.cli.communication_is_load_bearing(dom, prob, policy)
        return policy, report, load_bearing

    def check(self, prog, item: Item, res) -> Outcome:
        policy, report, _ = res
        out = Outcome(len(policy.nodes), traces=len(report.traces))
        got = replay_facts(*res)
        if got != item.expect:
            out.failures.append(f"{item.key}: replay {got} != golden {item.expect}")
        return out


WORKLOADS: dict[str, type[Workload]] = {
    "shipped": Shipped, "variants": Variants, "replay": Replay}


# --------------------------------------------------------------------------
# Measurement


@dataclass
class Sample:
    key: str
    seconds: float  # wall time
    outcome: Outcome
    scaled: float = 0.0  # seconds at reference speed


def run_op(prog, wl, item: Item, failures: list[str],
           tracer: Tracer | None = None) -> Sample | None:
    gc.collect()
    try:
        with tracer.root("op") if tracer else nullcontext():
            t0 = time.perf_counter()
            res = wl.call(prog, item)
            dt = time.perf_counter() - t0
    except Exception as e:  # a failed operation is counted, not fatal
        failures.append(f"{item.key}: {type(e).__name__}: {e}")
        return None
    outcome = wl.check(prog, item, res)
    if outcome.failures:
        failures.append("; ".join(outcome.failures))
    return Sample(item.key, dt, outcome)


class Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: frozenset) -> None:
        self.a, self.b = a, b


def reference_work(n: int = 4000) -> int:
    """A fixed piece of pure-Python work, independent of the planner, in the
    planner's idiom: small slotted objects, frozensets, tuple-keyed dicts and
    a sort."""
    cells = [Cell(i % 17, frozenset((i % 5, i % 7, i % 11))) for i in range(n)]
    table: dict[tuple, int] = {}
    for i, c in enumerate(cells):
        key = (c.a, c.b, i % 23)
        table[key] = table.get(key, 0) + len(c.b)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][2]))
    return sum(v for _, v in ranked)


def time_reference() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def timed_loop(prog, wl, items: list[Item], seconds: float, rng: random.Random,
               failures: list[str]) -> tuple[list[Sample], list[float], int, int]:
    """Whole rounds over the inputs, in a fresh seeded order each round, while
    another round fits in the time left; the first round always runs.  Every
    input thus has the same number of samples, and the inputs' mix does not
    depend on where the time ran out.  reference_work() is timed before every
    operation and once after the last, outside the operations' time."""
    samples: list[Sample] = []
    spans: list[tuple[int, int]] = []  # each sample's neighbouring references
    refs: list[float] = []
    attempted = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        order = items[:]
        rng.shuffle(order)
        for item in order:
            refs.append(time_reference())
            attempted += 1
            s = run_op(prog, wl, item, failures)
            if s is not None:
                lo, hi = max(0, len(refs) - REFERENCE_SPAN), len(refs) + REFERENCE_SPAN
                samples.append(s)
                spans.append((lo, hi))
        rounds += 1
    refs.append(time_reference())
    for s, (lo, hi) in zip(samples, spans):
        s.scaled = at_reference_speed(s.seconds, refs[lo:hi])
    return samples, refs, attempted, rounds


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """``seconds`` taken to the machine speed at which reference_work() takes
    REFERENCE_MS, given the reference's timings around the measurement.

    The machine's speed drifts by a third and more within minutes, and by as
    much from run to run; thread CPU time drifts with wall time, so this is
    not preemption.  The reference is timed right next to the planner, so
    dividing by it removes the drift both share and leaves the planner's own
    cost.  The median of a few neighbouring timings gauges the speed at that
    moment without being thrown by one slow reference call."""
    return seconds * REFERENCE_MS / (1000 * statistics.median(refs))


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it: the eleventh
    largest sample (the largest when there are fewer than eleven)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], "max"
    return xs[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f}"


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_metrics(samples: list[Sample], scaled: bool = True) -> tuple[dict, dict]:
    secs = [s.scaled if scaled else s.seconds for s in samples]
    ms = [x * 1000 for x in secs]
    by_key: dict[str, list[float]] = {}
    for s, v in zip(samples, ms):
        by_key.setdefault(s.key, []).append(v)
    tail_value, tail_pct = tail(ms)
    busy = sum(secs)
    metrics = {
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_tail": (tail_value, "ms"),
        "latency_ms_geomean": (geomean([statistics.median(v) for v in by_key.values()]), "ms"),
        "states_per_s": (sum(s.outcome.work for s in samples) / busy, "1/s"),
    }
    counts = {
        "latency_ms_p50": {"samples": len(ms)},
        "latency_ms_tail": {"samples": len(ms), "percentile": tail_pct},
        "latency_ms_geomean": {"inputs": len(by_key),
                               "samples_per_input": {k: len(v) for k, v in sorted(by_key.items())},
                               "median_ms_per_input": {k: statistics.median(v)
                                                       for k, v in sorted(by_key.items())}},
    }
    return metrics, counts


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], traced_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    s = tracer.summary()
    c = tracer.counts

    def calls(name: str) -> int:
        return s.get(name, {}).get("calls", 0)

    def self_ms(name: str) -> float:
        return s.get(name, {}).get("self_ms", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("dsl.parse_domain", "dsl.parse_problem", "dsl.validate",
                 "cli.read_policy_file", "cli.communication_is_load_bearing"):
        m[f"{name}.ms"] = (s.get(name, {}).get("ms", 0.0), "ms")
    for name in ("htn.feasible_refinements", "htn.effectively_decomposed",
                 "htn.alignment_diff", "htn.advance",
                 "kernel.build_epistemic_action", "kernel.product_update",
                 "kernel.situation_assessment",
                 "model.World.key", "model.EpistemicState.make",
                 "model.EpistemicState.signature",
                 "solver.expand", "solver.evaluate_state"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_ms"] = (self_ms(name), "ms")
    m["kernel.events_per_action"] = (
        ratio(c["kernel.events"], calls("kernel.build_epistemic_action")), "count")
    m["kernel.product_update.worlds_out_mean"] = (
        ratio(c["kernel.product_update.worlds_out"], calls("kernel.product_update")), "count")
    m["kernel.sa.worlds_pruned"] = (c["kernel.sa.worlds_pruned"], "count")
    m["kernel.sa.prune_ratio"] = (
        ratio(c["kernel.sa.worlds_pruned"], c["kernel.sa.worlds_in"]), "ratio")
    m["kernel.state_copresent.calls"] = (calls("kernel.state_copresent"), "count")
    m["model.World.wid.calls"] = (calls("model.World.wid"), "count")

    solves = [o.search for o in outcomes if o.search is not None]
    edges = sum(r["edges"] for r in solves)
    new_nodes = sum(r["new_nodes"] for r in solves)
    m["solver.solve.self_ms"] = (self_ms("solver.solve"), "ms")
    m["solver.children_per_expand"] = (
        ratio(c["solver.children"], calls("solver.expand")), "count")
    m["solver.synthesize_communication.calls"] = (
        calls("solver.synthesize_communication"), "count")
    m["solver.synthesize_communication.kept_ratio"] = (
        ratio(c["solver.synthesize_communication.kept"],
              calls("solver.synthesize_communication")), "ratio")
    m["solver.dedup_hit_ratio"] = (ratio(edges - new_nodes, edges), "ratio")
    m["solver.propagate_revised_status.self_ms"] = (
        self_ms("solver.propagate_revised_status"), "ms")
    m["solver.extract_joint_solution.self_ms"] = (
        self_ms("solver.extract_joint_solution"), "ms")
    m["solver.states"] = (sum(r["states"] for r in solves), "count")
    m["solver.maxW"] = (max((r["maxW"] for r in solves), default=0), "count")
    m["cli.simulate.self_ms"] = (self_ms("cli.simulate"), "ms")
    m["cli.simulate.traces"] = (c["cli.simulate.traces"], "count")
    m["trace.coverage"] = (tracer.coverage("op"), "ratio")
    m["trace.overhead"] = (ratio(traced_s, untraced_s), "ratio")
    return m


# --------------------------------------------------------------------------
# Run record


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "ehatp").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".ehatp"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------


def setup(wl, seed: int) -> tuple[SimpleNamespace, list[Item], list[str], float]:
    t0 = time.perf_counter()
    prog = load_program()
    items, problems = wl.prepare(prog, seed)
    return prog, items, problems, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    try:
        # Only the last set-up's program and inputs are kept, so that one
        # copy of the planner is live during the run.
        setup_s, setup_refs = [], []
        for _ in range(0 if args.trace else SETUP_REPS - 1):
            setup_refs.append(time_reference())
            setup_s.append(setup(wl, args.seed)[3])
            gc.collect()
        setup_refs.append(time_reference())
        prog, items, problems, seconds = setup(wl, args.seed)
        setup_s.append(seconds)
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # Each failure names one operation: an input that fails validation, a
    # timed call whose output is wrong, or a failed post-run check.
    failures: list[str] = list(problems)
    attempted = len(problems)
    gc.collect()
    gc.freeze()

    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs": [i.key for i in items],
    }

    if not args.trace:
        samples, refs, n, rounds = timed_loop(prog, wl, items, args.seconds, rng,
                                              failures)
        if not samples:
            print("error: no operation completed", *failures, sep="\n", file=sys.stderr)
            return 1
        outcomes = [s.outcome for s in samples]
        metrics = {"setup_s": (at_reference_speed(statistics.median(setup_s), setup_refs),
                               "s")}
        lat, counts = latency_metrics(samples)
        metrics.update(lat)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        wall, _ = latency_metrics(samples, scaled=False)
        wall["setup_s"] = (statistics.median(setup_s), "s")
        record.update(rounds=rounds, sample_counts=counts,
                      series=[(s.key, s.seconds * 1000) for s in samples],
                      reference_ms=[r * 1000 for r in refs],
                      wall_metrics={k: v for k, (v, _) in wall.items()},
                      setup_s_samples=setup_s,
                      setup_reference_ms=[r * 1000 for r in setup_refs])
    else:
        # Each input runs once untraced and once traced, in alternating
        # order, so that drift in machine speed and warm-up fall on both
        # sides of trace.overhead alike.
        order = items[:]
        rng.shuffle(order)
        tracer = Tracer()
        with tracer.installed(), tracer.root("setup"):
            wl.prepare(prog, args.seed)  # traced only for the dsl layer
        untraced, traced = [], []
        for pos, item in enumerate(order):
            for traced_now in ((False, True) if pos % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed():
                        traced.append(run_op(prog, wl, item, failures, tracer))
                else:
                    untraced.append(run_op(prog, wl, item, failures))
        n = len(untraced) + len(traced)
        samples = [s for s in traced if s is not None]
        if not samples:
            print("error: no operation completed", *failures, sep="\n", file=sys.stderr)
            return 1
        outcomes = [s.outcome for s in samples]
        metrics = layer_metrics(tracer, outcomes, sum(s.seconds for s in samples),
                                sum(s.seconds for s in untraced if s is not None))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        record.update(spans=len(tracer.start), layers=tracer.summary(),
                      counters=dict(tracer.counts))
    checked, late = wl.finish(prog, items)
    failures += late
    attempted += n + checked
    if wl.name == "replay":
        record["traces_replayed"] = sum(o.traces for o in outcomes)
    if wl.name == "variants":
        fields = ("verdict", "maxW", "leaves", "states", "policy_sha256")
        record["draws"] = {i.key: dict(zip(fields, i.expect[0]))
                           for i in items if i.expect is not None}
    failed = min(len(failures), attempted)
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  failures=failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    for msg in failures:
        print(f"FAILED: {msg}")
    for k, (v, u) in metrics.items():
        label = k.replace("latency", wl.op) + f" ({k})" if k.startswith("latency") else k
        extra = ""
        if k == "latency_ms_p50":
            extra = f"  [{len(samples)} samples]"
        elif k == "latency_ms_tail":
            extra = f"  [{record['sample_counts'][k]['percentile']} of {len(samples)} samples]"
        print(f"{label} = {v:.6g} {u}{extra}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
