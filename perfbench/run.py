#!/usr/bin/env python3
"""Benchmark runner for segforge.

    python3 perfbench/run.py --workload {ingest,extract,query} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. With ``--trace 0`` it generates the
workload's inputs from the seed (not timed), then runs the workload's
segforge set-up three to 25 times, each in a fresh directory and a forked
child process (``setup_s`` is the median). A last forked child reopens the
final set-up, runs whole cycles of the workload's op mix in a closed loop
until ``--seconds`` have passed (ingest also builds its corpus index three
times, spread over the run), checks every op's output, and reports the
end-to-end metrics; its ``peak_rss_mb`` covers the ops alone. With
``--trace 1`` it sets up all three workloads in one process and runs, in
each of three rounds, one cycle of each workload untraced and the same
cycle traced (in alternating order), plus one traced index build per ingest
filing, and prints the per-layer metrics, per-layer self time and the
tracing overhead. The per-layer table spans every layer, so the traced run
always covers all three workloads; it does this fixed work whatever
``--seconds`` says, which keeps its counts exact and its length bounded.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A human-readable table
precedes it, and the same result (plus, when traced, every span) is
written under ``.perfbench-out/`` in the repository root, outside any
segforge run directory. Scratch inputs live under ``.perfbench-work/`` and
are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = Path(__file__).with_name("baseline.json")
# setup_s is the median of several fresh set-ups: at least three, and more
# (up to 25) while they add up to under two seconds, so that cheap set-ups
# get a steadier median at little cost.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 25, 2.0
# Whole cycles run until both limits are reached, so op_ms_p90 always has at
# least ten samples beyond it.
MIN_OPS = 100
# A workload's closing step (ingest's corpus index build) runs this many
# times, each after an equal share of the ops, and its median counts. One
# build is a single sample of about ten seconds, which on a shared host can
# be a fifth off; three spread over the run steady it.
CLOSINGS = 3
# Untraced/traced cycle pairs in the traced run; the overhead is their median.
TRACE_ROUNDS = 3
MAX_PROBLEMS_SHOWN = 5


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run_op(op) -> list[str]:
    try:
        return op.run()
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return [f"{op.kind}: {type(exc).__name__}: {exc}"]


class Tally:
    """Attempted and failed ops, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS_SHOWN - len(self.problems)])


def in_child(fn):
    """Return ``fn()``, computed in a forked child process.

    A forked child starts from this process's current memory, not from its
    peak, so the child's ``ru_maxrss`` covers only what the child does.
    Forking is safe because this process starts no threads: the set-ups and
    the ops, which run the gateway's thread pool, all happen in children.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn()))
            except Exception:  # noqa: BLE001 - handed to the parent, which raises
                payload = pickle.dumps((False, traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"child process {pid} ended with status {status} and no result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise RuntimeError(f"child process failed:\n{value}")
    return value


def _timed_setup(workload, dest: Path) -> float:
    started = time.perf_counter()
    workload.setup(dest)
    return time.perf_counter() - started


def _run_ops(workload, dest: Path, seconds: float) -> dict:
    """Reopen the set-up in ``dest`` and run whole cycles; the ops child's body."""
    workload.open(dest)
    closing = getattr(workload, "closing", None)
    rounds = CLOSINGS if closing else 1
    tally = Tally()
    op_times: list[float] = []
    cycle_times: list[float] = []
    closing_times: list[float] = []
    by_kind: dict[str, list[float]] = {}
    for r in range(1, rounds + 1):
        started = time.perf_counter()
        while (len(op_times) < MIN_OPS * r / rounds
               or time.perf_counter() - started < seconds / rounds):
            cycle_s = 0.0
            for op in workload.cycle():
                t0 = time.perf_counter()
                problems = _run_op(op)
                op_times.append(time.perf_counter() - t0)
                cycle_s += op_times[-1]
                by_kind.setdefault(op.kind, []).append(op_times[-1] * 1000)
                tally.add(problems)
            cycle_times.append(cycle_s)
        if closing:
            t0 = time.perf_counter()
            problems = _run_op(closing())
            closing_times.append(time.perf_counter() - t0)
            tally.add(problems)
    return {"tally": tally, "op_times": op_times, "by_kind": by_kind,
            "cycle_times": cycle_times, "closing_times": closing_times,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_timed(workloads, name: str, seed: int, seconds: float, work: Path):
    workload = workloads.WORKLOADS[name]()
    workload.generate(work / "inputs", seed)
    setups: list[float] = []
    while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S):
        if setups:
            shutil.rmtree(dest, ignore_errors=True)
        dest = work / f"setup{len(setups)}"
        setups.append(in_child(lambda: _timed_setup(workload, dest)))
    run = in_child(lambda: _run_ops(workload, dest, seconds))
    op_times, cycle_times = run["op_times"], run["cycle_times"]
    closing_times = run["closing_times"]
    # Throughput of one pass over the mix: the median cycle, plus ingest's
    # median closing index build once, so it does not depend on how many
    # cycles fit in the run.
    per_cycle = len(op_times) / len(cycle_times)
    pass_s = statistics.median(cycle_times) + (statistics.median(closing_times)
                                               if closing_times else 0.0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (per_cycle / pass_s, "1/s"),
        "op_ms_p50": (statistics.median(op_times) * 1000, "ms"),
        "op_ms_p90": (_percentile(op_times, 0.9) * 1000, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_ops_frac": (1 - run["tally"].failed / run["tally"].attempted, "fraction"),
    }
    extra = {"ops": len(op_times), "cycles": len(cycle_times), "setup_runs_s": setups,
             "closing_s": closing_times,
             "op_ms_p50_by_kind": {k: statistics.median(v) for k, v in run["by_kind"].items()},
             "corpus_sha256": {name: workload.corpus.sha256}}
    return run["tally"], metrics, extra


def run_traced(workloads, tracing, layers, seed: int, work: Path):
    active = {}
    for name, cls in workloads.WORKLOADS.items():
        active[name] = cls()
        active[name].generate(work / name / "inputs", seed)
        active[name].setup(work / name / "setup")
        active[name].open(work / name / "setup")
    tracer = tracing.Tracer()
    tally = Tally()
    ops: dict[str, dict] = {}
    rounds: list[dict[bool, float]] = []
    for r in range(TRACE_ROUNDS):
        wall = {False: 0.0, True: 0.0}
        for name, workload in active.items():
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                for i, op in enumerate(workload.cycle()):
                    t0 = time.perf_counter()
                    if traced:
                        tracer.op = f"{name}:{r}:{i}"
                        ops[tracer.op] = {"workload": name, "kind": op.kind,
                                          "size_mb": op.size_mb}
                        problems = tracer.call(f"bench.{name}.{op.kind}", _run_op, (op,), {})
                    else:
                        problems = _run_op(op)
                    wall[traced] += time.perf_counter() - t0
                    tally.add(problems)
                if traced:
                    tracer.uninstall()
        rounds.append(wall)
    # Ingest's index: one traced build per filing, for the size exponent, then
    # the per-filing indexes combined into the corpus index and saved.
    ingest = active["ingest"]
    tracer.install()
    parts = []
    for plan, filing in zip(ingest.plans, ingest.filings()):
        tracer.op = f"ingest:build:{plan.cik}"
        ops[tracer.op] = {"workload": "ingest", "kind": "build_index",
                          "size_mb": ingest.corpus.sizes[(plan.cik, plan.fiscal_year)] / 1e6}
        parts.append(workloads.retrieval.build_index([filing]))
    ingest.index = workloads.combine(parts)
    tracer.op = "ingest:save_index"
    ops[tracer.op] = {"workload": "ingest", "kind": "save_index", "size_mb": 0.0}
    tally.add(_run_op(workloads.Op("save_index", ingest.save_and_check)))
    tracer.uninstall()
    overhead = (statistics.median((w[True] - w[False]) * 1000 for w in rounds),
                statistics.median(w[True] / w[False] - 1 for w in rounds))
    metrics = layers.layer_metrics(tracer, ops, active, overhead)
    extra = {"spans": len(tracer.spans),
             "corpus_sha256": {name: w.corpus.sha256 for name, w in active.items()},
             "wall_s_by_round": [{"untraced": w[False], "traced": w[True]} for w in rounds]}
    return tally, metrics, extra, tracer


def _corpus_drift(hashes: dict[str, str], seed: int) -> list[str]:
    """Workloads whose generated corpus differs from the one recorded for this seed."""
    recorded = json.loads(BASELINE.read_text(encoding="utf-8")).get("corpus_sha256", {})
    return [name for name, digest in hashes.items()
            if recorded.get(name, {}).get(str(seed), digest) != digest]


def _table(metrics: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"{name:<{width}}  {value:>14.6g}  {unit}"
                     for name, (value, unit) in metrics.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench-work" / f"{tag}-{os.getpid()}"
    out = ROOT / ".perfbench-out" / tag
    try:
        if args.trace:
            tally, metrics, extra, tracer = run_traced(workloads, tracing, layers, args.seed,
                                                       work)
            tracer.write(out / "spans.jsonl")
        else:
            tally, metrics, extra = run_timed(workloads, args.workload, args.seed,
                                              args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps({**result, "run": extra, "problems":
                                                 tally.problems}, indent=2) + "\n")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in _corpus_drift(extra["corpus_sha256"], args.seed):
        print(f"warning: the {name} corpus for seed {args.seed} differs from the one "
              f"recorded in {BASELINE.name}; the generator or tests/filingfab.py changed",
              file=sys.stderr)
    print(f"# {tag}: {json.dumps(extra)}")
    print(_table(metrics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(1)
