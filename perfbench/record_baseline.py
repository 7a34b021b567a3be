#!/usr/bin/env python3
"""Rebuild perfbench/baseline.json from the results under .perfbench-out/.

    python3 perfbench/record_baseline.py

Reads the ``--trace 0`` results of seeds 1 to 10 for every workload and
the ``--trace 1`` result of seed 1, and records:

- the machine;
- the stated workload parameters and op definitions;
- the metric-to-layer map;
- each end-to-end metric's median and quartile spread;
- the per-layer values;
- every corpus digest.

``run.py`` compares each new corpus against these digests.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def _result(path: Path) -> dict:
    result = json.loads(path.read_text(encoding="utf-8"))
    if not result["correct"]:
        raise SystemExit(f"{path}: the run failed its checks; not recording it")
    return result


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import layers
    import workloads

    out = ROOT / ".perfbench-out"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end: dict[str, dict] = {}
    digests: dict[str, dict[str, str]] = {}
    for name in workloads.WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result = _result(out / f"{name}-seed{seed}-trace0" / "result.json")
            digests.setdefault(name, {})[str(seed)] = result["run"]["corpus_sha256"][name]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        end_to_end[name] = {}
        for metric, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            end_to_end[name][metric] = {"median": median,
                                        "spread": (q3 - q1) / median if median else 0.0}
    traced = _result(next(out.glob("*-seed1-trace1")) / "result.json")
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {w["name"]: {"why": w["why"],
                                  "op": " ".join(workloads.WORKLOADS[w["name"]].__doc__.split())}
                      for w in bench["workloads"]},
        "describe": workloads.describe(),
        "metric_map": layers.METRIC_MAP,
        "end_to_end": end_to_end,
        "per_layer_seed1": {metric: entry["value"]
                            for metric, entry in traced["metrics"].items()},
        "corpus_sha256": digests,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
