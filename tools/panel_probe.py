#!/usr/bin/env python3
"""Memory and time of opening and exporting a firm-year panel of N rows.

    python3 tools/panel_probe.py N

Run from the repository root. It puts N firm-years of
``filingfab.geo_bundle`` rows (14 years per firm, two to five regions each)
into a panel in a temporary directory, then prints one JSON line:

- ``panel_mb``: the panel's size;
- ``open_ms``: the median wall time of five ``SegmentStore`` opens;
- ``open_retained_mb`` and ``open_peak_mb``: what one open keeps, and its
  peak, by tracemalloc;
- ``export_peak_mb``: the tracemalloc peak of opening a store and calling
  ``export_csv``, as ``segforge export`` does.

MB is 2**20 bytes. It uses only the standard library and the repository's
own ``src/`` and ``tests/``. Timings depend on the host, so this is a probe
to run by hand, not a test.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import filingfab  # noqa: E402
from segforge.store import SegmentStore  # noqa: E402

REGIONS = ["Americas", "Europe", "Japan", "China", "Asia Pacific", "Middle East and Africa"]
YEARS = 14
MB = 2 ** 20


def build_panel(path: Path, n: int) -> None:
    store = SegmentStore(path)
    for i in range(n):
        cik, year = 100_001 + i // YEARS, 2011 + i % YEARS
        regions = REGIONS[i % 4:i % 4 + 2 + i % 4]
        components = [(name, 100 + (i * 37 + j * 11) % 9_000) for j, name in enumerate(regions)]
        store.put(filingfab.geo_bundle(cik, year, f"Firm {cik}", f"F{cik}", components,
                                       sum(amount for _, amount in components) + 1))


def traced(fn) -> tuple[object, int, int]:
    """fn's result, and the traced memory it kept and its peak, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


def main() -> None:
    n = int(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.jsonl"
        build_panel(path, n)
        timings = []
        for _ in range(5):
            start = time.perf_counter()
            SegmentStore(path)
            timings.append((time.perf_counter() - start) * 1000)
        _, retained, peak = traced(lambda: SegmentStore(path))
        _, _, export_peak = traced(
            lambda: SegmentStore(path).export_csv(Path(tmp) / "segments.csv"))
        print(json.dumps({
            "firm_years": n,
            "panel_mb": round(path.stat().st_size / MB, 2),
            "open_ms": round(statistics.median(timings), 1),
            "open_retained_mb": round(retained / MB, 2),
            "open_peak_mb": round(peak / MB, 2),
            "export_peak_mb": round(export_peak / MB, 2),
        }))


if __name__ == "__main__":
    main()
