#!/usr/bin/env python3
"""CPU time per MB of HTML-to-text, on benchmark filings of the given sizes.

    python3 tools/parse_probe.py SIZE_MB...

Run from the repository root. For each size it builds one filing with
``perfbench/corpus.py``, as the ingest workload does (a three-segment firm,
130 tables per MB, 44 signal phrases per 10 kB in Item 7), in two shapes:

- ``plain``: as generated, with no attributes;
- ``styled``: every start tag carries ``style="..."`` and every ``td`` also
  ``colspan="1"``, as inline-XBRL filings do.

It then prints one JSON line with, per size and shape, CPU ms per MB (the
least ``time.process_time`` of ``RUNS`` runs) of:

- ``tokenize``: ``parsing._tokenize`` with a sink that does nothing;
- ``extract``: ``parsing._tokenize`` driving ``parsing._HtmlExtractor``;
- ``parse_text``: the whole parse.

MB is 10**6 bytes of HTML, as the benchmark sizes its filings. It uses only
the standard library and the repository's own ``src/``, ``tests/`` and
``perfbench/``, and writes no file. Timings depend on the host, so this is a
probe to run by hand, not a test.
"""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import workloads  # noqa: E402
from segforge import parsing  # noqa: E402

RUNS = 9
MB = 10 ** 6
STYLE = ' style="font-family:Times New Roman;font-size:10pt;margin:0"'


class _Null:
    """A sink that drops every event."""

    def handle_starttag(self, tag, attrs):
        pass

    def handle_startendtag(self, tag, attrs):
        pass

    def handle_endtag(self, tag):
        pass

    def handle_data(self, data):
        pass


def filing(size_mb: float) -> str:
    plan = corpus.plan_firm(random.Random(f"parse-probe:{size_mb}"), 910_001, 2023,
                            corpus.MULTI, 3, target_bytes=int(size_mb * MB),
                            tables=round(workloads.TABLES_PER_MB * size_mb),
                            signal_per_10kb=workloads.SIGNAL_PER_10KB)
    return corpus.filing_html(7, plan)


def styled(html: str) -> str:
    def attrs(match: re.Match) -> str:
        name = match.group(1)
        return f"<{name}{STYLE}" + (' colspan="1"' if name.lower() == "td" else "")
    return re.sub(r"<([a-zA-Z][a-zA-Z0-9]*)(?=[\s/>])", attrs, html)


def cpu_ms_per_mb(fn, html: str) -> float:
    best = float("inf")
    for _ in range(RUNS):
        start = time.process_time()
        fn(html)
        best = min(best, time.process_time() - start)
    return round(best * 1000 / (len(html.encode()) / MB), 1)


def main() -> None:
    probes = {
        "tokenize": lambda html: parsing._tokenize(html, _Null()),
        "extract": lambda html: parsing._tokenize(html, parsing._HtmlExtractor()),
        "parse_text": parsing.parse_text,
    }
    result = {"runs": RUNS, "sizes": []}
    for size_mb in map(float, sys.argv[1:]):
        plain = filing(size_mb)
        for shape, html in (("plain", plain), ("styled", styled(plain))):
            result["sizes"].append({
                "size_mb": size_mb, "shape": shape,
                "html_mb": round(len(html.encode()) / MB, 3),
                **{name: cpu_ms_per_mb(fn, html) for name, fn in probes.items()},
            })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
