#!/usr/bin/env python3
"""Self-test: every benchmark check accepts a right output and rejects a wrong one.

    python3 perfbench/selftest.py

Each case produces a real segforge output on small inputs, checks that the
benchmark's check passes it, then plants one deliberate error in a copy and
checks that the same check now reports a problem. One case checks that
the per-filing indexes the traced run combines equal one build over all
the filings. The last case runs one extract cycle with one corrupted
scripted answer and checks that exactly that op is counted as failed.
Exits 0 when every case behaves.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import shutil
import sys
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import filingfab  # noqa: E402
import paperdata  # noqa: E402
from segforge.comparability import (  # noqa: E402
    RegionScheme, align_regions, explain_changes, render_alignment_csv,
    render_change_csv, render_change_text,
)
from segforge.edgar import FilingRef  # noqa: E402
from segforge.extraction import ExtractionPipeline  # noqa: E402
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore  # noqa: E402
from segforge.parsing import parse_text  # noqa: E402
from segforge.retrieval import build_index  # noqa: E402
from segforge.store import FundamentalsRoster, SegmentStore, gap_report_to_json  # noqa: E402
from segforge.templates import SEGMENT_NAMES_QUESTION  # noqa: E402
from segforge.values import Money  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, good: list[str], bad: list[str]) -> None:
    if good:
        FAILURES.append(f"{name}: correct output rejected: {good[:2]}")
    elif not bad:
        FAILURES.append(f"{name}: wrong output accepted")
    else:
        print(f"ok  {name}: rejects wrong output ({bad[0][:90]})")


def parsed_and_chunks() -> None:
    plan = corpus.plan_firm(random.Random(7), 990_001, 2023, corpus.NESTED, 3,
                            target_bytes=120_000, tables=16, signal_per_10kb=8.0)
    ref = FilingRef(plan.cik, plan.fiscal_year, plan.accession, "fixture",
                    primary_document=plan.document)
    parsed = parse_text(corpus.filing_html(7, plan), ref=ref)
    wrong = copy.copy(parsed)
    wrong.tables = parsed.tables[:-1]
    expect("parsed tables", checks.check_parsed(plan, parsed), checks.check_parsed(plan, wrong))
    wrong = copy.copy(parsed)
    wrong.items = {k: v for k, v in parsed.items.items() if k != "7A"}
    expect("parsed items", checks.check_parsed(plan, parsed), checks.check_parsed(plan, wrong))

    index = build_index([parsed])
    texts = {(plan.cik, plan.fiscal_year): parsed.full_text}
    start, end = index.chunks[3].char_range
    wrong = copy.copy(index)
    wrong.chunks = list(index.chunks)
    wrong.chunks[3] = dataclasses.replace(index.chunks[3], char_range=(start + 1, end + 1))
    expect("chunk char_range", checks.check_chunks(index, texts), checks.check_chunks(wrong, texts))


def combined_index() -> None:
    """Per-filing indexes combined equal one build over all the filings."""
    rng = random.Random(9)
    filings = []
    for i in range(3):
        plan = corpus.plan_firm(rng, 990_010 + i, 2023, corpus.MULTI, 3,
                                target_bytes=40_000 * (i + 1), tables=6, signal_per_10kb=44.0)
        filings.append(parse_text(corpus.filing_html(9, plan), ref=FilingRef(
            plan.cik, plan.fiscal_year, plan.accession, "fixture",
            primary_document=plan.document)))
    whole = build_index(filings)
    combined = workloads.combine([build_index([filing]) for filing in filings])
    fields = ("chunks", "doc_freq", "chunk_terms", "chunk_len")
    if any(getattr(whole, f) != getattr(combined, f) for f in fields):
        FAILURES.append("combined per-filing indexes differ from one build over all filings")
    else:
        print(f"ok  combined index: equals one build over {len(filings)} filings "
              f"({len(whole)} chunks)")


def bundles() -> None:
    plan = corpus.plan_firm(random.Random(8), 990_002, 2023, corpus.NESTED, 3,
                            target_bytes=20_000, tables=4, signal_per_10kb=8.0, malformed=True)
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        fixture = corpus.write_corpus(work / "edgar", 8, [plan])
        client = workloads.edgar_client(work / "edgar", work / "cache")
        doc = client.fetch(client.resolve_filing(plan.cik, plan.fiscal_year))
        script = workloads.filing_script(plan, fixture.hashes[(plan.cik, plan.fiscal_year)])
        gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(script)))
        bundle = ExtractionPipeline(gateway).run_pipeline(doc, plan.cik, plan.fiscal_year)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wrong = copy.deepcopy(bundle)
    money = wrong.reportable[1].measures["revenue"]
    wrong.reportable[1].measures["revenue"] = Money(money.value + 1, money.scale)
    expect("bundle revenue", checks.check_bundle(plan, bundle), checks.check_bundle(plan, wrong))
    wrong = copy.deepcopy(bundle)
    wrong.nested[0].parent_name = wrong.reportable[2].name
    expect("bundle nesting", checks.check_bundle(plan, bundle), checks.check_bundle(plan, wrong))


def changes_and_alignment() -> None:
    filings = [parse_text(filingfab.avy_10k_html(year), ref=FilingRef(
        paperdata.AVY_CIK, year, filingfab.avy_accession(year), "fixture",
        primary_document=filingfab.avy_doc(year))) for year in sorted(paperdata.AVY_TABLE3)]
    index = build_index(filings)
    gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(
        filingfab.change_script_entries(index))))
    panel = [(year, list(names)) for year, names in sorted(paperdata.AVY_TABLE3.items())]
    rows = explain_changes(paperdata.AVY_CIK, panel, index, gateway)
    text, table = render_change_text(rows), render_change_csv(rows)
    expect("change reasons", checks.check_changes(text, table),
           checks.check_changes(text.replace("divestiture", "acquisition"), table))
    wrong = copy.deepcopy(rows)
    for row in wrong:
        if row.fiscal_year == 2016:
            row.changed, row.reason, row.linkage = False, None, None
    expect("changed years", checks.check_changes(text, table),
           checks.check_changes(render_change_text(wrong), render_change_csv(wrong)))

    store = SegmentStore()
    for year in sorted(paperdata.INTC_ASIA):
        store.put(filingfab.intc_bundle(year))
        store.put(filingfab.txn_bundle(year))
    scheme = RegionScheme.from_labels("Asia", paperdata.ASIA_MEMBER_LABELS)
    rows = align_regions(paperdata.INTC_CIK, paperdata.TXN_CIK, scheme, (2012, 2024), store)
    good = render_alignment_csv(rows, "INTC", "TXN", "Asia")
    rows[3].firm_b_region_total += 1
    expect("alignment totals", checks.check_alignment(good, "INTC", "TXN", "Asia"),
           checks.check_alignment(render_alignment_csv(rows, "INTC", "TXN", "Asia"),
                                  "INTC", "TXN", "Asia"))


def gaps_and_export() -> None:
    store = SegmentStore()
    for year in (2012, 2013):
        store.put(filingfab.intc_bundle(year))
    roster = FundamentalsRoster(rows={(paperdata.INTC_CIK, 2012), (paperdata.INTC_CIK, 2014),
                                      (paperdata.KMI_CIK, 2017)})
    report = json.dumps(gap_report_to_json(store.gap_report(roster)))
    missing = {2014: [paperdata.INTC_CIK], 2017: [paperdata.KMI_CIK]}
    expect("gap report", checks.check_gaps(report, missing),
           checks.check_gaps(report.replace(str(paperdata.KMI_CIK), "1"), missing))

    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        path = store.export_csv(work / "segments.csv")
        records = [r for y in (2012, 2013) for r in filingfab.intc_bundle(y).reportable]
        total = sum((r.measures["revenue"].value for r in records), Decimal(0))
        good = checks.check_export(path, len(records), total)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        expect("export rows", good, checks.check_export(path, len(records), total))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def failed_op_is_counted() -> None:
    """A corrupted scripted answer makes exactly its op fail, through the runner's tally."""
    work = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        extract = workloads.Extract()
        extract.generate(work / "inputs", 3)
        extract.setup(work / "setup")
        extract.open(work / "setup")
        victim = next(p for p in extract.plans if p.kind == corpus.MULTI)
        file_hash = extract.corpus.hashes[(victim.cik, victim.fiscal_year)]
        entries = [dataclasses.asdict(e) for e in extract.script.entries()]
        for entry in entries:
            if entry["file_hash"] == file_hash and entry["question"] == SEGMENT_NAMES_QUESTION:
                entry["response"] = "; ".join(n for n, _ in victim.segments[::-1])
        extract.script = ScriptStore.from_entries(entries)
        tally = run.Tally()
        for op in extract.cycle():
            tally.add(run._run_op(op))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if (tally.attempted, tally.failed) != (len(extract.plans), 1):
        FAILURES.append(f"runner tally: attempted={tally.attempted} failed={tally.failed}, "
                        f"want {len(extract.plans)} and 1")
    else:
        print(f"ok  runner tally: 1 of {tally.attempted} ops failed ({tally.problems[0][:70]})")


def main() -> int:
    for case in (parsed_and_chunks, combined_index, bundles, changes_and_alignment,
                 gaps_and_export, failed_op_is_counted):
        case()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
