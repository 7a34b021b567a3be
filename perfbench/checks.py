"""Output checks for the benchmark. Each returns a list of problems; empty means correct.

The expected values come from the generator's plans and from the frozen
paper oracles in ``tests/paperdata.py`` and ``tests/filingfab.py``, never
from segforge itself, so a wrong program output cannot agree with itself.
An op whose check reports a problem counts as failed.
"""

from __future__ import annotations

import csv
import json
from decimal import Decimal
from pathlib import Path

import filingfab
import paperdata
from corpus import NESTED, PLANTED_ITEMS, SINGLE, FilingPlan

# Column headers of the rendered change table, as the paper prints them.
CHANGE_HEADER = ["Year", "Reportable Segment Name(s)", "Change?", "Reason for Change",
                 "Linked with Prior Segment?"]


def check_parsed(plan: FilingPlan, parsed) -> list[str]:
    """Items and tables found by the parser equal the planted ones."""
    problems = []
    if list(parsed.items) != PLANTED_ITEMS:
        problems.append(f"{plan.cik}/{plan.fiscal_year}: items {list(parsed.items)} "
                        f"!= planted {PLANTED_ITEMS}")
    if len(parsed.tables) != plan.tables:
        problems.append(f"{plan.cik}/{plan.fiscal_year}: {len(parsed.tables)} tables "
                        f"!= planted {plan.tables}")
    return problems


def check_chunks(index, texts: dict[tuple[int, int], str]) -> list[str]:
    """Every chunk's char_range slices its filing's text back to the chunk text."""
    problems = []
    for chunk in index.chunks:
        text = texts.get((chunk.cik, chunk.fiscal_year))
        start, end = chunk.char_range
        if text is None or text[start:end] != chunk.text:
            problems.append(f"chunk {chunk.chunk_id}: char_range {chunk.char_range} "
                            "does not slice back to its text")
    return problems


def _revenue_problem(where: str, record, amount: int) -> str | None:
    money = record.measures.get("revenue")
    if money is None or money.value != Decimal(amount) or money.scale.value != "millions":
        return f"{where}: revenue {money} != {amount} million"
    return None


def check_bundle(plan: FilingPlan, bundle) -> list[str]:
    """The bundle carries the planted class, segment names, revenues and nesting."""
    where = f"{plan.cik}/{plan.fiscal_year}"
    problems = []
    want_kind = "single_unit" if plan.kind == SINGLE else "multi_segment"
    if bundle.classification.kind != want_kind:
        problems.append(f"{where}: class {bundle.classification.kind} != {want_kind}")
    names = [record.name for record in bundle.reportable]
    if names != [name for name, _ in plan.segments]:
        problems.append(f"{where}: segments {names} != planted {[n for n, _ in plan.segments]}")
    else:
        for record, (_, amount) in zip(bundle.reportable, plan.segments):
            problems.append(_revenue_problem(f"{where} {record.name}", record, amount))
    planted_nested = [(parent, name, amount) for parent, comps in plan.nested
                      for name, amount in comps]
    got_nested = [(record.parent_name, record.name) for record in bundle.nested]
    if got_nested != [(parent, name) for parent, name, _ in planted_nested]:
        problems.append(f"{where}: nested {got_nested} != planted {planted_nested}")
    elif plan.kind == NESTED:
        for record, (_, _, amount) in zip(bundle.nested, planted_nested):
            problems.append(_revenue_problem(f"{where} {record.name}", record, amount))
    if bundle.general_fields.get("revt") != filingfab.money_text(plan.revt):
        problems.append(f"{where}: revt {bundle.general_fields.get('revt')!r}")
    return [p for p in problems if p]


def _table_rows(text: str, header: list[str]) -> list[list[str]]:
    """Split a fixed-width table rendered with a dashed rule under its header."""
    lines = text.splitlines()
    if not lines or any(name not in lines[0] for name in header):
        return []
    starts = [lines[0].index(name) for name in header] + [None]
    return [[line[starts[i]:starts[i + 1]].strip() for i in range(len(header))]
            for line in lines[2:] if line.strip()]


def check_changes(text: str, csv_text: str) -> list[str]:
    """Changed years, reasons, linkages and mappings match the paper's AVY answers."""
    problems = []
    rows = _table_rows(text, CHANGE_HEADER)
    years = [int(row[0]) for row in rows if row[0].isdigit()]
    if years != sorted(paperdata.AVY_TABLE3):
        problems.append(f"changes: years {years} != {sorted(paperdata.AVY_TABLE3)}")
    changed = {int(row[0]) for row in rows if row[0].isdigit() and row[2] == "Yes"}
    if changed != paperdata.AVY_CHANGED_YEARS:
        problems.append(f"changes: changed years {sorted(changed)} "
                        f"!= {sorted(paperdata.AVY_CHANGED_YEARS)}")
    answers = filingfab.AVY_CHANGE_ANSWERS
    for row in rows:
        if row[0].isdigit() and int(row[0]) in answers:
            answer = answers[int(row[0])]
            if (row[3], row[4]) != (answer["reason"], answer["linkage"]):
                problems.append(f"changes {row[0]}: ({row[3]}, {row[4]}) != "
                                f"({answer['reason']}, {answer['linkage']})")
    for row in csv.DictReader(csv_text.splitlines()):
        year = int(row["Year"])
        if year not in answers:
            continue
        answer = answers[year]
        mapping = f"{answer['linkage'].capitalize()} ({answer['mapping']})"
        if row["Linked with Prior Segment?"] != mapping:
            problems.append(f"changes {year}: mapping {row['Linked with Prior Segment?']!r}")
        if not row["Reason for Change"].startswith(answer["explanation"] + " [cites: "):
            problems.append(f"changes {year}: explanation {row['Reason for Change']!r}")
    return problems


def check_alignment(csv_text: str, label_a: str, label_b: str, region: str) -> list[str]:
    """Region totals per year equal the paper's INTC and TXN Asia totals."""
    problems = []
    got: dict[int, tuple[int, int]] = {}
    for row in csv.DictReader(csv_text.splitlines()):
        try:
            got[int(row["Year"])] = (
                int(row[f"Sales for {label_a} in {region}"].replace(",", "")),
                int(row[f"Sales for {label_b} in {region}"].replace(",", "")),
            )
        except (KeyError, ValueError) as exc:
            problems.append(f"alignment: unreadable row {row!r}: {exc}")
    want = {year: (paperdata.INTC_ASIA_TOTAL[year], paperdata.TXN_ASIA_TOTAL[year])
            for year in paperdata.INTC_ASIA_TOTAL}
    if got != want:
        diff = sorted(year for year in set(got) | set(want) if got.get(year) != want.get(year))
        problems.append(f"alignment: totals differ in years {diff}")
    return problems


def check_gaps(gaps_json: str, missing: dict[int, list[int]]) -> list[str]:
    """The gap report equals the set of planted missing firm-years."""
    try:
        got = json.loads(gaps_json)
    except json.JSONDecodeError as exc:
        return [f"gaps: not JSON: {exc}"]
    want = {"missing": {str(year): ciks for year, ciks in sorted(missing.items())},
            "total_missing": sum(len(ciks) for ciks in missing.values())}
    if got != want:
        return [f"gaps: total {got.get('total_missing')} != {want['total_missing']} "
                "or the missing firm-years differ"]
    return []


def check_export(path: Path, rows: int, revenue_total: Decimal) -> list[str]:
    """The CSV export has one row per planted record and the planted revenue sum."""
    with open(path, newline="", encoding="utf-8") as fh:
        records = list(csv.DictReader(fh))
    total = sum((Decimal(r["value"]) for r in records if r["measure_kind"] == "revenue"),
                Decimal(0))
    problems = []
    if len(records) != rows:
        problems.append(f"export: {len(records)} rows != {rows}")
    if total != revenue_total:
        problems.append(f"export: revenue total {total} != {revenue_total}")
    return problems
