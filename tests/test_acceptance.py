"""Acceptance gate: ten criteria, each with a pinned tolerance and runtime.

Every test prints exactly one PASS or FAIL line (bypassing capture, so the
verdicts are visible in any pytest run). Tolerances are stated inline:
anything called "exact" is compared with == on strings, Decimals, or sets;
the retrieval oracle allows relative error < 1e-12; alignment percentages
allow +/- 0.1 percentage points.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import threading
import time
from collections import Counter
from contextlib import contextmanager
from decimal import Decimal
from functools import partial
from pathlib import Path

import pytest

import filingfab
import paperdata
from segforge.cli import main
from segforge.comparability import align_regions, detect_changes, explain_changes
from segforge.evaluation import GoldCell, GoldFiling, GoldLabelSet, render_table2, score
from segforge.extraction import (
    AXIS_BUSINESS,
    MULTI_SEGMENT,
    SINGLE_UNIT,
    ExtractionBundle,
    ExtractionPipeline,
    SegmentationClass,
    SegmentRecord,
    validate_bundle,
)
from segforge import gateway as gateway_module
from segforge.gateway import Gateway, PromptRequest, ScriptedBackend, ScriptStore
from segforge.retrieval import retrieve
from segforge.store import FundamentalsRoster, SegmentStore
from segforge.values import Money, Scale, parse_monetary


@contextmanager
def criterion(capsys, number: int, label: str, budget_s: float):
    """Times the enclosed checks and prints the single verdict line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL: criterion {number} - {label}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    line = (f"{'PASS' if ok else 'FAIL'}: criterion {number} - {label} "
            f"[{elapsed:.2f}s, budget {budget_s:.0f}s]")
    with capsys.disabled():
        print(line)
    if not ok:
        raise AssertionError(line)


def fetch_doc(edgar_client, cik: int, year: int):
    ref = edgar_client.resolve_filing(cik, year)
    return edgar_client.fetch(ref)


def single_unit_bundle(cik: int, year: int) -> ExtractionBundle:
    return ExtractionBundle(
        cik=cik,
        fiscal_year=year,
        classification=SegmentationClass(kind=SINGLE_UNIT, raw_response="No"),
        general_fields=filingfab.general_responses({"cik": str(cik)}),
    )


def test_criterion_01_appendix_a_replay(capsys, edgar_client, make_gateway):
    """Tolerance: exact string match on all 17 fields. Budget: 5 s."""
    with criterion(capsys, 1, "Appendix-A replay yields the exact 17 fields", 5.0):
        doc = fetch_doc(edgar_client, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        pipeline = ExtractionPipeline(make_gateway())
        bundle = pipeline.run_pipeline(doc, paperdata.APPLE_CIK, paperdata.APPLE_FY)
        assert len(bundle.general_fields) == 17
        assert bundle.general_fields == dict(paperdata.APPENDIX_A_RESULTS)
        assert bundle.general_fields["cik"] == "320193"
        assert bundle.general_fields["tic"] == "AAPL"
        assert bundle.general_fields["naicsh"] == "Not provided"
        revt = parse_monetary(bundle.general_fields["revt"])
        assert revt == Money(Decimal(391035), Scale.MILLIONS)
        assert bundle.classification.kind == SINGLE_UNIT


def test_criterion_02_nested_hierarchy(capsys, edgar_client, make_gateway):
    """Tolerance: exact names and parent links. Budget: 5 s."""
    with criterion(capsys, 2, "Adobe nested disclosure extracted under Digital Media", 5.0):
        doc = fetch_doc(edgar_client, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        pipeline = ExtractionPipeline(make_gateway())
        bundle = pipeline.run_pipeline(doc, paperdata.ADOBE_CIK, paperdata.ADOBE_FY)
        assert [r.name for r in bundle.reportable] == paperdata.ADOBE_SEGMENTS
        assert len(bundle.reportable) == 3
        nested = {r.name: r for r in bundle.nested}
        assert {"Creative Cloud", "Document Cloud"} <= set(nested)
        for record in nested.values():
            assert record.parent_name == "Digital Media"
        validate_bundle(bundle)


def test_criterion_03_change_detection(capsys):
    """Tolerance: exact set equality on changed years. Budget: 1 s."""
    with criterion(capsys, 3, "detect_changes flags exactly the Table 3 years", 1.0):
        panel = [(year, list(names)) for year, names in sorted(paperdata.AVY_TABLE3.items())]
        rows = detect_changes(panel)
        changed = {row.fiscal_year for row in rows if row.changed}
        assert changed == {2004, 2005, 2012, 2014, 2016, 2022}
        assert changed == paperdata.AVY_CHANGED_YEARS
        unchanged = {row.fiscal_year for row in rows if not row.changed}
        assert unchanged == set(paperdata.AVY_TABLE3) - changed


def test_criterion_04_grounded_explanation(capsys, avy_store, avy_index, make_gateway):
    """Tolerance: enum-exact reason/linkage and exact mapping. Budget: 5 s."""
    with criterion(capsys, 4, "explain_changes grounds 2014 and 2022 answers", 5.0):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        rows = explain_changes(paperdata.AVY_CIK, panel, avy_index, make_gateway())
        by_year = {row.fiscal_year: row for row in rows}
        assert by_year[2014].reason == "new_segment_added"
        assert by_year[2022].linkage == "partial"
        materials = next(entry for entry in by_year[2022].mapping
                         if entry[1] == "Materials Group")
        assert set(materials[0]) == {"LGM", "IHM"}
        assert by_year[2022].cites


def test_criterion_05_regional_aggregation(capsys, geo_store, asia_scheme):
    """Tolerance: exact totals; percentages within 0.1 pp. Budget: 1 s."""
    with criterion(capsys, 5, "align_regions reproduces all 13 Asia rows", 1.0):
        rows = align_regions(paperdata.INTC_CIK, paperdata.TXN_CIK, asia_scheme,
                             (2012, 2024), geo_store)
        assert [row.fiscal_year for row in rows] == list(range(2012, 2025))
        tol = Decimal("0.1")
        for row in rows:
            year = row.fiscal_year
            assert row.firm_a_region_total == Decimal(paperdata.INTC_ASIA_TOTAL[year])
            assert row.firm_b_region_total == Decimal(paperdata.TXN_ASIA_TOTAL[year])
            assert abs(row.firm_a_pct_of_total - paperdata.INTC_PCT[year]) <= tol
            assert abs(row.firm_b_pct_of_total - paperdata.TXN_PCT[year]) <= tol
        by_year = {row.fiscal_year: row for row in rows}
        assert by_year[2012].firm_a_region_total == Decimal(12622 + 8299 + 9327 + 4303)
        assert by_year[2012].firm_a_region_total == Decimal(34551)
        assert by_year[2012].firm_b_region_total == Decimal(9165)
        assert by_year[2022].firm_b_region_total == Decimal(8412)


def test_criterion_06_gap_report(capsys, tmp_path):
    """Tolerance: exact match against a brute-force oracle. Budget: 1 s."""
    with criterion(capsys, 6, "gap_report equals the set-difference oracle", 1.0):
        store = SegmentStore()
        for year in (2012, 2013, 2014):
            store.put(filingfab.intc_bundle(year))
        store.put(single_unit_bundle(77, 2012))
        store.put(filingfab.geo_bundle(88, 2012, "Empty Corp", "EMP", [], 100))
        roster_rows = [
            (paperdata.INTC_CIK, 2012),
            (paperdata.INTC_CIK, 2015),
            (77, 2012),
            (88, 2012),
            (paperdata.KMI_CIK, paperdata.KMI_MISSING_YEAR),
        ]
        roster = FundamentalsRoster.from_csv(
            filingfab.write_roster(tmp_path / "roster.csv", roster_rows))
        report = store.gap_report(roster)

        def covered(cik: int, year: int) -> bool:
            bundle = store.get(cik, year)
            if bundle is None:
                return False
            return bool(bundle.reportable) or bundle.classification.kind == SINGLE_UNIT

        oracle: dict[int, list[int]] = {}
        for cik, year in roster_rows:
            if not covered(cik, year):
                oracle.setdefault(year, []).append(cik)
        oracle = {year: sorted(ciks) for year, ciks in oracle.items()}
        assert report.missing == oracle
        assert report.total_missing == 3
        assert report.missing[paperdata.KMI_MISSING_YEAR] == [paperdata.KMI_CIK]


def test_criterion_07_retrieval_oracle(capsys, corpus_index):
    """Tolerance: relative error < 1e-12 (same arithmetic order). Budget: 5 s."""
    with criterion(capsys, 7, "ranking equals a brute-force scorer on 20 queries", 5.0):
        index = corpus_index
        assert len(index) <= 500
        token_re = re.compile(r"[a-z0-9]+")
        tokens = [token_re.findall(chunk.text.casefold()) for chunk in index.chunks]
        counts = [Counter(ts) for ts in tokens]
        df: Counter = Counter()
        for chunk_counts in counts:
            df.update(set(chunk_counts))

        def brute_force(query: str) -> list[tuple[str, float]]:
            query_tokens = sorted(set(token_re.findall(query.casefold())))
            rows = []
            for i, chunk in enumerate(index.chunks):
                norm = 1.0 - 0.75 + 0.75 * (len(tokens[i]) / 200)
                total = 0.0
                for token in query_tokens:
                    tf = counts[i].get(token, 0)
                    if tf == 0:
                        continue
                    idf = math.log(1.0 + 1.0 / df[token])
                    total += idf * (tf * (1.2 + 1.0)) / (tf + 1.2 * norm)
                if total > 0.0 and chunk.is_segment_region:
                    total *= 1.5
                if total > 0.0:
                    rows.append((total, chunk.fiscal_year, chunk.chunk_id))
            rows.sort(key=lambda row: (-row[0], row[1], row[2]))
            return [(chunk_id, score_) for score_, _, chunk_id in rows]

        rng = random.Random(20240813)
        vocabulary = sorted(df)
        queries = ["reportable segments revenue", "net sales by geographic area"]
        while len(queries) < 20:
            queries.append(" ".join(rng.sample(vocabulary, rng.randint(2, 6))))
        for query in queries:
            expected = brute_force(query)
            got = retrieve(index, query, k=max(1, len(index))).hits
            assert [cid for cid, _ in got] == [cid for cid, _ in expected], query
            for (_, got_score), (_, want_score) in zip(got, expected):
                if got_score != want_score:
                    rel = abs(got_score - want_score) / max(abs(got_score),
                                                            abs(want_score))
                    assert rel < 1e-12, query

        top = retrieve(index, "reportable segments revenue", k=1)
        assert index.chunk(top.hits[0][0]).is_segment_region


def test_criterion_08_eval_calibration(capsys):
    """Tolerance: exact accuracies and counts. Budget: 1 s."""
    with criterion(capsys, 8, "synthetic gold yields 97.0/91.0/88.0 and 14-vs-13", 1.0):
        year = 2020
        total_cells = 100
        scored_cik = 9000
        records = [
            SegmentRecord(name=f"seg{i:03d}", axis=AXIS_BUSINESS,
                          measures={"revenue": Money(Decimal(100 + i), Scale.MILLIONS)})
            for i in range(total_cells)
        ]
        bundles = [ExtractionBundle(
            cik=scored_cik, fiscal_year=year,
            classification=SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes"),
            general_fields=filingfab.general_responses({}),
            reportable=records,
        )]
        for offset in range(1, 30):
            cik = scored_cik + offset
            if offset < 14:  # model says multi for 14 firms in total
                bundles.append(filingfab.geo_bundle(cik, year, "Synth", "SYN",
                                                    [("Only Segment", 10)], 100))
            else:
                bundles.append(single_unit_bundle(cik, year))
        filings = [
            GoldFiling(cik=scored_cik + offset, fiscal_year=year,
                       is_multi_segment=offset < 13,  # manual says 13
                       has_nested=False)
            for offset in range(30)
        ]

        reports = []
        for group_id, n_correct in (("g1", 97), ("g2", 91), ("g3", 88)):
            cells = [
                GoldCell(scored_cik, year, f"seg{i:03d}", "revenue",
                         f"{100 + i} millions" if i < n_correct else "999,999 million")
                for i in range(total_cells)
            ]
            gold = GoldLabelSet(group_id=group_id, filings=filings, cells=cells)
            reports.append(score(gold, bundles))

        assert [r.primary_accuracy for r in reports] == [97.0, 91.0, 88.0]
        for report in reports:
            assert report.n_filings == 30
            assert report.n_multi_manual == 13
            assert report.n_multi_model == 14
        table = render_table2(reports)
        for token in ("97.0%", "91.0%", "88.0%"):
            assert token in table


def test_criterion_09_concurrency_contract(capsys):
    """Tolerance: peak in-flight <= 5 and exact input order. Budget: 10 s."""
    with criterion(capsys, 9, "ask_many holds order with max_in_flight=5 x 1000", 10.0):
        n = 1000
        file_hash = "9" * 64
        entries = [
            {"file_hash": file_hash, "question": f"q{i:04d}", "response": f"a{i:04d}"}
            for i in range(n)
        ]
        rng = random.Random(42)
        delays = {f"q{i:04d}": rng.choice([0.0, 0.0005, 0.001, 0.002]) for i in range(n)}
        lock = threading.Lock()
        active = 0
        peak = 0

        def probe(question: str) -> float:
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(delays[question])
            with lock:
                active -= 1
            return 0.0

        backend = ScriptedBackend(ScriptStore.from_entries(entries), delay_fn=probe)
        gateway = Gateway(backend, max_in_flight=5)
        handle = gateway.upload_bytes(b"doc", file_hash)
        requests = [
            PromptRequest(file=handle, question=f"q{i:04d}", request_id=f"r{i:04d}")
            for i in range(n)
        ]
        completions = gateway.ask_many(requests)
        assert [c.text for c in completions] == [f"a{i:04d}" for i in range(n)]
        assert [c.request_id for c in completions] == [r.request_id for r in requests]
        assert peak <= 5
        assert peak >= 2  # the pool actually overlapped work


def write_run_inputs(directory: Path) -> tuple[Path, Path, Path]:
    """The roster, region scheme and gold file that the criterion-10 commands read."""
    roster = filingfab.write_roster(directory / "roster.csv", [
        (paperdata.AVY_CIK, 2012),
        (paperdata.KMI_CIK, paperdata.KMI_MISSING_YEAR),
    ])
    scheme = filingfab.write_asia_scheme(directory / "asia.json")
    gold = directory / "gold.json"
    gold.write_text(json.dumps({
        "group_id": "unit",
        "filings": [
            {"cik": paperdata.APPLE_CIK, "fiscal_year": 2024,
             "is_multi_segment": False, "has_nested": False},
            {"cik": paperdata.ADOBE_CIK, "fiscal_year": 2024,
             "is_multi_segment": True, "has_nested": True},
        ],
        "cells": [
            {"cik": paperdata.ADOBE_CIK, "fiscal_year": 2024,
             "segment": "Digital Media", "measure": "revenue",
             "gold_value": "$16,200 million"},
        ],
    }), encoding="utf-8")
    return roster, scheme, gold


def full_run(config_path: Path, run_dir: Path, inputs: tuple[Path, Path, Path]) -> None:
    """The criterion-10 command sequence: every subcommand on one run directory."""
    roster, scheme, gold = inputs
    avy_years = sorted(paperdata.AVY_TABLE3)
    run_dir.mkdir()
    base = ["--config", str(config_path), "--run-dir", str(run_dir)]
    panel = SegmentStore(run_dir / "panel.jsonl")
    for year in sorted(paperdata.INTC_ASIA):
        panel.put(filingfab.intc_bundle(year))
        panel.put(filingfab.txn_bundle(year))
    for year in avy_years:
        assert main(["parse", *base, "--cik", str(paperdata.AVY_CIK),
                     "--year", str(year)]) == 0
    assert main(["index", *base, "--corpus", str(run_dir / "parsed")]) == 0
    for cik, year in ([(paperdata.APPLE_CIK, 2024), (paperdata.ADOBE_CIK, 2024)]
                      + [(paperdata.AVY_CIK, y) for y in avy_years]):
        assert main(["extract", *base, "--cik", str(cik), "--year", str(year)]) == 0
    assert main(["changes", *base, "--cik", str(paperdata.AVY_CIK),
                 "--from", str(avy_years[0]), "--to", str(avy_years[-1]),
                 "--index", str(run_dir / "index")]) == 0
    assert main(["align", *base,
                 "--firm-a", str(paperdata.INTC_CIK),
                 "--firm-b", str(paperdata.TXN_CIK),
                 "--label-a", "INTC", "--label-b", "TXN",
                 "--region", str(scheme),
                 "--from", "2012", "--to", "2024"]) == 0
    assert main(["gaps", *base, "--roster", str(roster)]) == 0
    assert main(["eval", *base, "--gold", str(gold), "--bundles", str(run_dir)]) == 0
    assert main(["export", *base, "--out", "segments.csv"]) == 0


def snapshot(run_dir: Path) -> dict[str, bytes]:
    return {
        path.relative_to(run_dir).as_posix(): path.read_bytes()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def assert_same_artifacts(first: dict[str, bytes], second: dict[str, bytes]) -> None:
    assert sorted(first) == sorted(second)
    for rel in sorted(first):
        assert first[rel] == second[rel], f"artifact differs between runs: {rel}"


def test_criterion_10_determinism(capsys, config_path, tmp_path, avy_index_dir):
    """Tolerance: byte-identical artifacts; the fetch timestamp stays in the
    EDGAR cache and never reaches the run directory, so nothing needs
    excluding. Budget: 30 s."""
    with criterion(capsys, 10, "two full scripted runs are byte-identical", 30.0):
        inputs = write_run_inputs(tmp_path)
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        full_run(config_path, run_a, inputs)
        full_run(config_path, run_b, inputs)
        first = snapshot(run_a)
        assert_same_artifacts(first, snapshot(run_b))
        assert len(first) > 30  # parses, bundles, index, tables, reports, manifest


# -- determinism matrix: criterion 10 under other schedules ----------------------


@pytest.fixture(scope="module")
def default_run(tmp_path_factory, config_path) -> tuple[tuple[Path, Path, Path], dict]:
    """The criterion-10 inputs and the run directory of the default configuration,
    whose budget (5) the jitter cases share."""
    directory = tmp_path_factory.mktemp("matrix")
    inputs = write_run_inputs(directory)
    full_run(config_path, directory / "default", inputs)
    return inputs, snapshot(directory / "default")


@pytest.mark.parametrize("max_in_flight, jitter_seed", [
    (1, None), (32, None), (5, 1), (5, 2),
], ids=["cap1", "cap32", "jitter1", "jitter2"])
def test_run_directory_does_not_depend_on_the_schedule(
        monkeypatch, config_path, tmp_path, default_run, max_in_flight, jitter_seed):
    """Every file of the run directory is byte-identical to the default run's,
    whatever the in-flight budget and however long each prompt takes; the
    budget bounds the prompts with the backend at once."""
    lock = threading.Lock()
    active = peak = 0

    def probe(question: str) -> float:
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        if jitter_seed is not None:
            time.sleep(random.Random(f"{jitter_seed}:{question}").choice(
                [0, 0.0005, 0.001, 0.003]))
        with lock:
            active -= 1
        return 0.0

    monkeypatch.setattr(gateway_module, "ScriptedBackend",
                        partial(ScriptedBackend, delay_fn=probe))
    config = tmp_path / "segforge.conf"
    config.write_text(config_path.read_text(encoding="utf-8")
                      + f"llm.max_in_flight = {max_in_flight}\n", encoding="utf-8")
    inputs, reference = default_run
    full_run(config, tmp_path / "run", inputs)
    assert_same_artifacts(reference, snapshot(tmp_path / "run"))
    assert 1 <= peak <= max_in_flight


# The sha256 of the two files that pin the default run directory: the manifest
# holds the digest of every other artifact, and the panel is the one file it
# does not list.
GOLDEN_DIGESTS = {
    "manifest.json": "6d51163b35d8ac31d21e47d75fc90c783ee3bbcc5d0a878e1156371ddb4d3ab0",
    "panel.jsonl": "c60f6fadc64860fcd3e85d24dbbf8979f4a70c007e9ba9f34a368eefabda18a1",
}


def test_run_directory_matches_the_golden_digests(default_run):
    """Every file of the criterion-10 run directory has the bytes it had when the
    digests were taken, so a writer change that moves a byte fails here even
    though criterion 10 compares a run only with itself."""
    _, files = default_run

    def digest(rel: str) -> str:
        return hashlib.sha256(files[rel]).hexdigest()

    assert {rel: digest(rel) for rel in GOLDEN_DIGESTS} == GOLDEN_DIGESTS
    listed = {item["path"]: item["sha256"]
              for item in json.loads(files["manifest.json"])["artifacts"]}
    assert sorted(files) == sorted([*listed, *GOLDEN_DIGESTS])
    assert {rel: digest(rel) for rel in listed} == listed
    assert len(files) == 86
