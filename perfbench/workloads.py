"""The three benchmark workloads: ingest, extract and query.

A workload has four steps:

* ``generate(work, seed)`` makes its inputs from the seed: the synthetic
  filings on disk, the scripted LLM answers and the expected outputs. This
  is the benchmark's own work, and it is not timed.
* ``setup(dest)`` does the segforge work that must come before the first
  op, in a fresh directory ``dest``. This, and only this, is ``setup_s``.
* ``open(dest)`` reopens what ``setup`` left on disk, as a new process
  would, and is not timed.
* ``cycle()`` hands out one fixed, ordered list of ops that covers the
  workload's input mix once. run.py runs whole cycles in a closed loop
  (one client, the next op starts when the previous one returns), so every
  run sees the same mix and the percentiles never straddle two input
  classes by accident.

Ops talk to segforge only through its public API.
"""

from __future__ import annotations

import io
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable

import filingfab
import paperdata
# Module-qualified calls (parsing.parse, not parse) so that the traced run,
# which patches module attributes, sees the calls made from here too.
from segforge import cli, parsing, retrieval
from segforge.config import Config
from segforge.edgar import EdgarClient, FixtureTransport
from segforge.extraction import ExtractionPipeline
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore
from segforge.store import SegmentStore
from segforge.templates import AnswerShape, measure_question, retry_question

import checks
import corpus
from corpus import MULTI, NESTED, SINGLE, FilingPlan

# Polite-access limiter set out of the way, as tests/conftest.py does, so
# the runs measure the client and not the sleep between EDGAR requests.
RATE_LIMIT_RPS = 10_000

# -- ingest: 0.3-3 MB filings with ~130 tables per MB --------------------------
# One filing per size. With five ops per cycle the pooled op_ms_p50 falls in
# the middle of the 0.7 MB filing's samples and op_ms_p90 in the middle of
# the 3 MB filing's, never on the edge between two filings. One 3 MB filing
# keeps the corpus build near 11 s, so run.py can time it three times a run.
INGEST_SIZES_MB = [0.3, 0.45, 0.7, 1.0, 3.0]
# 130 tables per MB and 44 signal phrases per 10 kB, all in Item 7, give the
# table counts and the build_index times of ROADMAP item 1 (51 tables at
# 0.4 MB, 401 at 3.1 MB; 2.41 s at 1.6 MB and 8.82 s at 3.1 MB); see corpus.py.
TABLES_PER_MB = 130
SIGNAL_PER_10KB = 44.0
SIGNAL_ITEM = "7"

# -- extract: simulated per-prompt latency and the firm mix of one cycle ------
PROMPT_LATENCY_S = 0.020
EXTRACT_FILING_BYTES = 300_000
# (kind, reportable segments); nested filings carry one nested parent with two
# components and one malformed revenue answer that needs a format retry.
EXTRACT_MIX = [
    (SINGLE, 0), (SINGLE, 0),
    (MULTI, 2), (MULTI, 3), (MULTI, 3), (MULTI, 3), (MULTI, 4),
    (NESTED, 3), (NESTED, 3), (NESTED, 3),
]

# -- query: corpus, panel and the op mix of one cycle ---------------------------
QUERY_FIRMS = 150
QUERY_YEARS = list(range(2011, 2025))  # 14 years per synthetic firm
QUERY_INDEX_FIRMS = 30
QUERY_FILING_BYTES = 150_000
AVY_PAD_BYTES = 40_000
QUERY_MIX = ["changes", "align", "gaps", "export", "changes"]
_REGIONS = ["United States", "Canada", "Europe", "Latin America", "Middle East",
            "Africa", "Japan", "China", "Taiwan", "Singapore", "Rest of Asia"]


@dataclass
class Op:
    """One timed unit of work. ``run`` returns the problems its check found."""

    kind: str
    run: Callable[[], list[str]]
    size_mb: float = 0.0


def edgar_client(fixture: Path, cache: Path) -> EdgarClient:
    return EdgarClient.from_config(Config({
        "edgar.fixture_dir": str(fixture), "edgar.cache_dir": str(cache),
        "edgar.rate_limit_rps": str(RATE_LIMIT_RPS)}, use_env=False))


class Ingest:
    """Cold fetch, parse and dump of a filing per op; three corpus index builds a run."""

    name = "ingest"

    def generate(self, work: Path, seed: int) -> None:
        rng = random.Random(f"ingest:{seed}")
        self.plans = [
            corpus.plan_firm(rng, 910_001 + i, 2023, kind, 3,
                             target_bytes=int(mb * 1_000_000),
                             tables=round(TABLES_PER_MB * mb),
                             signal_per_10kb=SIGNAL_PER_10KB, signal_item=SIGNAL_ITEM)
            for i, (mb, kind) in enumerate(zip(INGEST_SIZES_MB,
                                               [SINGLE, MULTI, NESTED] * 2))
        ]
        self.fixture = work / "edgar"
        self.corpus = corpus.write_corpus(self.fixture, seed, self.plans)

    def setup(self, dest: Path) -> None:
        """What one ingest process does before its first fetch: config and client."""
        edgar_client(self.fixture, dest / "cache")

    def open(self, dest: Path) -> None:
        self.dest = dest
        self.transport = FixtureTransport(self.fixture)
        self.parsed: dict[tuple[int, int], object] = {}
        self.passes = 0
        self.index = None

    def cycle(self) -> list[Op]:
        # A fresh cache directory per cycle keeps every fetch a cache miss.
        shutil.rmtree(self.dest / f"cache{self.passes}", ignore_errors=True)
        self.passes += 1
        client = EdgarClient(self.transport, cache_dir=self.dest / f"cache{self.passes}",
                             rate_limit_rps=RATE_LIMIT_RPS)
        return [Op("filing", self._op(client, plan),
                   self.corpus.sizes[(plan.cik, plan.fiscal_year)] / 1e6)
                for plan in self.plans]

    def _op(self, client: EdgarClient, plan: FilingPlan):
        def run() -> list[str]:
            doc = client.fetch(client.resolve_filing(plan.cik, plan.fiscal_year))
            parsed = parsing.parse(doc)
            out = self.dest / "parsed" / f"{plan.cik}_{plan.fiscal_year}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(parsing.dump_json(parsed), encoding="utf-8")
            self.parsed[(plan.cik, plan.fiscal_year)] = parsed
            return checks.check_parsed(plan, parsed)
        return run

    def filings(self) -> list:
        return [self.parsed[(p.cik, p.fiscal_year)] for p in self.plans]

    def closing(self) -> Op:
        """Index build over the whole corpus; its time counts in ops_per_s."""
        def run() -> list[str]:
            self.index = retrieval.build_index(self.filings())
            return self.save_and_check()
        return Op("build_index", run, sum(self.corpus.sizes.values()) / 1e6)

    def save_and_check(self) -> list[str]:
        retrieval.save_index(self.index, self.dest / "index")
        return checks.check_chunks(self.index, {
            (p.ref.cik, p.ref.fiscal_year): p.full_text for p in self.filings()})


def combine(parts: list) -> retrieval.ChunkIndex:
    """The index ``build_index`` gives for the union of the filings of ``parts``.

    Chunking is per filing and document frequencies add up over disjoint
    chunk sets, so per-filing indexes concatenate into the corpus index.
    The traced run uses this to time one build per filing (for the size
    exponent) without building the corpus a second time.
    """
    doc_freq: dict[str, int] = {}
    for part in parts:
        for term, count in part.doc_freq.items():
            doc_freq[term] = doc_freq.get(term, 0) + count
    return retrieval.ChunkIndex(
        chunks=[c for part in parts for c in part.chunks], doc_freq=doc_freq,
        chunk_terms=[t for part in parts for t in part.chunk_terms],
        chunk_len=[n for part in parts for n in part.chunk_len])


def filing_script(plan: FilingPlan, file_hash: str) -> list[dict]:
    fields = filingfab.general_responses({
        "conm": plan.company, "cik": str(plan.cik), "srcs": "Form 10-K",
        "revt": filingfab.money_text(plan.revt),
    })
    entries = filingfab.filing_script(
        file_hash, "No" if plan.kind == SINGLE else "Yes", fields,
        list(plan.segments) if plan.kind != SINGLE else None,
        nested={parent: list(comps) for parent, comps in plan.nested})
    if plan.malformed_revenue_of:
        question = measure_question("revenue", plan.malformed_revenue_of)
        amount = dict(plan.segments)[plan.malformed_revenue_of]
        for entry in entries:
            if entry["question"] == question:
                entry["response"] = f"approximately {amount:,} (in millions)"
        entries.append({"file_hash": file_hash,
                        "question": retry_question(question, AnswerShape.MONETARY),
                        "response": filingfab.money_text(amount)})
    return entries


class Extract:
    """One firm-year through the three-stage pipeline per op, at latency L per prompt."""

    name = "extract"

    def generate(self, work: Path, seed: int) -> None:
        rng = random.Random(f"extract:{seed}")
        self.plans = [
            corpus.plan_firm(rng, 920_001 + i, 2022, kind, n,
                             target_bytes=EXTRACT_FILING_BYTES,
                             tables=round(TABLES_PER_MB * EXTRACT_FILING_BYTES / 1e6),
                             signal_per_10kb=SIGNAL_PER_10KB, signal_item=SIGNAL_ITEM,
                             malformed=(kind == NESTED))
            for i, (kind, n) in enumerate(EXTRACT_MIX)
        ]
        self.fixture = work / "edgar"
        self.corpus = corpus.write_corpus(self.fixture, seed, self.plans)
        self.entries = []
        for plan in self.plans:
            self.entries += filing_script(plan, self.corpus.hashes[(plan.cik, plan.fiscal_year)])

    def setup(self, dest: Path) -> None:
        """Warm the EDGAR cache, so every op's fetch is a hit, and open the panel."""
        client = edgar_client(self.fixture, dest / "cache")
        for plan in self.plans:
            client.fetch(client.resolve_filing(plan.cik, plan.fiscal_year))
        SegmentStore(dest / "panel.jsonl")

    def open(self, dest: Path) -> None:
        self.script = ScriptStore.from_entries(self.entries)
        self.config = Config(use_env=False)
        self.client = edgar_client(self.fixture, dest / "cache")
        self.store = SegmentStore(dest / "panel.jsonl")

    def cycle(self) -> list[Op]:
        return [Op(plan.kind, self._op(plan)) for plan in self.plans]

    def _op(self, plan: FilingPlan):
        def run() -> list[str]:
            doc = self.client.fetch(self.client.resolve_filing(plan.cik, plan.fiscal_year))
            # A fresh gateway per firm-year, as one `segforge extract` process has.
            backend = ScriptedBackend(self.script, delay_fn=lambda _q: PROMPT_LATENCY_S)
            gateway = Gateway(backend, max_in_flight=self.config.get_int("llm.max_in_flight"))
            pipeline = ExtractionPipeline.from_config(gateway, self.config)
            bundle = pipeline.run_pipeline(doc, plan.cik, plan.fiscal_year)
            self.store.put(bundle)
            return checks.check_bundle(plan, bundle)
        return run


class Query:
    """One in-process `segforge` CLI call per op against an on-disk panel and index."""

    name = "query"

    def generate(self, work: Path, seed: int) -> None:
        rng = random.Random(f"query:{seed}")
        self.index_plans = [
            corpus.plan_firm(rng, 930_001 + i, 2023, MULTI, 3,
                             target_bytes=QUERY_FILING_BYTES,
                             tables=round(TABLES_PER_MB * QUERY_FILING_BYTES / 1e6),
                             signal_per_10kb=SIGNAL_PER_10KB, signal_item=SIGNAL_ITEM)
            for i in range(QUERY_INDEX_FIRMS)
        ]
        avy_docs = {
            filingfab.avy_doc(year): (paperdata.AVY_CIK, year, corpus.pad_filing(
                filingfab.avy_10k_html(year), seed, f"avy{year}", AVY_PAD_BYTES,
                SIGNAL_PER_10KB))
            for year in sorted(paperdata.AVY_TABLE3)
        }
        self.fixture = work / "edgar"
        self.corpus = corpus.write_corpus(self.fixture, seed, self.index_plans, avy_docs)
        self.keys = [(p.cik, p.fiscal_year) for p in self.index_plans] + \
            [(paperdata.AVY_CIK, year) for year in sorted(paperdata.AVY_TABLE3)]
        self.avy_entries = []
        for year in sorted(paperdata.AVY_TABLE3):
            self.avy_entries += filingfab.avy_script(
                self.corpus.hashes[(paperdata.AVY_CIK, year)], year)
        self.bundles = self._plant_panel(rng)
        self.roster = filingfab.write_roster(work / "roster.csv", sorted(self.roster_keys))
        self.scheme = filingfab.write_asia_scheme(work / "asia.json")

    def setup(self, dest: Path) -> None:
        """Fetch, parse and index the corpus; extract the AVY years; write the panel."""
        client = edgar_client(self.fixture, dest / "cache")
        docs = {key: client.fetch(client.resolve_filing(*key)) for key in self.keys}
        index = retrieval.build_index([parsing.parse(docs[key]) for key in self.keys])
        retrieval.save_index(index, dest / "index")
        store = SegmentStore(dest / "panel.jsonl")
        pipeline = ExtractionPipeline(Gateway(ScriptedBackend(
            ScriptStore.from_entries(self.avy_entries))))
        for year in sorted(paperdata.AVY_TABLE3):
            store.put(pipeline.run_pipeline(docs[(paperdata.AVY_CIK, year)],
                                            paperdata.AVY_CIK, year))
        for bundle in self.bundles:
            store.put(bundle)

    def open(self, dest: Path) -> None:
        """Write the change script and the CLI config for the index and panel in ``dest``."""
        self.dest = dest
        index = retrieval.load_index(dest / "index")
        self.index_chunks = len(index)
        script = filingfab.write_script(dest / "responses.jsonl",
                                        filingfab.change_script_entries(index))
        del index
        config = dest / "segforge.conf"
        config.write_text("\n".join([
            f"edgar.fixture_dir = {self.fixture}",
            f"edgar.cache_dir = {dest / 'cache'}",
            f"edgar.rate_limit_rps = {RATE_LIMIT_RPS}",
            "llm.backend = scripted",
            f"llm.script_path = {script}",
            f"store.panel_path = {dest / 'panel.jsonl'}",
        ]) + "\n", encoding="utf-8")
        self.base = ["--config", str(config), "--run-dir", str(dest / "run")]

    def _plant_panel(self, rng: random.Random) -> list:
        """Thousands of bundles, with the export row count and revenue sum they plant."""
        rows = sum(len(filingfab.avy_revenues(y)) for y in paperdata.AVY_TABLE3)
        revenue = sum(Decimal(amount) for y in paperdata.AVY_TABLE3
                      for _, amount in filingfab.avy_revenues(y))
        bundles = [filingfab.intc_bundle(y) for y in sorted(paperdata.INTC_ASIA)] + \
                  [filingfab.txn_bundle(y) for y in sorted(paperdata.TXN_ASIA)]
        self.roster_keys: set[tuple[int, int]] = {(paperdata.AVY_CIK, y)
                                                  for y in paperdata.AVY_TABLE3}
        self.missing: dict[int, list[int]] = {}
        for i in range(QUERY_FIRMS):
            cik = 940_001 + i
            for year in QUERY_YEARS:
                self.roster_keys.add((cik, year))
                draw = rng.random()
                if draw < 0.03:  # in the roster, absent from the panel
                    self.missing.setdefault(year, []).append(cik)
                    continue
                regions = [] if draw < 0.05 else rng.sample(_REGIONS, rng.randrange(2, 6))
                if not regions:  # stored, but nothing extracted: still a gap
                    self.missing.setdefault(year, []).append(cik)
                components = [(name, rng.randrange(50, 9_000)) for name in regions]
                bundles.append(filingfab.geo_bundle(
                    cik, year, f"Firm {cik}", f"F{i:03d}", components,
                    sum(amount for _, amount in components) + rng.randrange(1, 500)))
        for bundle in bundles:
            rows += len(bundle.reportable)
            revenue += sum(r.measures["revenue"].value for r in bundle.reportable)
        self.expected_rows, self.expected_revenue = rows, revenue
        return bundles

    def cycle(self) -> list[Op]:
        return [Op(kind, getattr(self, f"_{kind}")) for kind in QUERY_MIX]

    def _cli(self, argv: list[str], outputs: list[str]) -> list[str]:
        """Run one command; its outputs are removed first so a stale file cannot pass."""
        run = self.dest / "run"
        for name in outputs:
            (run / name).unlink(missing_ok=True)
        with redirect_stdout(io.StringIO()):
            code = cli.main([argv[0], *self.base, *argv[1:]])
        return [] if code == 0 else [f"segforge {argv[0]} exited {code}"]

    def _changes(self) -> list[str]:
        years = sorted(paperdata.AVY_TABLE3)
        txt, csv = f"changes_{paperdata.AVY_CIK}.txt", f"changes_{paperdata.AVY_CIK}.csv"
        problems = self._cli(["changes", "--cik", str(paperdata.AVY_CIK),
                              "--from", str(years[0]), "--to", str(years[-1]),
                              "--index", str(self.dest / "index")], [txt, csv])
        run = self.dest / "run"
        return problems or checks.check_changes((run / txt).read_text(encoding="utf-8"),
                                                (run / csv).read_text(encoding="utf-8"))

    def _align(self) -> list[str]:
        csv = f"alignment_{paperdata.INTC_CIK}_{paperdata.TXN_CIK}.csv"
        problems = self._cli(["align", "--firm-a", str(paperdata.INTC_CIK),
                              "--firm-b", str(paperdata.TXN_CIK),
                              "--label-a", "INTC", "--label-b", "TXN",
                              "--region", str(self.scheme), "--from", "2012", "--to", "2024"],
                             [csv])
        return problems or checks.check_alignment(
            (self.dest / "run" / csv).read_text(encoding="utf-8"), "INTC", "TXN", "Asia")

    def _gaps(self) -> list[str]:
        problems = self._cli(["gaps", "--roster", str(self.roster)], ["gaps.json"])
        return problems or checks.check_gaps(
            (self.dest / "run" / "gaps.json").read_text(encoding="utf-8"),
            {year: sorted(ciks) for year, ciks in self.missing.items()})

    def _export(self) -> list[str]:
        problems = self._cli(["export", "--out", "segments.csv"], ["segments.csv"])
        return problems or checks.check_export(self.dest / "run" / "segments.csv",
                                               self.expected_rows, self.expected_revenue)


WORKLOADS = {cls.name: cls for cls in (Ingest, Extract, Query)}


def describe() -> dict:
    """The stated workload parameters, recorded next to the baseline."""
    return {
        "ingest": {"sizes_mb": INGEST_SIZES_MB, "tables_per_mb": TABLES_PER_MB,
                   "signal_per_10kb": SIGNAL_PER_10KB, "signal_item": SIGNAL_ITEM,
                   "rate_limit_rps": RATE_LIMIT_RPS},
        "extract": {"prompt_latency_ms": PROMPT_LATENCY_S * 1000,
                    "max_in_flight": Config(use_env=False).get_int("llm.max_in_flight"),
                    "filing_bytes": EXTRACT_FILING_BYTES,
                    "firm_mix": [f"{kind}:{n}" for kind, n in EXTRACT_MIX]},
        "query": {"panel_firms": QUERY_FIRMS, "panel_years": [QUERY_YEARS[0], QUERY_YEARS[-1]],
                  "index_firms": QUERY_INDEX_FIRMS, "index_filing_bytes": QUERY_FILING_BYTES,
                  "avy_pad_bytes": AVY_PAD_BYTES, "op_mix": QUERY_MIX},
    }
