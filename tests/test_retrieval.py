"""Retrieval tests: chunking offsets, lexical scoring, context assembly.

The scoring checks compare the index against a from-scratch reimplementation
of the documented formula, and the offset checks slice the original parsed
text, so both halves of the contract (where a chunk came from and how it
ranks) are verified independently.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filingfab
import paperdata
from growth import growth
from segforge import retrieval
from segforge.edgar import FilingRef
from segforge.errors import BudgetTooSmallError, SchemaError
from segforge.parsing import ItemId, ParsedFiling, Section, SegmentRegion, parse_text
from segforge.retrieval import (
    Chunk,
    ChunkIndex,
    RetrievalResult,
    _pack_spans,
    assemble_context,
    build_index,
    load_index,
    retrieve,
    save_index,
    tokenize,
)
from segforge.values import encode

DEFAULT_MIN = 800
DEFAULT_MAX = 1600
REFERENCE_TOKEN_RE = re.compile(r"[a-z0-9]+")  # tokens are its matches in the case-folded text


def reference_score(index: ChunkIndex, chunk_id: str, query: str) -> float:
    """Recompute one chunk's score straight from the documented formula."""
    position = [c.chunk_id for c in index.chunks].index(chunk_id)
    chunk = index.chunks[position]
    counts = Counter(REFERENCE_TOKEN_RE.findall(chunk.text.casefold()))
    length = sum(counts.values())
    norm = 1.0 - 0.75 + 0.75 * (length / 200)
    distinct = [set(REFERENCE_TOKEN_RE.findall(c.text.casefold())) for c in index.chunks]
    total = 0.0
    for token in sorted(set(REFERENCE_TOKEN_RE.findall(query.casefold()))):
        tf = counts[token]
        if tf == 0:
            continue
        df = sum(1 for terms in distinct if token in terms)
        idf = math.log(1.0 + 1.0 / df)
        total += idf * (tf * (1.2 + 1.0)) / (tf + 1.2 * norm)
    if total > 0.0 and chunk.is_segment_region:
        total *= 1.5
    return total


def reference_terms(text: str) -> tuple[dict[str, int], int]:
    """A chunk's term counts and length, straight from the oracle tokenizer."""
    tokens = REFERENCE_TOKEN_RE.findall(text.casefold())
    return dict(Counter(tokens)), len(tokens)


def filing_with_ref(html: str, cik: int = 999, year: int = 2020):
    parsed = parse_text(html)
    parsed.ref = FilingRef(
        cik=cik,
        fiscal_year=year,
        accession_number=f"{cik:010d}-{year % 100:02d}-000001",
        document_url="fixture",
        primary_document="doc.htm",
    )
    return parsed


def handmade_index(specs: list[dict]) -> ChunkIndex:
    """Index over synthetic chunks; term statistics derived from the texts."""
    chunks = []
    for i, spec in enumerate(specs):
        chunks.append(
            Chunk(
                chunk_id=spec.get("chunk_id", f"{spec.get('cik', 1)}_{spec.get('fy', 2000)}_{i:04d}"),
                cik=spec.get("cik", 1),
                fiscal_year=spec.get("fy", 2000),
                item=spec.get("item", "7"),
                char_range=(0, len(spec["text"])),
                text=spec["text"],
                is_segment_region=spec.get("region", False),
            )
        )
    terms = [dict(Counter(tokenize(c.text))) for c in chunks]
    doc_freq: dict[str, int] = {}
    for counts in terms:
        for term in counts:
            doc_freq[term] = doc_freq.get(term, 0) + 1
    return ChunkIndex(
        chunks=chunks,
        doc_freq=doc_freq,
        chunk_terms=terms,
        chunk_len=[sum(t.values()) for t in terms],
    )


class TestChunking:
    def test_char_ranges_slice_the_parsed_text(self, corpus_index, parsed_filings):
        by_key = {p.ref.cik: {} for p in parsed_filings.values()}
        for parsed in parsed_filings.values():
            by_key[parsed.ref.cik][parsed.ref.fiscal_year] = parsed
        assert len(corpus_index) > 0
        for chunk in corpus_index.chunks:
            full = by_key[chunk.cik][chunk.fiscal_year].full_text
            start, end = chunk.char_range
            assert full[start:end] == chunk.text

    def test_chunk_sizes_respect_bounds(self, corpus_index):
        groups: dict[tuple, list[Chunk]] = {}
        for chunk in corpus_index.chunks:
            assert len(chunk.text) <= DEFAULT_MAX
            groups.setdefault((chunk.cik, chunk.fiscal_year, chunk.item), []).append(chunk)
        for key, members in groups.items():
            # Only the tail of a section may fall below the minimum.
            for chunk in members[:-1]:
                assert len(chunk.text) >= DEFAULT_MIN, (key, chunk.chunk_id)

    def test_chunk_ids_are_sequential_per_filing(self, corpus_index):
        per_filing: dict[tuple[int, int], list[str]] = {}
        for chunk in corpus_index.chunks:
            per_filing.setdefault(chunk.source, []).append(chunk.chunk_id)
        for (cik, year), ids in per_filing.items():
            assert ids == [f"{cik}_{year}_{i:04d}" for i in range(len(ids))]

    def test_segment_note_chunks_are_flagged(self, corpus_index):
        flagged = [c for c in corpus_index.chunks
                   if c.cik == paperdata.AVY_CIK and c.fiscal_year == 2022
                   and c.is_segment_region]
        assert flagged
        assert any("Segment Information" in c.text for c in flagged)

    def test_oversized_paragraph_is_split_evenly(self):
        words = ("alpha beta gamma delta epsilon " * 400).strip()
        parsed = filing_with_ref(f"<p>Item 1. Business</p><p>{words}</p>")
        index = build_index([parsed])
        section_chunks = [c for c in index.chunks if len(c.text) > 100]
        assert len(section_chunks) > 1
        for chunk in section_chunks:
            assert len(chunk.text) <= DEFAULT_MAX
        full = parsed.full_text
        for chunk in index.chunks:
            start, end = chunk.char_range
            assert full[start:end] == chunk.text

    def test_build_index_requires_ref(self):
        parsed = parse_text("<p>Item 1. Business</p><p>text</p>")
        with pytest.raises(SchemaError):
            build_index([parsed])

    def test_build_index_rejects_two_filings_of_one_firm_year(self):
        parsed = filing_with_ref("<p>Item 1. Business</p><p>text</p>", cik=1, year=2000)
        with pytest.raises(SchemaError, match="two filings for cik 1, fiscal year 2000"):
            build_index([parsed, parsed])


class TestTokenize:
    """``tokenize`` gives the matches of ``REFERENCE_TOKEN_RE`` in the case-folded text."""

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    def test_equals_reference(self, text):
        assert tokenize(text) == REFERENCE_TOKEN_RE.findall(text.casefold())

    @pytest.mark.parametrize("text, tokens", [
        ("Straße", ["strasse"]),  # ß folds to ss
        ("\ufb01nance", ["finance"]),  # the ligature ﬁ folds to fi
        ("İstanbul", ["i", "stanbul"]),  # İ folds to i and a combining dot
        ("\u017fegment", ["segment"]),  # long s
        ("\u212a9", ["k9"]),  # Kelvin sign
        ("\uff11 q\uff11", ["q"]),  # fullwidth digit one
        ("m\u00b2 x2", ["m", "x2"]),  # superscript two
        ("a\x00b", ["a", "b"]),
        ("a\ud800b", ["a", "b"]),  # a lone surrogate
    ], ids=["sharp_s", "fi_ligature", "dotted_i", "long_s", "kelvin", "fullwidth", "superscript",
            "nul", "surrogate"])
    def test_cases(self, text, tokens):
        assert tokenize(text) == tokens == REFERENCE_TOKEN_RE.findall(text.casefold())

    def test_every_code_point_between_two_letters(self):
        text = "".join(f" x{chr(cp)}y" for cp in range(0x110000))
        assert tokenize(text) == REFERENCE_TOKEN_RE.findall(text.casefold())


class TestRegionFlags:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12),
           st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=12))
    def test_overlap_test_equals_any(self, regions, spans):
        """The bisection gives the pairwise test's answer, for any regions and spans."""
        regions = [SegmentRegion(item=None, start=a, end=b, confidence=0.5) for a, b in regions]
        in_region = retrieval._overlap_test(regions)
        assert [in_region(start, end) for start, end in spans] == \
            [any(r.start < end and r.end > start for r in regions) for start, end in spans]

    def test_build_time_grows_linearly_with_regions(self):
        """One region per paragraph: flagging a chunk costs no pass over its filing's
        regions. The filler holds few tokens, so the flags' share of the build shows."""
        paragraph = "Our reportable segments are described below. " + "- " * 760
        ref = FilingRef(cik=1, fiscal_year=2020, accession_number="0000000001-20-000001",
                        document_url="fixture", primary_document="doc.htm")

        def make(n: int) -> ParsedFiling:
            text = "\n\n".join([paragraph] * n)
            return ParsedFiling(ref=ref, front_matter=Section(None, "", 0, 0),
                                items={"7": Section(ItemId.of("7"), text, 0, len(text))},
                                tables=[], char_count=len(text))

        assert growth(make, lambda parsed: build_index([parsed]), n=1500) < 20


@st.composite
def _sorted_spans(draw) -> list[tuple[int, int]]:
    """Sorted, disjoint, non-empty spans with arbitrary gaps, as paragraphs give."""
    spans, pos = [], draw(st.integers(0, 50))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 400)),
                                     max_size=30)):
        pos += gap
        spans.append((pos, pos + length))
        pos += length
    return spans


class TestPackSpansProperties:
    @settings(max_examples=300, deadline=None)
    @given(_sorted_spans(), st.integers(0, 500), st.integers(1, 500))
    def test_slices_bounded_ordered_and_covering(self, spans, min_chars, max_chars):
        out = _pack_spans(spans, min_chars, max_chars)
        if not spans:
            assert out == []
            return
        assert all(end - start <= max_chars for start, end in out)
        assert all(start < end for start, end in out)
        assert all(a[1] <= b[0] for a, b in zip(out, out[1:]))
        assert out[0][0] == spans[0][0] and out[-1][1] == spans[-1][1]
        covered = {i for start, end in out for i in range(start, end)}
        assert all(i in covered for start, end in spans for i in range(start, end))


class TestScoring:
    QUERIES = [
        "reportable segments revenue",
        "segment information net sales",
        "risk factors competition",
        "materials science company",
        "annual report fiscal year",
    ]

    def test_scores_match_reference_formula(self, corpus_index):
        for query in self.QUERIES:
            result = retrieve(corpus_index, query, k=10)
            assert result.hits, query
            for chunk_id, score in result.hits:
                expected = reference_score(corpus_index, chunk_id, query)
                assert score == pytest.approx(expected, rel=1e-12), (query, chunk_id)

    def test_hits_sorted_and_positive(self, corpus_index):
        result = retrieve(corpus_index, "reportable segments", k=50)
        scores = [score for _, score in result.hits]
        assert scores == sorted(scores, reverse=True)
        assert all(score > 0 for score in scores)

    def test_segment_boost_multiplies_score(self):
        text = "The reportable segments discussion appears in this paragraph."
        index = handmade_index([
            {"text": text, "chunk_id": "1_2000_0000", "region": False},
            {"text": text, "chunk_id": "1_2000_0001", "region": True},
        ])
        tokens = sorted(set(tokenize("reportable segments")))
        plain = index.score(0, tokens)
        boosted = index.score(1, tokens)
        assert plain > 0
        assert boosted == pytest.approx(plain * 1.5, rel=1e-15)

    def test_boost_does_not_apply_to_zero_scores(self):
        index = handmade_index([
            {"text": "nothing relevant here", "region": True},
        ])
        assert index.score(0, sorted(set(tokenize("segments")))) == 0.0

    def test_score_stability_when_corpus_grows(self):
        base = "<p>Item 1. Business</p><p>The company reports three reportable segments today.</p>"
        other = "<p>Item 1. Business</p><p>Unrelated prose about logistics and warehousing.</p>"
        small = build_index([filing_with_ref(base, cik=1, year=2000)])
        grown = build_index([
            filing_with_ref(base, cik=1, year=2000),
            filing_with_ref(other, cik=2, year=2001),
        ])
        query = "reportable segments"
        hit_small = dict(retrieve(small, query, k=5).hits)
        hit_grown = dict(retrieve(grown, query, k=5).hits)
        assert set(hit_small) <= set(hit_grown)
        for chunk_id, score in hit_small.items():
            assert hit_grown[chunk_id] == score  # exact, not approximate

    def test_exact_ties_break_by_year_then_id(self):
        text = "segment revenue detail"
        index = handmade_index([
            {"text": text, "cik": 1, "fy": 2002, "chunk_id": "1_2002_0000"},
            {"text": text, "cik": 1, "fy": 2001, "chunk_id": "1_2001_0000"},
            {"text": text, "cik": 1, "fy": 2001, "chunk_id": "1_2001_0001"},
        ])
        result = retrieve(index, "segment revenue", k=3)
        assert [cid for cid, _ in result.hits] == [
            "1_2001_0000", "1_2001_0001", "1_2002_0000",
        ]
        scores = {score for _, score in result.hits}
        assert len(scores) == 1

    def test_k_must_be_positive(self, corpus_index):
        with pytest.raises(ValueError):
            retrieve(corpus_index, "segments", k=0)

    def test_nonsense_query_returns_no_hits(self, corpus_index):
        result = retrieve(corpus_index, "zzzqqqxxx yyyvvv", k=5)
        assert result.hits == []


class TestFilters:
    def test_cik_and_year_filter(self, corpus_index):
        result = retrieve(corpus_index, "reportable segments", k=20,
                          metadata_filter={"cik": paperdata.AVY_CIK, "fiscal_year": 2005})
        assert result.hits
        for chunk_id, _ in result.hits:
            chunk = corpus_index.chunk(chunk_id)
            assert chunk.cik == paperdata.AVY_CIK
            assert chunk.fiscal_year == 2005
        assert result.filter_used == {"cik": paperdata.AVY_CIK, "fiscal_year": 2005}

    def test_year_set_filter(self, corpus_index):
        result = retrieve(corpus_index, "reportable segments", k=50,
                          metadata_filter={"cik": paperdata.AVY_CIK,
                                           "fiscal_year": {2003, 2004}})
        years = {corpus_index.chunk(cid).fiscal_year for cid, _ in result.hits}
        assert years == {2003, 2004}

    def test_repeated_year_scores_each_chunk_once(self, corpus_index):
        query = "reportable segments"
        once = retrieve(corpus_index, query, k=50,
                        metadata_filter={"cik": paperdata.AVY_CIK, "fiscal_year": 2004})
        twice = retrieve(corpus_index, query, k=50,
                         metadata_filter={"cik": paperdata.AVY_CIK, "fiscal_year": [2004, 2004]})
        assert once.hits and twice.hits == once.hits

    def test_item_filter(self, corpus_index):
        result = retrieve(corpus_index, "reportable segments", k=50,
                          metadata_filter={"item": "8"})
        assert result.hits
        for chunk_id, _ in result.hits:
            assert corpus_index.chunk(chunk_id).item == "8"

    def test_no_filter_returns_copyless_none(self, corpus_index):
        assert retrieve(corpus_index, "segments", k=1).filter_used is None


class TestAssembleContext:
    def result_for(self, index: ChunkIndex, pairs: list[tuple[str, float]]) -> RetrievalResult:
        return RetrievalResult(query="q", hits=pairs, filter_used=None)

    def test_spans_tile_the_context_exactly(self, corpus_index):
        results = [
            retrieve(corpus_index, "reportable segments segment reporting change", k=4,
                     metadata_filter={"cik": paperdata.AVY_CIK, "fiscal_year": y})
            for y in (2021, 2022)
        ]
        context = assemble_context(corpus_index, results, budget_chars=12000)
        assert context.spans[0][1] == 0
        for (_, _, prev_end), (_, start, _) in zip(context.spans, context.spans[1:]):
            assert start == prev_end
        assert context.spans[-1][2] == len(context.text)
        for chunk_id, start, end in context.spans:
            chunk = corpus_index.chunk(chunk_id)
            header = (f"[cik={chunk.cik}, fy={chunk.fiscal_year}, "
                      f"item={chunk.item}, chunk={chunk.chunk_id}]")
            assert context.text[start:end] == f"{header}\n{chunk.text}\n\n"

    def test_duplicate_chunks_keep_max_score(self):
        index = handmade_index([
            {"text": "segment one " + "pad " * 10, "chunk_id": "1_2000_0000"},
            {"text": "segment two " + "pad " * 10, "chunk_id": "1_2000_0001"},
        ])
        results = [
            self.result_for(index, [("1_2000_0000", 1.0), ("1_2000_0001", 5.0)]),
            self.result_for(index, [("1_2000_0000", 9.0)]),
        ]
        context = assemble_context(index, results, budget_chars=10_000)
        # Same year, so the deduplicated max score (9.0 vs 5.0) decides order.
        assert context.chunk_ids == ["1_2000_0000", "1_2000_0001"]

    def test_orders_by_year_before_score(self):
        index = handmade_index([
            {"text": "later year", "cik": 1, "fy": 2005, "chunk_id": "1_2005_0000"},
            {"text": "earlier year", "cik": 1, "fy": 2004, "chunk_id": "1_2004_0000"},
        ])
        results = [self.result_for(index, [("1_2005_0000", 9.0), ("1_2004_0000", 1.0)])]
        context = assemble_context(index, results, budget_chars=10_000)
        assert context.chunk_ids == ["1_2004_0000", "1_2005_0000"]

    def test_budget_skips_whole_chunks_greedily(self):
        index = handmade_index([
            {"text": "a" * 100, "chunk_id": "1_2000_0000"},
            {"text": "b" * 3000, "chunk_id": "1_2000_0001"},
            {"text": "c" * 100, "chunk_id": "1_2000_0002"},
        ])
        results = [self.result_for(
            index,
            [("1_2000_0000", 3.0), ("1_2000_0001", 2.0), ("1_2000_0002", 1.0)],
        )]
        context = assemble_context(index, results, budget_chars=400)
        assert context.chunk_ids == ["1_2000_0000", "1_2000_0002"]
        assert "b" not in context.text

    def test_budget_too_small(self):
        index = handmade_index([{"text": "x" * 500, "chunk_id": "1_2000_0000"}])
        results = [self.result_for(index, [("1_2000_0000", 1.0)])]
        with pytest.raises(BudgetTooSmallError):
            assemble_context(index, results, budget_chars=50)
        with pytest.raises(ValueError):
            assemble_context(index, results, budget_chars=0)


class TestPersistence:
    def test_save_load_roundtrip(self, avy_index, avy_index_dir):
        loaded = load_index(avy_index_dir)
        assert loaded.chunks == avy_index.chunks
        assert loaded.doc_freq == avy_index.doc_freq
        # index.bin keeps doc_freq only; each chunk's counts come from its text.
        stats = json.loads((avy_index_dir / "index.bin").read_text(encoding="utf-8"))
        assert set(stats) == {"doc_freq"}
        for i, chunk in enumerate(avy_index.chunks):
            expected = reference_terms(chunk.text)
            assert avy_index.terms(i) == expected
            assert loaded.terms(i) == expected

    def test_loaded_index_scores_identically(self, avy_index, avy_index_dir):
        loaded = load_index(avy_index_dir)
        query = "reportable segments segment reporting change"
        original = retrieve(avy_index, query, k=25).hits
        reloaded = retrieve(loaded, query, k=25).hits
        assert reloaded == original

    def test_save_is_deterministic(self, corpus_index, tmp_path):
        save_index(corpus_index, tmp_path / "a")
        save_index(corpus_index, tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 2 + len({chunk.source for chunk in corpus_index.chunks})
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_index_bin_with_term_counts_is_refused(self, avy_index, tmp_path):
        """index.bin holds doc_freq only. One that also stores per-chunk counts
        raises SchemaError naming it; with an old single-file catalog beside it,
        the rebuild message comes first."""
        save_index(avy_index, tmp_path)
        terms = [reference_terms(chunk.text) for chunk in avy_index.chunks]
        (tmp_path / "index.bin").write_text(json.dumps({
            "doc_freq": dict(sorted(avy_index.doc_freq.items())),
            "chunk_terms": [dict(sorted(counts.items())) for counts, _ in terms],
            "chunk_len": [length for _, length in terms],
        }, sort_keys=True), encoding="utf-8")
        with pytest.raises(SchemaError, match="chunk_len") as caught:
            load_index(tmp_path)
        assert str(tmp_path / "index.bin") in str(caught.value)
        old = {"chunks": json.loads(json.dumps(avy_index.chunks, default=encode))}
        (tmp_path / "index.meta.json").write_text(json.dumps(old), encoding="utf-8")
        with pytest.raises(SchemaError, match="run `segforge index` again"):
            load_index(tmp_path)

    def test_single_file_meta_asks_for_rebuild(self, avy_index, tmp_path):
        """An index.meta.json of the old layout, with or without the scoring values,
        raises SchemaError telling the user to rebuild the index."""
        save_index(avy_index, tmp_path)
        old = {"chunks": json.loads(json.dumps(avy_index.chunks, default=encode))}
        for meta in (old, {**old, "params": {"k1": 1.2, "b": 0.75, "segment_boost": 1.5,
                                             "len_norm_ref": 200}}):
            (tmp_path / "index.meta.json").write_text(json.dumps(meta), encoding="utf-8")
            with pytest.raises(SchemaError, match="run `segforge index` again") as caught:
                load_index(tmp_path)
            assert str(tmp_path / "index.meta.json") in str(caught.value)

    def test_chunk_term_missing_from_doc_freq_asks_for_rebuild(self, tmp_path):
        """A chunk file whose text holds a term index.bin does not count fails the
        query that scores it, naming the chunk, instead of dividing by zero."""
        save_index(build_index([filing_with_ref(filingfab.REGION_HTML, 31, 2020)]), tmp_path)
        _rewrite(_add_to_text(" zzqq"))(tmp_path / "31_2020.chunks.json")
        with pytest.raises(SchemaError, match=r"chunk 31_2020_0000 holds the term 'zzqq'.*"
                                              r"run `segforge index` again"):
            retrieve(load_index(tmp_path), "zzqq", 3)


class TestBuildMemory:
    """A built index keeps its chunks and document frequencies: no filing and
    no per-chunk term counts."""

    def test_built_index_retains_under_three_times_its_text(self, parsed_filings):
        filings = [parsed_filings[name] for name in _FIXTURE_FILINGS]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = build_index(filings)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        text = sum(len(chunk.text) for chunk in index.chunks)
        assert retained < 3 * text, (retained, text)

    def test_generator_build_keeps_at_most_two_filings_alive(self):
        """Each filing is made as the build draws it; while the next is drawn,
        only the one being chunked may still be alive, and none outlives the build."""
        alive: list[weakref.ref] = []
        most = 0

        def filings():
            nonlocal most
            for cik in range(101, 109):
                parsed = filing_with_ref(filingfab.REGION_HTML, cik=cik, year=2020)
                alive.append(weakref.ref(parsed))
                most = max(most, sum(ref() is not None for ref in alive))
                yield parsed

        index = build_index(filings())
        assert len(alive) == 8 and len({chunk.cik for chunk in index.chunks}) == 8
        assert most <= 2, most
        assert all(ref() is None for ref in alive)


def passes(chunk: Chunk, metadata_filter: dict | None) -> bool:
    """The documented filter: each key it names must match; a year may be a collection."""
    wanted = metadata_filter or {}
    years = wanted.get("fiscal_year", chunk.fiscal_year)
    return ("cik" not in wanted or chunk.cik == wanted["cik"]) and \
        ("item" not in wanted or chunk.item == wanted["item"]) and \
        (chunk.fiscal_year in years if isinstance(years, (set, list, tuple))
         else chunk.fiscal_year == years)


def brute_force_hits(index: ChunkIndex, query: str, k: int,
                     metadata_filter: dict | None) -> list[tuple[str, float]]:
    """Score every chunk that passes the filter; order by the documented tie rule."""
    tokens = sorted(set(tokenize(query)))
    scored = [(index.score(i, tokens), chunk.fiscal_year, chunk.chunk_id)
              for i, chunk in enumerate(index.chunks) if passes(chunk, metadata_filter)]
    scored = sorted((row for row in scored if row[0] > 0.0), key=lambda r: (-r[0], r[1], r[2]))
    return [(chunk_id, score) for score, _, chunk_id in scored[:k]]


_FIXTURE_FILINGS = ["apple", "adobe"] + [f"avy{y}" for y in sorted(paperdata.AVY_TABLE3)]
_QUERY_WORDS = ["reportable", "segments", "segment", "revenue", "net", "sales", "change",
                "materials", "risk", "geographic", "asia", "fiscal", "the", "zzz"]


@st.composite
def _filter(draw, sources: list[tuple[int, int]], items: list[str]) -> dict | None:
    ciks = sorted({cik for cik, _ in sources}) + [1]
    years = sorted({year for _, year in sources}) + [1990]
    kind = draw(st.sampled_from(["filing", "year_set", "item", "cik", "year", "none"]))
    cik, year = draw(st.sampled_from(sources)) if draw(st.booleans()) else \
        (draw(st.sampled_from(ciks)), draw(st.sampled_from(years)))
    if kind == "filing":
        found = {"cik": cik, "fiscal_year": year}
    elif kind == "year_set":
        wanted = draw(st.lists(st.sampled_from(years), max_size=4))
        found = {"cik": cik, "fiscal_year": draw(st.sampled_from([set, list, tuple]))(wanted)}
    elif kind == "item":
        found = {"item": draw(st.sampled_from(items + ["99"]))}
    elif kind == "cik":
        found = {"cik": cik}
    elif kind == "year":
        found = {"fiscal_year": year}
    else:
        return None
    if kind in ("filing", "year_set") and draw(st.booleans()):
        found["item"] = draw(st.sampled_from(items))
    return found


class TestFilteredRetrievalProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_loaded_index_matches_brute_force_scan(self, parsed_filings, data):
        names = data.draw(st.lists(st.sampled_from(_FIXTURE_FILINGS), min_size=1,
                                   max_size=4, unique=True))
        with mock.patch.object(retrieval, "MIN_CHARS", data.draw(st.sampled_from([200, 800]))), \
                mock.patch.object(retrieval, "MAX_CHARS", data.draw(st.sampled_from([400, 1600]))):
            built = build_index([parsed_filings[name] for name in names])
        sources = sorted({chunk.source for chunk in built.chunks})
        items = sorted({chunk.item for chunk in built.chunks})
        with tempfile.TemporaryDirectory() as tmp:  # a loaded index reads chunk files lazily
            save_index(built, tmp)
            loaded = load_index(tmp)
            for _ in range(6):
                query = " ".join(data.draw(st.lists(st.sampled_from(_QUERY_WORDS),
                                                    min_size=1, max_size=4)))
                metadata_filter = data.draw(_filter(sources, items))
                k = data.draw(st.integers(1, 30))
                expected = brute_force_hits(built, query, k, metadata_filter)
                assert retrieve(loaded, query, k, metadata_filter).hits == expected
                assert retrieve(built, query, k, metadata_filter).hits == expected


def _saved_and_built(parsed_filings, data):
    """A built index over a random fixture corpus, saved to a temporary directory."""
    names = data.draw(st.lists(st.sampled_from(_FIXTURE_FILINGS), min_size=2,
                               max_size=5, unique=True))
    built = build_index([parsed_filings[name] for name in names])
    tmp = tempfile.TemporaryDirectory()
    save_index(built, tmp.name)
    return built, tmp


def _query(data) -> tuple[str, int]:
    words = data.draw(st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=4))
    return " ".join(words), data.draw(st.integers(1, 30))


class TestSavedIndexProperty:
    """A saved-then-loaded index answers exactly as the index it was saved from."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_loaded_hits_and_scores_equal_built(self, parsed_filings, data):
        built, tmp = _saved_and_built(parsed_filings, data)
        with tmp:
            sources = list(dict.fromkeys(chunk.source for chunk in built.chunks))
            for _ in range(3):
                query, k = _query(data)
                cik, year = data.draw(st.sampled_from(sources))
                for metadata_filter in (None, {"cik": cik, "fiscal_year": year}):
                    loaded = load_index(tmp.name)
                    # Same ids in the same order; scores are positive floats, so
                    # == is bit-for-bit equality.
                    assert retrieve(loaded, query, k, metadata_filter).hits == \
                        retrieve(built, query, k, metadata_filter).hits
                    assert loaded.chunks == built.chunks

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_streamed_build_and_loaded_terms_equal_built(self, parsed_filings, data):
        """A build fed a generator equals one fed the list; a built index and the
        same index saved and loaded derive the same term counts, and its document
        frequencies count each chunk's distinct oracle tokens."""
        names = data.draw(st.lists(st.sampled_from(_FIXTURE_FILINGS), min_size=1,
                                   max_size=4, unique=True))
        built = build_index([parsed_filings[name] for name in names])
        streamed = build_index(parsed_filings[name] for name in names)
        assert streamed.chunks == built.chunks
        assert list(streamed.doc_freq.items()) == list(built.doc_freq.items())
        assert built.doc_freq == Counter(term for chunk in built.chunks for term in
                                         set(REFERENCE_TOKEN_RE.findall(chunk.text.casefold())))
        with tempfile.TemporaryDirectory() as tmp:
            save_index(built, tmp)
            loaded = load_index(tmp)
            assert [loaded.terms(i) for i in range(len(loaded))] == \
                [built.terms(i) for i in range(len(built))]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_corrupt_file_of_an_unasked_filing(self, parsed_filings, data):
        """A filtered query never reads another filing's chunk file; reading all
        of them finds the corrupt one and names it."""
        built, tmp = _saved_and_built(parsed_filings, data)
        with tmp:
            sources = list(dict.fromkeys(chunk.source for chunk in built.chunks))
            (cik, year), other = data.draw(st.permutations(sources))[:2]
            path = Path(tmp.name) / f"{other[0]}_{other[1]}.chunks.json"
            data.draw(st.sampled_from(_CORRUPTIONS))(path)
            loaded = load_index(tmp.name)
            for _ in range(3):
                query, k = _query(data)
                metadata_filter = {"cik": cik, "fiscal_year": year}
                result = retrieve(loaded, query, k, metadata_filter)
                assert result.hits == retrieve(built, query, k, metadata_filter).hits
                if result.hits:
                    assert assemble_context(loaded, [result], 12000) == \
                        assemble_context(built, [result], 12000)
            with pytest.raises(SchemaError) as caught:
                retrieve(loaded, query, k)
            assert str(path) in str(caught.value)


class TestChunkLookup:
    """A chunk id names its filing and its position there, so a lookup reads one file."""

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_chunk_by_id_is_the_chunk_with_that_id(self, parsed_filings, data):
        built, tmp = _saved_and_built(parsed_filings, data)
        with tmp:
            ids = data.draw(st.lists(st.sampled_from([c.chunk_id for c in built.chunks]),
                                     min_size=1, max_size=6))
            for index in (built, load_index(tmp.name)):
                found = [index.chunk(chunk_id) for chunk_id in ids]  # before .chunks reads all
                by_id = {chunk.chunk_id: chunk for chunk in index.chunks}
                assert found == [by_id[chunk_id] for chunk_id in ids]

    def test_unknown_id_raises_key_error(self, avy_index, avy_index_dir):
        last = avy_index.chunks[-1]
        filing = f"{last.cik}_{last.fiscal_year}"
        past_the_end = f"{filing}_{int(last.chunk_id[-4:]) + 1:04d}"
        for index in (avy_index, load_index(avy_index_dir)):
            for chunk_id in (past_the_end, f"{filing}_-001", f"{filing}_00000",
                             f"{last.cik}_1990_0000", "1_2000", "x_y_z"):
                with pytest.raises(KeyError):
                    index.chunk(chunk_id)

    def test_fresh_loaded_index_reads_only_the_chunks_own_file(self, avy_index, avy_index_dir):
        for chunk in {chunk.source: chunk for chunk in avy_index.chunks}.values():
            loaded = load_index(avy_index_dir)
            with mock.patch.object(retrieval, "_read_chunk_file",
                                   wraps=retrieval._read_chunk_file) as spy:
                assert loaded.chunk(chunk.chunk_id) == chunk
                assert loaded.chunk(chunk.chunk_id) == chunk
            assert [call.args[0] for call in spy.call_args_list] == \
                [avy_index_dir / f"{chunk.cik}_{chunk.fiscal_year}.chunks.json"]

    def test_cik_only_filter_reads_only_that_firms_files(self, corpus_index, tmp_path):
        save_index(corpus_index, tmp_path)
        for cik, year in {chunk.source for chunk in corpus_index.chunks}:
            if cik != paperdata.AVY_CIK:
                (tmp_path / f"{cik}_{year}.chunks.json").unlink()
        query, metadata_filter = "reportable segments", {"cik": paperdata.AVY_CIK}
        assert retrieve(load_index(tmp_path), query, 20, metadata_filter).hits == \
            retrieve(corpus_index, query, 20, metadata_filter).hits

    @pytest.mark.parametrize("change", [
        lambda chunks: [chunks[1], chunks[0], *chunks[2:]],
        lambda chunks: [dict(c, chunk_id=f"{c['chunk_id'][:-4]}{i + 1:04d}")
                        for i, c in enumerate(chunks)],
        lambda chunks: [dict(chunks[0], chunk_id=chunks[0]["chunk_id"].replace("_", "0_", 1)),
                        *chunks[1:]],
    ], ids=["swapped", "renumbered", "other_cik"])
    def test_chunk_ids_out_of_position_raise_naming_the_file(self, avy_index, tmp_path, change):
        save_index(avy_index, tmp_path)
        chunk = avy_index.chunks[0]
        path = tmp_path / f"{chunk.cik}_{chunk.fiscal_year}.chunks.json"
        _rewrite(change)(path)
        with pytest.raises(SchemaError, match="ids ") as caught:
            load_index(tmp_path).chunk(chunk.chunk_id)
        assert str(path) in str(caught.value)

    def test_a_filings_chunks_must_be_consecutive(self):
        with pytest.raises(SchemaError, match="cik 1, fiscal year 2000 appears twice"):
            handmade_index([{"text": "a"}, {"text": "b", "fy": 2001}, {"text": "c"}])


def _rewrite(change):
    def corrupt(path: Path) -> None:
        path.write_text(json.dumps(change(json.loads(path.read_text(encoding="utf-8")))),
                        encoding="utf-8")
    return corrupt


def _next_year(chunks: list[dict]) -> list[dict]:
    chunks[-1]["fiscal_year"] += 1
    return chunks


def _add_to_text(extra: str):
    def change(chunks: list[dict]) -> list[dict]:
        chunks[0]["text"] += extra
        return chunks
    return change


def _no_text(chunks: list[dict]) -> list[dict]:
    del chunks[0]["text"]
    return chunks


_CORRUPTIONS = [
    lambda path: path.write_text("not json", encoding="utf-8"),
    lambda path: path.unlink(),
    _rewrite(lambda chunks: chunks[:-1]),  # one chunk fewer than the catalog lists
    _rewrite(_next_year),  # a chunk of another filing
    _rewrite(_no_text),
    _rewrite(lambda chunks: {"chunks": chunks}),
]
