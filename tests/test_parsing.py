"""Parsing tests: itemization, offsets, table normalization, serialization.

The fixture filings exercise the realistic path; small inline HTML snippets
pin the normalization corner cases (colspan, negatives, scale hints) where
the expected output can be written down by hand.
"""

from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paperdata
from segforge import parsing
from segforge.edgar import EdgarClient, FixtureTransport
from segforge.errors import EmptyDocumentError, NoItemsFoundError
from segforge.parsing import (
    UNASSIGNED,
    CellValue,
    ItemId,
    dump_json,
    from_json,
    itemize,
    load_json,
    locate_segment_regions,
    parse,
    parse_text,
    to_json,
)
from segforge.retrieval import build_index
from segforge.values import Scale

FIXTURE_NAMES = ["apple", "adobe"] + [f"avy{y}" for y in sorted(paperdata.AVY_TABLE3)]


class TestItemization:
    def test_fixture_items_in_document_order(self, parsed_filings):
        for name in FIXTURE_NAMES:
            assert list(parsed_filings[name].items) == ["1", "1A", "7", "8"], name

    def test_sections_partition_full_text(self, parsed_filings):
        for name in FIXTURE_NAMES:
            parsed = parsed_filings[name]
            full = parsed.full_text
            assert parsed.char_count == len(full)
            assert parsed.front_matter.start == 0
            cursor = 0
            for section in parsed.sections():
                assert section.start == cursor
                assert full[section.start:section.end] == section.text
                cursor = section.end
            assert cursor == len(full)

    def test_item_ids_carry_parts(self, parsed_filings):
        items = parsed_filings["apple"].items
        assert items["1"].item == ItemId(part="I", number="1")
        assert items["1A"].item == ItemId(part="I", number="1A")
        assert items["7"].item == ItemId(part="II", number="7")
        assert items["8"].item == ItemId(part="II", number="8")

    def test_itemize_matches_parse(self, parsed_filings):
        parsed = parsed_filings["apple"]
        assert itemize(parsed) == parsed.items

    def test_unknown_item_id_rejected(self):
        with pytest.raises(ValueError):
            ItemId.of("17")

    def test_heading_must_start_line(self):
        html = (
            "<p>Item 1. Business</p>"
            "<p>See the discussion under Item 7 for revenue trends and the "
            "table referenced in Item 8 of this report.</p>"
            "<p>Item 8. Financial Statements and Supplementary Data</p>"
            "<p>Statements follow.</p>"
        )
        parsed = parse_text(html)
        assert list(parsed.items) == ["1", "8"]

    def test_toc_cluster_dropped(self):
        titles = [
            ("1", "Business"),
            ("1A", "Risk Factors"),
            ("7", "Management Discussion"),
            ("8", "Financial Statements"),
            ("9", "Changes and Disagreements"),
        ]
        filler = (
            "The registrant describes its operations, customers, suppliers, "
            "and competitive position in the paragraphs that follow, together "
            "with regulatory and seasonal considerations. " * 3
        )
        toc = "".join(f"<p>Item {n} {t}</p>" for n, t in titles)
        body = "".join(f"<p>Item {n}. {t}</p><p>{filler}</p>" for n, t in titles)
        html = (
            "<html><body><p>ANNUAL REPORT</p><p>TABLE OF CONTENTS</p>"
            f"{toc}<p>{filler}</p>{body}</body></html>"
        )
        parsed = parse_text(html)
        assert list(parsed.items) == ["1", "1A", "7", "8", "9"]
        # The packed listing stays in front matter; items anchor at the
        # real headings further down.
        assert "TABLE OF CONTENTS" in parsed.front_matter.text
        assert "Item 1 Business" in parsed.front_matter.text
        assert parsed.items["1"].start == parsed.full_text.find("Item 1. Business")

    def test_repeated_heading_keeps_first_chain(self):
        html = (
            "<p>Item 1. Business</p><p>Narrative one.</p>"
            "<p>Item 7. Management Discussion</p><p>Narrative two.</p>"
            "<p>Item 7. Management Discussion</p><p>Page header repeat.</p>"
            "<p>Item 8. Financial Statements</p><p>Narrative three.</p>"
        )
        parsed = parse_text(html)
        assert list(parsed.items) == ["1", "7", "8"]
        assert parsed.items["7"].start == parsed.full_text.find("Item 7.")
        # The repeat stays inside the first Item 7 span.
        assert "Page header repeat." in parsed.items["7"].text


class TestFixtureTables:
    def test_apple_table_matches_geographic_note(self, parsed_filings):
        parsed = parsed_filings["apple"]
        assert len(parsed.tables) == 1
        table = parsed.tables[0]
        assert table.table_id == "t000"
        assert table.item == "8"
        assert table.scale == Scale.MILLIONS
        assert table.scale_assumed is False
        assert table.header_rows == [["Segment", "Net sales"]]
        names = [row[0] for row in table.body_rows]
        assert names == [n for n, _ in paperdata.APPLE_GEO_SALES] + ["Total net sales"]

    def test_apple_numeric_cells(self, parsed_filings):
        table = parsed_filings["apple"].tables[0]
        amounts = [amt for _, amt in paperdata.APPLE_GEO_SALES]
        total = sum(amounts)
        expected = {(r, 1): Decimal(v) for r, v in enumerate(amounts + [total])}
        assert {k: c.value for k, c in table.numeric_cells.items()} == expected
        assert all(c.scale == Scale.MILLIONS for c in table.numeric_cells.values())

    def test_apple_char_start_is_exact(self, parsed_filings):
        parsed = parsed_filings["apple"]
        table = parsed.tables[0]
        lines = ["Segment Net sales"]
        lines += [f"{name} {amt:,}" for name, amt in paperdata.APPLE_GEO_SALES]
        lines.append(f"Total net sales {sum(a for _, a in paperdata.APPLE_GEO_SALES):,}")
        block = "\n".join(lines)
        start = table.char_start
        assert parsed.full_text[start:start + len(block)] == block
        section = parsed.items[table.item]
        assert section.start <= start < section.end

    def test_every_fixture_table_sits_in_item_8(self, parsed_filings):
        for name in FIXTURE_NAMES:
            parsed = parsed_filings[name]
            assert len(parsed.tables) == 1, name
            table = parsed.tables[0]
            assert table.item == "8"
            assert table.scale == Scale.MILLIONS
            assert not table.scale_assumed
            section = parsed.items["8"]
            assert section.start <= table.char_start < section.end


class TestTableNormalization:
    def test_colspan_expansion_and_width_padding(self):
        html = (
            "<p>Overview paragraph.</p>"
            "<table>"
            "<tr><th colspan='2'>Header</th><th>FY24</th></tr>"
            "<tr><td>Alpha</td><td>prior</td><td>(2,500)</td></tr>"
            "<tr><td>Beta</td><td>current</td><td>1,250.5</td></tr>"
            "<tr><td>Gamma</td></tr>"
            "</table>"
        )
        parsed = parse_text(html)
        assert len(parsed.tables) == 1
        table = parsed.tables[0]
        assert table.header_rows == [["Header", "", "FY24"]]
        assert table.body_rows == [
            ["Alpha", "prior", "(2,500)"],
            ["Beta", "current", "1,250.5"],
            ["Gamma", "", ""],
        ]
        assert table.numeric_cells == {
            (0, 2): CellValue(Decimal("-2500"), Scale.UNITS),
            (1, 2): CellValue(Decimal("1250.5"), Scale.UNITS),
        }
        assert table.scale == Scale.UNITS
        assert table.scale_assumed is True
        assert table.item == UNASSIGNED

    def test_scale_hint_from_preceding_line(self):
        caption_line = "Amounts below are shown in thousands of dollars."
        html = (
            f"<p>{caption_line}</p>"
            "<table><tr><th>Name</th><th>Value</th></tr>"
            "<tr><td>X</td><td>12</td></tr></table>"
        )
        table = parse_text(html).tables[0]
        assert table.caption_text == caption_line
        assert table.scale == Scale.THOUSANDS
        assert table.scale_assumed is False
        assert table.numeric_cells[(0, 1)].scale == Scale.THOUSANDS

    def test_scale_hint_from_caption_element(self):
        html = (
            "<p>Unrelated text.</p>"
            "<table><caption>Revenue in billions</caption>"
            "<tr><th>Name</th><th>Value</th></tr>"
            "<tr><td>X</td><td>3</td></tr></table>"
        )
        table = parse_text(html).tables[0]
        assert table.caption_text == "Revenue in billions"
        assert table.scale == Scale.BILLIONS
        assert table.scale_assumed is False

    def test_header_inferred_without_th(self):
        html = (
            "<p>Intro.</p>"
            "<table><tr><td>Name</td><td>Amount</td></tr>"
            "<tr><td>X</td><td>5</td></tr></table>"
        )
        table = parse_text(html).tables[0]
        assert table.header_rows == [["Name", "Amount"]]
        assert table.body_rows == [["X", "5"]]

    def test_all_header_table_keeps_scale_assumed_false(self):
        html = "<p>Intro.</p><table><tr><th>Only headers here</th></tr></table>"
        table = parse_text(html).tables[0]
        assert table.body_rows == []
        assert table.numeric_cells == {}
        # No numeric content means nothing was assumed about its scale.
        assert table.scale_assumed is False

    def test_empty_tables_are_dropped(self):
        html = "<p>Some text.</p><table></table><table><tr></tr></table>"
        assert parse_text(html).tables == []

    def test_tables_numbered_in_document_order(self):
        html = (
            "<p>First block.</p>"
            "<table><tr><td>a</td><td>1</td></tr></table>"
            "<p>Second block.</p>"
            "<table><tr><td>b</td><td>2</td></tr></table>"
        )
        tables = parse_text(html).tables
        assert [t.table_id for t in tables] == ["t000", "t001"]
        assert tables[0].char_start < tables[1].char_start

    def test_table_text_flows_into_full_text(self):
        html = "<p>Lead.</p><table><tr><td>Alpha</td><td>1,000</td></tr></table>"
        parsed = parse_text(html)
        table = parsed.tables[0]
        start = table.char_start
        assert parsed.full_text[start:start + len("Alpha 1,000")] == "Alpha 1,000"


class TestSegmentRegions:
    def test_apple_top_region_is_the_segment_note(self, parsed_filings):
        parsed = parsed_filings["apple"]
        regions = locate_segment_regions(parsed)
        assert regions
        top = regions[0]
        assert top.item == "8"
        assert 0.5 <= top.confidence <= 1.0
        snippet = parsed.full_text[top.start:top.end]
        assert "Segment Information and Geographic Data" in snippet
        ranks = [(-r.confidence, r.start) for r in regions]
        assert ranks == sorted(ranks)

    def test_single_strong_signal_scores_one_third(self):
        html = (
            "<p>Item 1. Business</p>"
            "<p>The company manages two reportable segments as described in "
            "the notes to the consolidated financial statements.</p>"
        )
        regions = locate_segment_regions(parse_text(html))
        assert len(regions) == 1
        assert regions[0].confidence == pytest.approx(2.0 / 6.0)
        assert regions[0].item == "1"

    def test_weak_lone_mention_is_ignored(self):
        html = (
            "<p>Item 1. Business</p>"
            "<p>Customers purchase labeling products in segments of the "
            "retail market.</p>"
        )
        assert locate_segment_regions(parse_text(html)) == []

    def test_region_bounds_stay_inside_section(self, parsed_filings):
        parsed = parsed_filings["adobe"]
        for region in locate_segment_regions(parsed):
            assert 0 <= region.start < region.end <= parsed.char_count
            if region.item is not None:
                section = parsed.items[region.item]
                assert section.start <= region.start
                assert region.end <= section.end


class TestFallbacks:
    def test_empty_document_raises(self):
        with pytest.raises(EmptyDocumentError):
            parse_text("<html><body>  \n\t </body></html>")

    def test_no_items_falls_back_to_front_matter_only(self):
        parsed = parse_text("<p>A letter to shareholders with no item headings.</p>")
        assert parsed.items == {}
        assert parsed.front_matter.text == parsed.full_text
        assert parsed.front_matter.end == parsed.char_count
        with pytest.raises(NoItemsFoundError):
            itemize(parsed)

    def test_table_before_first_item_is_unassigned(self):
        html = (
            "<table><tr><td>cover</td><td>7</td></tr></table>"
            "<p>Item 1. Business</p><p>Narrative.</p>"
        )
        parsed = parse_text(html)
        assert parsed.tables[0].item == UNASSIGNED

    def test_sgml_plain_text_path(self):
        raw = (
            "<SEC-DOCUMENT>\n<TYPE>10-K\n\n"
            "Item 1. Business\n"
            "The registrant operates a single line of business.\n\n"
            "Item 8. Financial Statements and Supplementary Data\n"
            "Tabular data omitted from this exhibit.\n"
        )
        parsed = parse_text(raw, media_kind="txt")
        assert parsed.tables == []
        assert list(parsed.items) == ["1", "8"]
        assert "single line of business" in parsed.items["1"].text

    def test_cp1252_bytes_decode(self):
        class FakeDoc:
            media_kind = "html"
            ref = None

            def __init__(self, data: bytes):
                self._data = data

            def read_bytes(self) -> bytes:
                return self._data

        data = (
            b"<p>Item 1. Business</p><p>Results \x93quoted\x94 here.</p>"
        )
        parsed = parse(FakeDoc(data))
        assert "“quoted”" in parsed.full_text

    def test_script_and_style_content_skipped(self):
        html = (
            "<script>var hidden = 'Item 4 Mine Safety';</script>"
            "<style>.x { color: red; }</style>"
            "<p>Item 1. Business</p><p>Visible narrative.</p>"
        )
        parsed = parse_text(html)
        assert "hidden" not in parsed.full_text
        assert "color" not in parsed.full_text
        assert list(parsed.items) == ["1"]


class TestSerialization:
    def test_roundtrip_preserves_everything(self, parsed_filings):
        for name in ("apple", "adobe", "avy2022"):
            parsed = parsed_filings[name]
            restored = from_json(to_json(parsed))
            assert restored == parsed, name

    def test_dump_is_idempotent(self, parsed_filings):
        parsed = parsed_filings["apple"]
        text = dump_json(parsed)
        assert dump_json(load_json(text)) == text

    def test_ref_survives_roundtrip(self, parsed_filings):
        parsed = parsed_filings["apple"]
        assert parsed.ref is not None
        restored = load_json(dump_json(parsed))
        assert restored.ref == parsed.ref
        assert restored.ref.cik == paperdata.APPLE_CIK

    def test_refless_filing_roundtrips(self):
        parsed = parse_text("<p>Item 1. Business</p><p>Narrative text.</p>")
        assert parsed.ref is None
        assert load_json(dump_json(parsed)) == parsed

    def test_parsed_json_is_independent_of_fetch_time(self, edgar_fixture, tmp_path):
        # The fetch stamp belongs to the cache; the parsed JSON under a run
        # directory must not change with it.
        root, _ = edgar_fixture
        dumps, stamps = [], []
        for cache in ("cache_a", "cache_b"):
            client = EdgarClient(FixtureTransport(root), cache_dir=tmp_path / cache,
                                 rate_limit_rps=10_000)
            doc = client.fetch(client.resolve_filing(paperdata.APPLE_CIK, paperdata.APPLE_FY))
            stamps.append(doc.ref.fetched_at)
            dumps.append(dump_json(parse(doc)))
        assert stamps[0] != stamps[1]
        assert dumps[0] == dumps[1]
        assert stamps[0] not in dumps[0]

    def test_numeric_cells_keep_decimal_exactness(self, parsed_filings):
        parsed = parsed_filings["apple"]
        restored = from_json(to_json(parsed))
        cells = restored.tables[0].numeric_cells
        assert cells[(0, 1)].value == Decimal("167045")
        assert isinstance(cells[(0, 1)].value, Decimal)


def reference_signal_hits(text: str) -> list[tuple[int, int, float]]:
    """The original pairwise scan: each match is tested against every accepted one.

    Quadratic in hits per section, but obviously right; it is the oracle for
    the sorted sweep in ``parsing._signal_hits``.
    """
    taken: list[tuple[int, int, float]] = []
    covered: list[tuple[int, int]] = []
    for pattern, weight in parsing._SIGNALS:
        for match in pattern.finditer(text):
            span = (match.start(), match.end())
            if any(span[0] < e and span[1] > s for s, e in covered):
                continue
            covered.append(span)
            taken.append((span[0], span[1], weight))
    taken.sort()
    return taken


# Words of every signal phrase plus near misses; joined with no space, they
# form run-together overlaps such as "segmentsegment" or "asc280".
_SIGNAL_WORDS = ["reportable", "operating", "segment", "segments", "information",
                 "reporting", "asc", "topic", "280", "sfas", "no.", "no", "131",
                 "segmentsegment", "the", "x"]
_GAPS = ["", " ", "  ", "\n", "\t ", "\n\n", ", "]


@st.composite
def _signal_text(draw) -> str:
    words = draw(st.lists(st.sampled_from(_SIGNAL_WORDS), max_size=40))
    out = []
    for word in words:
        upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        out.append("".join(c.upper() if u else c for c, u in zip(word, upper)))
        out.append(draw(st.sampled_from(_GAPS)))
    return "".join(out)


class TestSignalSweep:
    @settings(max_examples=300, deadline=None)
    @given(_signal_text())
    @example("reportable segmentsegment information ASC 280 segments")
    @example("Operating  Segments\nsegment reporting TOPIC280 sfas No. 131 sfas131")
    @example("")
    def test_equals_reference(self, text):
        assert parsing._signal_hits(text) == reference_signal_hits(text)

    def test_fixture_sections_equal_reference(self, parsed_filings):
        for name in FIXTURE_NAMES:
            for section in parsed_filings[name].sections():
                assert parsing._signal_hits(section.text) == reference_signal_hits(section.text)

    def test_regions_and_index_unchanged_on_fixtures(self, parsed_filings, monkeypatch):
        filings = [parsed_filings[name] for name in FIXTURE_NAMES]
        regions = [locate_segment_regions(parsed) for parsed in filings]
        index = build_index(filings)
        assert any(regions) and any(chunk.is_segment_region for chunk in index.chunks)
        monkeypatch.setattr(parsing, "_signal_hits", reference_signal_hits)
        assert [locate_segment_regions(parsed) for parsed in filings] == regions
        assert build_index(filings) == index


_ASSEMBLER_OPS = st.lists(
    st.one_of(
        st.text(alphabet="ab \n\t", max_size=12).map(lambda t: ("add_text", t)),
        st.just(("break_line",)),
        st.just(("break_para",)),
    ),
    max_size=60,
)


class TestTextAssemblerTail:
    @settings(max_examples=200, deadline=None)
    @given(_ASSEMBLER_OPS, st.integers(min_value=1, max_value=120))
    @example([], 500)
    def test_tail_is_suffix_of_joined_buffer(self, ops, window):
        assembler = parsing._TextAssembler()
        assert assembler.tail(window) == ""
        for name, *args in ops:
            getattr(assembler, name)(*args)
            assert assembler.tail(window) == "".join(assembler._buf)[-window:]
