"""Parsing tests: itemization, offsets, table normalization, serialization.

The fixture filings exercise the realistic path; small inline HTML snippets
pin the normalization corner cases (colspan, negatives, scale hints) where
the expected output can be written down by hand.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from decimal import Decimal
from html import unescape
from html.parser import HTMLParser

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import filingfab
import paperdata
from growth import growth
from segforge import parsing
from segforge.edgar import EdgarClient, FixtureTransport
from segforge.errors import EmptyDocumentError, NoItemsFoundError
from segforge.parsing import (
    UNASSIGNED,
    ItemId,
    ParsedFiling,
    dump_json,
    locate_segment_regions,
    parse,
    parse_text,
)
from segforge.retrieval import build_index
from segforge.values import Scale, load, parse_table_cell

FIXTURE_NAMES = ["apple", "adobe"] + [f"avy{y}" for y in sorted(paperdata.AVY_TABLE3)]


def from_json(text: str) -> ParsedFiling:
    """The parsed filing that ``dump_json`` wrote as ``text``, read through the codec."""
    return load(ParsedFiling, json.loads(text))


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
        assert parsing._itemize_text(parsed.full_text) == (parsed.front_matter, parsed.items)

    def test_unknown_item_id_rejected(self):
        with pytest.raises(ValueError):
            ItemId.of("17")
        with pytest.raises(ValueError):
            ItemId(part="IV", number="17")
        with pytest.raises(ValueError):
            ItemId(part="II", number="1")  # Item 1 is in Part I

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
        assert [[parse_table_cell(cell) for cell in row] for row in table.body_rows] == \
            [[None, Decimal(v)] for v in amounts + [total]]
        assert table.scale == Scale.MILLIONS

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
        assert [[parse_table_cell(cell) for cell in row] for row in table.body_rows] == [
            [None, None, Decimal("-2500")],
            [None, None, Decimal("1250.5")],
            [None, None, None],
        ]
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
        assert parse_table_cell(table.body_rows[0][1]) == Decimal(12)

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

    def test_unclosed_rows_are_kept(self):
        # HTML 4 makes </tr> optional: a new <tr> closes the open row.
        table = parse_text("<table><tr><td>A<td>1<tr><td>B<td>2</table>").tables[0]
        assert (table.header_rows, table.body_rows) == ([], [["A", "1"], ["B", "2"]])

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
            parsing._itemize_text(parsed.full_text)

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

    class FakeDoc:
        media_kind = "html"
        ref = None

        def __init__(self, data: bytes):
            self._data = data

        def read_bytes(self) -> bytes:
            return self._data

    def test_cp1252_bytes_decode(self):
        data = (
            b"<p>Item 1. Business</p><p>Results \x93quoted\x94 here.</p>"
        )
        parsed = parse(self.FakeDoc(data))
        assert "“quoted”" in parsed.full_text

    def test_bytes_invalid_in_utf8_and_cp1252_decode_as_latin1(self):
        # 0x81 is a stray continuation byte in UTF-8 and unassigned in cp1252.
        data = b"<p>Item 1. Business</p><p>Caf\xe9 \x81 results.</p>"
        for encoding in ("utf-8", "cp1252"):
            with pytest.raises(UnicodeDecodeError):
                data.decode(encoding)
        assert "Caf\xe9 \x81 results." in parse(self.FakeDoc(data)).full_text

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
            restored = from_json(dump_json(parsed))
            assert restored == parsed, name

    def test_dump_keeps_document_order_on_one_line(self, parsed_filings):
        parsed = parsed_filings["apple"]
        text = dump_json(parsed)
        assert text.count("\n") == 1 and text.endswith("}\n")  # no indent
        data = json.loads(text)
        assert list(data) == ["ref", "front_matter", "items", "tables", "char_count"]
        assert list(data["items"]) == list(parsed.items) == ["1", "1A", "7", "8"]
        assert list(data["tables"][0]) == ["table_id", "caption_text", "header_rows", "body_rows", "item",
                                           "char_start", "scale", "scale_assumed"]

    def test_dump_is_idempotent(self, parsed_filings):
        parsed = parsed_filings["apple"]
        text = dump_json(parsed)
        assert dump_json(from_json(text)) == text

    def test_ref_survives_roundtrip(self, parsed_filings):
        parsed = parsed_filings["apple"]
        assert parsed.ref is not None
        restored = from_json(dump_json(parsed))
        assert restored.ref == parsed.ref
        assert restored.ref.cik == paperdata.APPLE_CIK

    def test_refless_filing_roundtrips(self):
        parsed = parse_text("<p>Item 1. Business</p><p>Narrative text.</p>")
        assert parsed.ref is None
        assert from_json(dump_json(parsed)) == parsed

    def test_parsed_json_is_independent_of_fetch_time(self, edgar_fixture, tmp_path):
        # The fetch stamp belongs to the cache; the parsed JSON under a run
        # directory must not change with it.
        root, _ = edgar_fixture
        dumps, stamps = [], []
        for cache in ("cache_a", "cache_b"):
            client = EdgarClient(FixtureTransport(root), cache_dir=tmp_path / cache,
                                 rate_limit_rps=10_000)
            doc = client.fetch(client.resolve_filing(paperdata.APPLE_CIK, paperdata.APPLE_FY))
            stamps.append(doc.fetched_at)
            dumps.append(dump_json(parse(doc)))
        assert stamps[0] != stamps[1]
        assert dumps[0] == dumps[1]
        assert stamps[0] not in dumps[0]

    def test_numeric_cells_keep_decimal_exactness(self, parsed_filings):
        parsed = parsed_filings["apple"]
        restored = from_json(dump_json(parsed))
        table = restored.tables[0]
        assert parse_table_cell(table.body_rows[0][1]) == Decimal("167045")
        assert table.scale == Scale.MILLIONS


# sha256 of ``dump_json(parse_text(html))`` for every fixture filing. A change
# to the HTML tokenizer or the text assembly must keep these bytes.
_FIXTURE_DIGESTS = {
    "apple": "6a86830384fb0a47e6152a2ae0f949d73fcbbeb0ef3abab9260c4dcd7e51e864",
    "adobe": "64fb821188b8c928cb4c3e9f072b1ef0f2966693efaf9fc0234142aeba2eb5ab",
    "avy2001": "dd3fd24e3a01ea7a551c79bae5334d9eb8708fe30ad203166da59aa24eba3fd1",
    "avy2002": "1da1535c4b7243ac757f55ac9f6df1d8976b8aceed65f5b2999ba73a975867c5",
    "avy2003": "7c7db95d97988cac2b4cbc6f6f61c354644bfb5ecda12d975059abb3a1961699",
    "avy2004": "4dfbaee2aa536042c156b46b2b73e4e2bda60d5fae21e1497756b41fd527e5f6",
    "avy2005": "ac4fd0d8a1bae3564e04393311f5792cac92c1768ce328e955e2db1ccc047c9b",
    "avy2006": "eebe7b76668d9d118f5540299be715d3a89743bd86d5faedc8965416e75022a2",
    "avy2007": "fbe4fe76eaa74a4f30bd7d0162377d4113daff07023446c089b583cdd11bf1ec",
    "avy2008": "a4f82d24a71f650e38eb367cda277a8576f73bec15028ed8a6fc0f80a5b26062",
    "avy2009": "ee19ede3bf1995f73da224f457d4760de8d95fc482a87c79005cef09f31784aa",
    "avy2010": "69a544f759dcdc5e6d23ab98a3a6ee06d1e1f29297f232ebbb538e02c4046b72",
    "avy2011": "a10318d405a4b60f59e0f7f3edb5f8d7d7bd3012b8f5b1275c3569b5ad00637d",
    "avy2012": "ec9905a5ec788b0cbbb8d2a14c8e7c40b72aea0e7e7c5f5744ec70fc164c874f",
    "avy2013": "ed44d699067d79eb9c2c0c8a8db8dbd578522fb8ebe7a636d72f3caad16dfb94",
    "avy2014": "53a111fd10030b846306c8d4f6b4ea4050a6bf62e05be5446fc701db1b744d61",
    "avy2015": "797d67753e7a3ef69d9194da20acddc1948d23d5cd18229756d6271824abd63e",
    "avy2016": "541f72b5de78729fb3e8398afe371571a862229e22a2ddd34bbbd69ff9a3737d",
    "avy2017": "43b7a9d71eba0df4fb8fc2a521ad7bec4feaf37870bbb1bf89fc86107f302a50",
    "avy2018": "f97685dc3fd1db0ccff58d0cbb04f119277ad378877187832fda0c13c8fe89da",
    "avy2019": "94e02b1cc458559cbd432f05b5c8c256d5d4faaaad35061dc80512ce8646c1f4",
    "avy2020": "b0e66293bf2dad78bc4e947ab2079f1a10b1cd04670c1bb06f9b2af951ffa1a1",
    "avy2021": "c74f588ef1024782b708f38194f7141b0f0cec9204e0abb29dbbb36e98f1fa09",
    "avy2022": "2297a6abe3f0e0eeb387939074874a4af42ed21af9b6f112e5a4404898ccf700",
    "avy2023": "a1499d383aba6f02129a6b7e9fa6529879d0e56e45638377b9f2419d44d12914",
    "avy2024": "e83ff31d26c1e5846a366b342ca132705f577941fdfa8e40aaf9735f4d94ff65",
}


def _fixture_html(name: str) -> str:
    if name.startswith("avy"):
        return filingfab.avy_10k_html(int(name[3:]))
    return getattr(filingfab, f"{name}_10k_html")()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_dump_digest_is_pinned(name):
    dumped = dump_json(parse_text(_fixture_html(name))).encode()
    assert hashlib.sha256(dumped).hexdigest() == _FIXTURE_DIGESTS[name]


class _Events:
    """The tokenizer events a sink receives, adjacent data merged.

    Attributes are kept only for the tags whose attributes segforge reads.
    """

    def __init__(self):
        self.events: list[tuple] = []

    def handle_data(self, data):
        if self.events and self.events[-1][0] == "data":
            self.events[-1] = ("data", self.events[-1][1] + data)
        elif data:
            self.events.append(("data", data))

    def handle_starttag(self, tag, attrs):
        self.events.append(("start", tag, attrs if tag in parsing._ATTR_TAGS else None))

    def handle_startendtag(self, tag, attrs):
        self.events.append(("startend", tag, attrs if tag in parsing._ATTR_TAGS else None))

    def handle_endtag(self, tag):
        self.events.append(("end", tag))


class _StdlibEvents(_Events, HTMLParser):
    """The reference: html.parser's events for one feed() and close()."""

    def __init__(self):
        _Events.__init__(self)
        HTMLParser.__init__(self, convert_charrefs=True)


def _stdlib_events(html: str) -> list[tuple]:
    parser = _StdlibEvents()
    parser.feed(html)
    parser.close()
    return parser.events


def _events(html: str) -> list[tuple]:
    sink = _Events()
    parsing._tokenize(html, sink)
    return sink.events


# Only constructs that html.parser handles alike in every CPython 3.10 and 3.11
# patch release: every construct is closed, and no "</script" sits inside a
# script. End of input and comments are pinned in TestTokenizerPins.
_TEXT = st.text(alphabet="ab Z9.,\n\t", max_size=12)
_ENTITY = st.sampled_from(["&amp;", "&amp", "&lt;", "&LT", "&#65;", "&#65", "&#x41;", "&copy",
                           "&nbsp;", "&notit;", "& ", "&;", "&#;", "&bogus;"])
_VALUE_PART = st.sampled_from(["a", "B", "2", " ", ">", "&amp;", "&lt", "&#50;"])
_ATTR_VALUE = st.one_of(
    st.lists(_VALUE_PART | st.just("'"), max_size=4).map(lambda v: '"%s"' % "".join(v)),
    st.lists(_VALUE_PART | st.just('"'), max_size=4).map(lambda v: "'%s'" % "".join(v)),
    st.sampled_from(["2", "3", "ab", "2&amp;"]),
)
_ATTR = st.builds(lambda name, value: name if value is None else f"{name}={value}",
                  st.sampled_from(["colspan", "COLSPAN", "ColSpan", "class", "id"]),
                  st.none() | _ATTR_VALUE)
_TAG = st.sampled_from(["p", "P", "td", "TD", "Th", "tr", "table", "TABLE", "div", "br", "BR",
                        "b", "span", "caption", "h2", "li"])


@st.composite
def _start_tag(draw) -> str:
    attrs = "".join(" " + a for a in draw(st.lists(_ATTR, max_size=3)))
    ending = draw(st.sampled_from([">", " />"] + (["/>"] if not attrs else [])))
    return f"<{draw(_TAG)}{attrs}{ending}"


@st.composite
def _raw_text(draw) -> str:
    tag = draw(st.sampled_from(["script", "SCRIPT", "style", "Style"]))
    body = draw(st.lists(_TEXT | st.sampled_from(["</b>", "<", "a < b", "</p>", "&amp;", "<p>"]),
                         max_size=4))
    end = draw(st.sampled_from([tag, tag.lower(), tag.upper()]))
    return f"<{tag}>{''.join(body)}</{end}>"


_HTML = st.lists(
    _TEXT | _ENTITY | _start_tag() | _raw_text()
    | _TAG.map(lambda tag: f"</{tag}>")
    | st.sampled_from(["< ", "<9", "<!-- note -->", "<!DOCTYPE html>", "<?xml version='1.0'?>",
                       "<title>Form 10-K</title>"]),
    max_size=25,
).map("".join)


# The start-tag locator that ``parsing._start_tag``'s walk replaced. Every part
# after the tag name is optional, so this match never fails and never
# backtracks: whether the tag is whole is decided by the character after the
# match. A pattern that must also reach ">" after the attribute run backtracks
# exponentially in the attribute count on an unterminated tag.
REFERENCE_START_TAG = re.compile(r"""
  <([a-zA-Z][^\t\n\r\f />\x00]*)     # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)


def reference_start_tag(raw: str, i: int) -> int:
    """What ``_start_tag`` returns for the tag at ``raw[i]``, found by one match
    of ``REFERENCE_START_TAG`` from ``i``: the tag's end, -1 for no tag, or the
    end of the text sent instead. It reads to the end of an unterminated tag
    from every "<" inside it, so it is quadratic where the walk is not."""
    j = REFERENCE_START_TAG.match(raw, i).end()
    after = raw[j:j + 1]
    if after == ">":
        return j + 1
    if raw.startswith("/>", j):
        return j + 2
    if after in ("", "/", "=") or after in parsing._LETTERS:
        return -1
    return j


def reference_tokenize(raw: str, sink) -> None:
    """The loop that ``parsing._tokenize``'s one search replaced: a find for
    each "<", then a dispatch on the markup after it, every tag through
    ``_start_tag`` or the end-tag branch."""
    data = sink.handle_data
    i, n = 0, len(raw)
    last_gt = raw.rfind(">")
    ends: dict[int, int] = {}
    missing: dict[re.Pattern, int] = {}
    while i < n:
        j = raw.find("<", i)
        if j < 0:
            j = n
        if i < j:
            data(unescape(raw[i:j]))
        if j == n:
            break
        if j > last_gt:
            parsing._text_tail(raw, j, data)
            break
        i = j
        after = raw[i + 1:i + 2]
        if after in parsing._LETTERS:
            k = parsing._start_tag(raw, i, sink, ends)
        elif after == "/":  # "</>" and "</" before a non-letter send nothing
            match = parsing._END_TAG.match(raw, i) or parsing._TAG_NAME.match(raw, i + 2)
            if match:
                sink.handle_endtag(match.group(1).lower())
            k = raw.find(">", i + 1) + 1
        elif raw.startswith("<!--", i):
            k = parsing._search_end(parsing._COMMENT_END, raw, i + 4, missing)
        elif raw.startswith("<![", i):
            k = parsing._marked_section(raw, i, missing)
        elif after in ("!", "?"):
            k = raw.find(">", i + 2) + 1
        else:
            data("<")
            k = i + 1
        if k < 0:  # an unterminated construct is text through the next ">"
            k = raw.find(">", i + 1) + 1
            data(unescape(raw[i:k]))
        i = k


def _reference_events(html: str) -> list[tuple]:
    sink = _Events()
    reference_tokenize(html, sink)
    return sink.events


# Pieces of unclosed, nested and misquoted constructs. There is no "s", so no
# script or style element starts.
_ADVERSARIAL = st.lists(st.sampled_from([
    "<a", "<B", "<td", "<TH", "<p", "<br", "</", "</a", "<", ">", "/>", "/", "'", '"', "=", " ", "\t",
    "\n", "\x00", "\x0b", "a", "Z", "9", "&amp;", "&#50;", "&", "<!--", "-->", "--!>", "-", "!", "<!",
    "<?", "<![CDATA[", "<![if", "<![endif]>", "<![", "]]>", "]>", "]",
]), max_size=40).map("".join)


class TestTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(_HTML)
    @example('<TD COLSPAN="3">a &amp b</td><br/><script>if (a < b) {}</b></SCRIPT>')
    @example("<p class='x>y'>&#65&lt;</P><th colspan='&#50;'>")
    def test_events_equal_html_parser(self, html):
        assert _events(html) == _stdlib_events(html)

    @pytest.mark.parametrize("html, text", [
        ("<p>text <b class=x", "text <b class=x\n"),
        ("<!-- never closed <p>x", "<!-- never closed <p>x\n"),
        ("<p>a</p><script>var x = 1; <p>hidden", "a\n"),
        ("<p>a <", "a <\n"),
        ("<p>a </b", "a </b\n"),
        ("<p>a &amp", "a &\n"),
        ("<p>a<!-- c --!><p>b", "a<!-- c --!>\n\nb\n"),
        ("<p>a<!---><p>b", "a<!--->\n\nb\n"),
        ("<p>a<!--><p>b", "a<!-->\n\nb\n"),
        ("<p>a</p><script>x</script <p>b", "a\n"),
        ("<p>a</p><![CDATA[x > y]]><p>b", "a\n\nb\n"),
        ("<p>a</p><![if !supportLists]><p>b<![endif]>", "a\n\nb\n"),
        ("<p>a<!DOCTYPE x<p>b", "ab\n"),
        ("<p>a<?pi x<p>b", "ab\n"),
        ("<p>a <b x='>' <p>c", "a c\n"),
        ("<p>a</ b>c</>d", "acd\n"),
        ("<p>x</p><title>t<p>y</title><p>z", "x\n\nz\n"),
        ("x<a&amp;\x00y&amp;", "x<a&amp;\x00y&\n"),
        ("x<a&amp;\x00y&amp;<p>z", "x<a&amp;\x00y&\n\nz\n"),
        ("<p>a<td colspan='2'/>b<br/>c<br x=y/>d", "ab\nc\nd\n"),
        ("<p>a<![x]>b", "ab\n"),  # html.parser raises AssertionError here
    ])
    def test_pinned_text(self, html, text):
        """End of input, comments and declarations, as html.parser gave them in CPython 3.11.7."""
        assert parse_text(html).full_text == text

    @pytest.mark.parametrize("html", [
        "<a" + " b=c" * 10_000,
        "<a" + " b='x'  " * 10_000,
        "<a b" * 16_000,
    ])
    @pytest.mark.parametrize("closed", [False, True])
    def test_unterminated_tag_parses_in_linear_time(self, html, closed):
        # Unclosed, every "<" is text; with a ">" after it, the whole run is
        # one start tag. A pattern that backtracks over the attribute run
        # takes seconds at a dozen attributes.
        started = time.perf_counter()
        parsed = parse_text(html + "<p>end</p>" if closed else html)
        assert time.perf_counter() - started < 2.0
        assert parsed.full_text == ("end\n" if closed else " ".join(html.split()) + "\n")

    @settings(max_examples=400, deadline=None)
    @given(_ADVERSARIAL)
    @example("<p>x" + "<a b='>' " * 3)
    @example("<a b='x' c=\"y\"<td d=1 /")
    def test_start_tag_equals_reference(self, raw):
        """One walk per tag, run at every tag start in order with one shared
        ``ends``, finds the ends that the whole-tag pattern finds."""
        ends: dict[int, int] = {}
        for match in re.finditer("<[a-zA-Z]", raw):
            i = match.start()
            assert parsing._start_tag(raw, i, _Events(), ends) == reference_start_tag(raw, i)

    @pytest.mark.skipif(sys.version_info[:3] != (3, 11, 7),
                        reason="later CPython releases end a document differently")
    @settings(max_examples=400, deadline=None)
    @given(_ADVERSARIAL)
    def test_events_equal_html_parser_on_unclosed_constructs(self, raw):
        try:
            expected = _stdlib_events(raw)
        except AssertionError:  # html.parser's "<![x]>"
            assume(False)
        assert _events(raw) == expected


_HEADINGS = [f"Item {number}. Heading" for _, number in parsing._ITEM_SEQ]
_PROSE = st.text(alphabet=st.sampled_from("ab Z9.,$()é—\n\t&;"), max_size=120)


@st.composite
def _filing_html(draw) -> str:
    """A fixture filing, or one assembled from filingfab's parts with random items."""
    kind = draw(st.sampled_from(["avy", "apple", "adobe", "assembled"]))
    if kind == "avy":
        return filingfab.avy_10k_html(draw(st.sampled_from(sorted(paperdata.AVY_TABLE3))))
    if kind != "assembled":
        return getattr(filingfab, f"{kind}_10k_html")()
    parts = []
    if draw(st.booleans()):
        parts.append(filingfab._front_matter(draw(_PROSE), "December 31, 2020", "1-1"))
    if draw(st.booleans()):  # a table of contents ahead of the real headings
        parts += [f"<p>{heading}</p>" for heading in _HEADINGS[:6]]
    for heading in draw(st.lists(st.sampled_from(_HEADINGS), max_size=8)):
        parts.append(f"<p>{heading}</p>")
        parts += [f"<p>{text}</p>" for text in draw(st.lists(_PROSE, max_size=3))]
        if draw(st.booleans()):
            rows = draw(st.lists(st.tuples(_PROSE, st.integers(-10**6, 10**9)),
                                 min_size=1, max_size=4))
            parts.append(filingfab._segment_table(rows, draw(_PROSE)))
    parts.append(f"<p>{draw(_PROSE)}x</p>")  # never an empty document
    return "".join(parts)


# Tags without attributes, which ``_tokenize`` sends from its one search, next
# to the near misses that must still take the full path.
_PLAIN_TAGS = st.lists(
    _TEXT | _ENTITY | st.sampled_from([
        "<td>", "<TD>", "<Td>", "</td>", "</TD>", "<th>", "</th>", "<tr>", "</tr>", "<p>", "<P>",
        "</p>", "<h2>", "<H2>", "</h2>", "<table>", "</TABLE>", "<div>", "</div>", "<br>", "<br/>",
        "</br>", "<caption>", "</caption>", "<b1x9>", "</TR >", "</ td>", "<td >", "<<td>",
        "<td colspan=2>", "<Script>", "<STYLE>", "</script>", "</Style>", "<title>", "</title>",
        "<ix:nonFraction>", "</ix:nonFraction>", "<a-b>", "</a-b>", "&amp;<td>", "&nbsp</td>",
        "<", "</", ">", "<9>", "<>", "</>", "<!-- c -->", "<td", "</td",
    ]),
    max_size=30,
).map("".join)


def _styled(html: str) -> str:
    """``html`` with a style on every plain start tag, so each takes the full path."""
    return re.sub(r"<([a-zA-Z][a-zA-Z0-9]*)>", r'<\1 style="margin:0">', html)


class TestTokenizerReference:
    """``_tokenize`` sends the events of ``reference_tokenize``, data merged."""

    @settings(max_examples=300, deadline=None)
    @given(_HTML | _ADVERSARIAL)
    def test_strategies_equal_reference(self, html):
        assert _events(html) == _reference_events(html)

    @settings(max_examples=400, deadline=None)
    @given(_PLAIN_TAGS)
    @example("<TD>a</TR ><h2>&amp;<td>b&nbsp</td></ td><br/><<td>x<td")
    @example("<Script>a<td>b</td></script><STYLE>c</style><title>t</title>d")
    @example("<ix:nonFraction>1</ix:nonFraction><a-b>c</a-b> tail &amp; <p")
    def test_plain_tags_equal_reference(self, html):
        assert _events(html) == _reference_events(html)

    @pytest.mark.parametrize("styled", [False, True], ids=["plain", "styled"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_equal_reference(self, name, styled):
        html = _styled(_fixture_html(name)) if styled else _fixture_html(name)
        assert _events(html) == _reference_events(html)

    @settings(max_examples=30, deadline=None)
    @given(_filing_html(), st.booleans())
    def test_filings_equal_reference(self, html, styled):
        html = _styled(html) if styled else html
        assert _events(html) == _reference_events(html)


class TestSectionPartitionProperty:
    @settings(max_examples=150, deadline=None)
    @given(_filing_html())
    def test_sections_partition_the_text_exactly(self, html):
        parsed = parse_text(html)
        restored = from_json(dump_json(parsed))
        assert restored == parsed
        for filing in (parsed, restored):
            full_text = filing.full_text
            assert filing.front_matter.start == 0
            cursor = 0
            for section in filing.sections():
                assert section.start == cursor
                assert section.text == full_text[section.start:section.end]
                cursor = section.end
            assert cursor == filing.char_count == len(full_text)
        assert list(restored.items) == list(parsed.items)


# The original signal patterns, matched under IGNORECASE on the raw text. Kept
# here, not read from ``parsing._SIGNALS``, which matches case-folded text.
_REFERENCE_SIGNALS = [
    (re.compile(r"reportable\s+segments?", re.IGNORECASE), 2.0),
    (re.compile(r"operating\s+segments?", re.IGNORECASE), 1.5),
    (re.compile(r"segment\s+information", re.IGNORECASE), 1.5),
    (re.compile(r"segment\s+reporting", re.IGNORECASE), 1.5),
    (re.compile(r"(?:asc|topic)\s*280", re.IGNORECASE), 2.0),
    (re.compile(r"sfas\s*(?:no\.?\s*)?131", re.IGNORECASE), 1.5),
    (re.compile(r"segments?", re.IGNORECASE), 0.25),
]


def reference_signal_hits(text: str) -> list[tuple[int, int, float]]:
    """The original pairwise scan: each match is tested against every accepted one.

    Quadratic in hits per section and case-insensitive by regex flag, but
    obviously right; it is the oracle for the folded sorted sweep in
    ``parsing._signal_hits``.
    """
    taken: list[tuple[int, int, float]] = []
    covered: list[tuple[int, int]] = []
    for pattern, weight in _REFERENCE_SIGNALS:
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
                 "segmentsegment", "the", "x", "k"]
_GAPS = ["", " ", "  ", "\n", "\t ", "\n\n", ", ", "\xa0", "\u2003", "\u2028"]
# Non-ASCII letters that re.IGNORECASE matches to an ASCII one: İ and ı for
# "i", ſ for "s" and the Kelvin sign for "k".
_CASE_VARIANTS = {"i": "İı", "s": "ſ", "k": "\u212a"}


@st.composite
def _signal_text(draw) -> str:
    words = draw(st.lists(st.sampled_from(_SIGNAL_WORDS), max_size=40))
    out = []
    for word in words:
        out.extend(draw(st.sampled_from([c, c.upper(), *_CASE_VARIANTS.get(c, "")]))
                   for c in word)
        out.append(draw(st.sampled_from(_GAPS)))
    return "".join(out)


class TestSignalSweep:
    @settings(max_examples=300, deadline=None)
    @given(_signal_text())
    @example("reportable segmentsegment information ASC 280 segments")
    @example("Operating  Segments\nsegment reporting TOPIC280 sfas No. 131 sfas131")
    @example("")
    @example("segment İnformatıon İNFORMATION reportable segments")
    @example("ſegment reporting SFAS No. 131 ASC 280 Segmentſ")
    @example("\u212a segments kreportable segments")
    @example("sfas\xa0no.\xa0131 asc\u2003280 topic\u2028280 operating\u2028segments")
    def test_equals_reference(self, text):
        assert parsing._signal_hits(text) == reference_signal_hits(text)

    def test_fold_matches_ignorecase_on_every_code_point(self):
        """Each character class of the signal patterns matches a code point
        under IGNORECASE exactly where it matches that point's case fold."""
        raw = "".join(map(chr, range(0x110000)))
        folded = parsing._fold_case(raw)
        assert len(folded) == len(raw)
        classes = {re.escape(c) for pattern, _ in _REFERENCE_SIGNALS
                   for c in pattern.pattern if c.isalnum()} | {r"\.", r"\s"}
        for cls in sorted(classes):
            expected = [m.start() for m in re.finditer(cls, raw, re.IGNORECASE)]
            assert [m.start() for m in re.finditer(cls, folded)] == expected, cls

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
        rebuilt = build_index(filings)
        assert rebuilt.chunks == index.chunks
        assert rebuilt.doc_freq == index.doc_freq
        assert [rebuilt.terms(i) for i in range(len(rebuilt))] == \
            [index.terms(i) for i in range(len(index))]


def reference_ascending_chain(candidates: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """The original O(n²) longest catalog-ascending subsequence, earliest offsets first.

    Each candidate extends the first of the longest chains before it whose
    last item precedes it in the catalog; the chain ends at the first
    candidate of greatest length. It is the oracle for ``parsing._ascending_chain``.
    """
    n = len(candidates)
    if n == 0:
        return []
    positions = [parsing._CATALOG_POS[number] for number, _ in candidates]
    best = [1] * n
    prev = [-1] * n
    for i in range(n):
        for j in range(i):
            if positions[j] < positions[i] and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
                prev[i] = j
    target = max(best)
    end = min(i for i in range(n) if best[i] == target)
    chain = []
    while end != -1:
        chain.append(candidates[end])
        end = prev[end]
    return chain[::-1]


def reference_drop_toc_cluster(candidates: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """The original scan: each packed group looks for its numbers among all later headings.

    The oracle for ``parsing._drop_toc_cluster``, which walks the groups
    backwards instead.
    """
    if len(candidates) < parsing._TOC_MIN_ENTRIES:
        return candidates
    groups: list[list[int]] = [[0]]
    for i in range(1, len(candidates)):
        if candidates[i][1] - candidates[i - 1][1] <= parsing._TOC_GAP:
            groups[-1].append(i)
        else:
            groups.append([i])
    drop: set[int] = set()
    for group in groups:
        if len(group) < parsing._TOC_MIN_ENTRIES:
            continue
        numbers = {candidates[i][0] for i in group}
        last = max(candidates[i][1] for i in group)
        seen_later = {n for n, off in candidates if off > last and n in numbers}
        if len(seen_later) * 2 >= len(numbers):
            drop.update(group)
    return [c for i, c in enumerate(candidates) if i not in drop]


_NUMBERS = [number for _, number in parsing._ITEM_SEQ]


@st.composite
def _heading_candidates(draw) -> list[tuple[str, int]]:
    """Heading candidates in document order, drawn from a few items so that
    repeats, out-of-order mentions and equally long chains are common, with
    gaps around the table-of-contents spacing."""
    numbers = draw(st.lists(st.sampled_from(_NUMBERS), min_size=1, max_size=8, unique=True))
    items = draw(st.lists(st.sampled_from(numbers), max_size=60))
    gaps = draw(st.lists(st.sampled_from([1, 40, 299, 300, 301, 2000]),
                         min_size=len(items), max_size=len(items)))
    offsets = [sum(gaps[:i + 1]) for i in range(len(items))]
    return list(zip(items, offsets))


class TestHeadingScans:
    @settings(max_examples=200, deadline=None)
    @given(_heading_candidates())
    @example([])
    @example([("7", 1), ("7", 2), ("8", 3)])  # a repeat: the first one anchors
    @example([("8", 1), ("1", 2), ("7", 3), ("1A", 4)])  # ties: the earliest chain wins
    @example([("1", 1), ("9", 2), ("7", 3), ("8", 4), ("2", 5)])  # stray mentions
    def test_ascending_chain_equals_reference(self, candidates):
        assert parsing._ascending_chain(candidates) == reference_ascending_chain(candidates)

    @settings(max_examples=200, deadline=None)
    @given(_heading_candidates())
    @example([(n, i) for i, n in enumerate(["1", "1A", "7", "8", "9"] * 2)])
    def test_drop_toc_cluster_equals_reference(self, candidates):
        assert parsing._drop_toc_cluster(candidates) == reference_drop_toc_cluster(candidates)


_PAGE = "<p>{}</p><p>" + "Liquidity and capital resources are discussed by quarter. " * 6 + "</p>"


class TestLinearGrowth:
    """Parsing time grows with the filing, not with the square of its headings or signals."""

    @pytest.mark.parametrize("page", [
        # A running page header repeats one heading on every page.
        lambda i: _PAGE.format("Item 7. Management's Discussion and Analysis"),
        # Packed runs of headings, each like a table of contents.
        lambda i: _PAGE.format("</p><p>".join(f"Item {n}. Title" for n in ("1", "1A", "2", "3", "7"))),
    ], ids=["page_headers", "packed_headings"])
    def test_headings(self, page):
        text = "<p>Item 1. Business</p><p>Overview.</p>"
        assert growth(lambda n: text + "".join(page(i) for i in range(n)), parse_text) < 20

    def test_signals(self):
        phrase = "Our reportable segments follow ASC 280; see segment information. "
        assert growth(lambda n: phrase * n, parsing._signal_hits) < 20

    @pytest.mark.parametrize("head, unit, media_kind", [
        ("<p>x", "<a b='>' ", "html"),
        ("<p>x", "<!-- a> ", "html"),
        ("<p>x", "<![CDATA[ a> ", "html"),
        ("ITEM 1. BUSINESS\n", "a < b\n", "sgml_text"),
    ], ids=["start_tag", "comment", "marked_section", "sgml_text"])
    def test_unterminated_constructs(self, head, unit, media_kind):
        """Each "<" opens a construct that never ends: each is searched once."""
        assert growth(lambda n: head + unit * n, lambda raw: parse_text(raw, media_kind)) < 20


_TABLE = "<table><tr><td>Revenue</td><td>12</td></tr></table>"
_CAPTIONED = "<table><caption>Revenue by segment</caption><tr><td>Revenue</td><td>12</td></tr></table>"


class TestTableContext:
    """A table's caption and scale come from its caption element, else from the
    text before it: the caption from the last non-empty line in the 400
    characters before the table, the scale from the 500 characters before the
    paragraph break that precedes the table."""

    def test_caption_element_scale_wins_over_the_text_before(self):
        html = ("<p>All amounts in millions.</p>"
                "<table><caption>Revenue in thousands</caption><tr><td>A</td><td>1</td></tr></table>")
        table = parse_text(html).tables[0]
        assert (table.caption_text, table.scale) == ("Revenue in thousands", Scale.THOUSANDS)

    def test_scale_from_the_text_before_the_caption_line(self):
        html = f"<p>Dollars in billions.</p><p>{'Narrative. ' * 20}</p>{_CAPTIONED}"
        table = parse_text(html).tables[0]
        assert (table.caption_text, table.scale, table.scale_assumed) == (
            "Revenue by segment", Scale.BILLIONS, False)

    @pytest.mark.parametrize("before, scale", [
        ("y" * 600 + " in millions", Scale.MILLIONS),  # the hint ends at the break
        (("in millions " + "y" * 500)[:500], Scale.MILLIONS),  # it starts 500 characters back
        (("in millions " + "y" * 500)[:501], Scale.UNITS),  # it starts 501 characters back
    ], ids=["ends_at_break", "starts_500_back", "starts_501_back"])
    def test_scale_window_edges(self, before, scale):
        parsed = parse_text(f"<p>{before}</p>{_CAPTIONED}")
        table = parsed.tables[0]
        assert parsed.full_text[:table.char_start] == before + "\n\n"
        assert (table.scale, table.scale_assumed) == (scale, scale is Scale.UNITS)

    @pytest.mark.parametrize("html, caption", [
        ("<p>Intro.</p><p>Amounts by region</p>", "Amounts by region"),
        ("<p>Intro.</p><p>Amounts by region<br>  </p>", "Amounts by region"),
        (f"<p>Title</p><p>{'x' * 450}</p>", "x" * 398),  # the line runs past the window
        ("", ""),
    ], ids=["last_line", "blank_line_skipped", "window_of_400", "table_first"])
    def test_missing_caption_is_the_last_line_before_the_table(self, html, caption):
        assert parse_text(html + _TABLE).tables[0].caption_text == caption

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["in", "millions", "thousands", "x" * 37, "y", "<br>"]),
                             max_size=30).map(" ".join), max_size=6),
           st.booleans())
    def test_context_is_the_text_before_the_table(self, paragraphs, captioned):
        """The caption and scale equal those read from the parsed text of the
        HTML before the table alone, the table's paragraph break added."""
        before = "".join(f"<p>{p}</p>" for p in paragraphs)
        table = parse_text(before + (_CAPTIONED if captioned else _TABLE) + "<p>end</p>").tables[0]
        try:
            text = parse_text(before).full_text[:-1] + "\n\n"
        except EmptyDocumentError:
            text = ""
        lines = [line.strip() for line in text[-400:].splitlines() if line.strip()]
        caption = "Revenue by segment" if captioned else (lines[-1] if lines else "")
        hint = parsing._SCALE_HINT_RE.search(caption) or parsing._SCALE_HINT_RE.search(text[:-2][-500:])
        assert table.caption_text == caption
        assert table.scale == (Scale(hint.group(1).lower()) if hint else Scale.UNITS)
