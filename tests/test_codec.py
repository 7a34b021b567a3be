"""The one JSON codec for persisted records: ``values.encode`` and ``values.load``.

The hand-written encoders it replaced are kept here as reference oracles:
the codec must write the same bytes for bundles and index chunks, and
``load`` must give back an equal record. A malformed record of any kind,
also one with a single value of the wrong JSON type, must raise
SchemaError from its loader.
"""

from __future__ import annotations

import json
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filingfab
from segforge.edgar import CachedDocument, FilingRef
from segforge.errors import SchemaError
from segforge.extraction import (
    AXES,
    MULTI_SEGMENT,
    SINGLE_UNIT,
    ExtractionBundle,
    SegmentationClass,
    SegmentRecord,
    bundle_from_json,
)
from segforge.parsing import ParsedFiling, dump_json, parse_text
from segforge.retrieval import Chunk, ChunkIndex, Partition, load_index, save_index
from segforge.templates import GENERAL_FIELD_NAMES
from segforge.values import Money, Scale, encode, load


def reference_money_dict(money: Money) -> dict:
    return {"value": str(money.value), "scale": money.scale.value,
            "scale_explicit": money.scale_explicit}


def reference_record_dict(record: SegmentRecord) -> dict:
    return {
        "name": record.name,
        "axis": record.axis,
        "measures": {k: reference_money_dict(v) for k, v in sorted(record.measures.items())},
        "parent_name": record.parent_name,
        "provenance": record.provenance,
    }


def reference_bundle_to_json(bundle: ExtractionBundle) -> dict:
    """The bundle encoder written out by hand, field by field."""
    return {
        "cik": bundle.cik,
        "fiscal_year": bundle.fiscal_year,
        "template_version": bundle.template_version,
        "classification": {
            "kind": bundle.classification.kind,
            "raw_response": bundle.classification.raw_response,
        },
        "general_fields": dict(sorted(bundle.general_fields.items())),
        "reportable": [reference_record_dict(r) for r in bundle.reportable],
        "nested": [reference_record_dict(r) for r in bundle.nested],
        "warnings": bundle.warnings,
    }


def reference_chunk_dict(chunk: Chunk) -> dict:
    """The index chunk-table row written out by hand."""
    return {
        "chunk_id": chunk.chunk_id,
        "cik": chunk.cik,
        "fiscal_year": chunk.fiscal_year,
        "item": chunk.item,
        "char_range": list(chunk.char_range),
        "text": chunk.text,
        "is_segment_region": chunk.is_segment_region,
    }


def both_layouts(payload, default=None) -> list[str]:
    """A bundle file's layout (indent 2) and a panel row's (one line), both key-sorted."""
    return [json.dumps(payload, default=default, indent=2, sort_keys=True),
            json.dumps(payload, default=default, sort_keys=True)]


# Names mix ASCII, accents, CJK and punctuation; a name must not be blank.
_TEXT = st.text(alphabet=st.sampled_from("aZ 9-&é中€/\"\\\n"), max_size=12)
_NAME = _TEXT.filter(lambda name: name.strip())
_MONEY = st.builds(
    Money,
    value=st.decimals(allow_nan=False, allow_infinity=False),
    scale=st.sampled_from(list(Scale)),
    scale_explicit=st.booleans(),
)
_MEASURES = st.dictionaries(st.sampled_from(["revenue", "profit_or_loss", "assets", "ébitda"]),
                            _MONEY, max_size=3)


def _record(draw, parent_name: str | None) -> SegmentRecord:
    return SegmentRecord(name=draw(_NAME), axis=draw(st.sampled_from(sorted(AXES))),
                         measures=draw(_MEASURES), parent_name=parent_name,
                         provenance=draw(st.lists(_TEXT, max_size=3)))


@st.composite
def bundles(draw) -> ExtractionBundle:
    multi = draw(st.booleans())
    bundle = ExtractionBundle(
        cik=draw(st.integers(1, 10**10)),
        fiscal_year=draw(st.integers(1993, 2026)),
        classification=SegmentationClass(kind=MULTI_SEGMENT if multi else SINGLE_UNIT,
                                         raw_response=draw(_TEXT)),
        general_fields={name: draw(_TEXT) for name in GENERAL_FIELD_NAMES},
        warnings=draw(st.lists(_TEXT, max_size=3)),
    )
    if multi:
        bundle.reportable = [_record(draw, None) for _ in range(draw(st.integers(0, 4)))]
        if bundle.reportable:
            parents = st.sampled_from([r.name for r in bundle.reportable])
            bundle.nested = [_record(draw, draw(parents)) for _ in range(draw(st.integers(0, 4)))]
    return bundle


@st.composite
def chunks(draw) -> list[Chunk]:
    """Up to three filings' chunks as an index holds them: each filing's
    chunks together, each id naming its filing and its position there."""
    filings = draw(st.lists(st.tuples(st.integers(1, 10**10), st.integers(1993, 2026)),
                            unique=True, max_size=3))
    return [Chunk(chunk_id=f"{cik}_{year}_{seq:04d}", cik=cik, fiscal_year=year,
                  item=draw(_TEXT),
                  char_range=draw(st.tuples(st.integers(0, 10**7), st.integers(0, 10**7))),
                  text=draw(_TEXT), is_segment_region=draw(st.booleans()))
            for cik, year in filings for seq in range(draw(st.integers(1, 3)))]


class TestReferenceOracle:
    @settings(max_examples=200, deadline=None)
    @given(bundles())
    def test_bundle_bytes_equal_reference(self, bundle):
        codec = both_layouts(bundle, default=encode)
        assert codec == both_layouts(reference_bundle_to_json(bundle))
        for text in codec:
            assert bundle_from_json(json.loads(text)) == bundle

    @settings(max_examples=100, deadline=None)
    @given(chunks())
    def test_chunk_table_bytes_equal_reference(self, chunk_list):
        """Each filing's chunk file is the compact reference layout of its chunks."""
        by_filing: dict[tuple[int, int], list[Chunk]] = {}
        for chunk in chunk_list:
            by_filing.setdefault(chunk.source, []).append(chunk)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(ChunkIndex(chunks=chunk_list, doc_freq={}), tmp)
            assert sorted(p.name for p in Path(tmp).glob("*.chunks.json")) == \
                sorted(f"{cik}_{year}.chunks.json" for cik, year in by_filing)
            for (cik, year), group in by_filing.items():
                written = (Path(tmp) / f"{cik}_{year}.chunks.json").read_text(encoding="utf-8")
                assert written == json.dumps([reference_chunk_dict(c) for c in group])
                assert load(list[Chunk], json.loads(written)) == group
            assert load_index(tmp).chunks == chunk_list

    def test_fixture_bundles_equal_reference(self):
        for bundle in (filingfab.intc_bundle(2012), filingfab.txn_bundle(2016)):
            assert both_layouts(bundle, default=encode) == \
                both_layouts(reference_bundle_to_json(bundle))


def _bundle_json() -> dict:
    return json.loads(json.dumps(filingfab.intc_bundle(2012), default=encode))


def _parsed_json() -> dict:
    html = "<p>Cover page.</p><p>Item 1. Business</p><p>We sell widgets.</p>" \
           "<table><caption>Revenue (in millions)</caption><tr><th>Segment</th><th>2024</th>" \
           "</tr><tr><td>Americas</td><td>1,200</td></tr></table>" \
           "<p>Item 7. Management's Discussion</p><p>Sales grew.</p>"
    ref = FilingRef(cik=320193, fiscal_year=2024, accession_number="0000320193-24-000123",
                    document_url="fixture", primary_document="doc.htm")
    return json.loads(dump_json(parse_text(html, ref=ref)))


def _set(path: list, value):
    def corrupt(data: dict) -> None:
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return corrupt


def _drop(path: list):
    def corrupt(data: dict) -> None:
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return corrupt


def _load_parsed(data: dict):
    return load(ParsedFiling, data)


@pytest.mark.parametrize("make, decode, corrupt", [
    (_bundle_json, bundle_from_json,
     _set(["reportable", 0, "measures", "revenue", "value"], "12 bananas")),
    (_bundle_json, bundle_from_json, _set(["reportable", 0, "measures", "revenue", "value"], None)),
    (_bundle_json, bundle_from_json, _set(["reportable", 0, "measures", "revenue", "scale"], "zillions")),
    (_bundle_json, bundle_from_json, _set(["reportable", 0, "axis"], "sideways")),
    (_bundle_json, bundle_from_json, _set(["classification", "kind"], "mystery")),
    (_bundle_json, bundle_from_json, _drop(["reportable", 0, "axis"])),
    (_bundle_json, bundle_from_json, _drop(["template_version"])),
    (_bundle_json, bundle_from_json, _set(["reportable", 0, "cik"], 50863)),
    (_bundle_json, bundle_from_json, _set(["reportable"], "Asia")),
    (_bundle_json, bundle_from_json, _set(["nested"], [{"name": "orphan", "axis": "other",
                                                     "measures": {}, "parent_name": "gone",
                                                     "provenance": []}])),
    (_parsed_json, _load_parsed, _set(["items", "1", "item", "number"], "17")),
    (_parsed_json, _load_parsed, _set(["items", "7", "item", "part"], "I")),
    (_parsed_json, _load_parsed, _set(["ref", "accession_number"], "not-an-accession")),
    (_parsed_json, _load_parsed, _set(["tables"], [{"table_id": "t000"}])),
    (_parsed_json, _load_parsed, _drop(["front_matter", "end"])),
    (_parsed_json, _load_parsed, _set(["ref", "fetched_at"], "2024-01-01T00:00:00")),
], ids=["amount", "null_amount", "scale", "axis", "kind", "missing_axis", "missing_version",
        "unexpected_key", "list_as_text", "orphan", "item_number", "item_part", "accession",
        "table_missing_keys", "section_missing_end", "ref_unexpected_key"])
def test_malformed_record_raises_schema_error(make, decode, corrupt):
    data = make()
    decode(data)  # the untouched record loads
    corrupt(data)
    with pytest.raises(SchemaError):
        decode(data)


def test_load_takes_containers_and_encode_refuses_other_types():
    data = {"value": "1.50", "scale": "millions", "scale_explicit": False}
    assert load(Money, data) == Money(Decimal("1.50"), Scale.MILLIONS, False)
    assert load(dict[str, Money], {"x": data}) == {"x": Money(Decimal("1.50"), Scale.MILLIONS,
                                                              False)}
    assert load(list[int], [1, 2]) == [1, 2]
    with pytest.raises(TypeError):
        json.dumps(Path("x"), default=encode)


# -- one value of another JSON type --------------------------------------------

_JSON_VALUES = [None, True, 7, 2.5, "text", [], {}]  # one of each JSON type


def _leaves(data, path: tuple = ()) -> list[tuple]:
    """The path to every scalar in decoded JSON but null.

    A null is where an optional record is absent, and there a value of its
    own type is as valid, so nulls are not swapped.
    """
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]
    return [] if data is None else [path]


def _swapped(data, path: tuple, value):
    copy = json.loads(json.dumps(data))
    _set(list(path), value)(copy)
    return copy


def _as_json(record) -> dict:
    return json.loads(json.dumps(record, default=encode))


_CACHED_DOCUMENT = {
    "ref": _as_json(FilingRef(cik=320193, fiscal_year=2024,
                              accession_number="0000320193-24-000123",
                              document_url="fixture", primary_document="doc.htm")),
    "content_hash": "ab" * 32, "byte_length": 2048, "media_kind": "html",
    "path": "/cache/320193/doc.htm", "fetched_at": "",
}

# record kind -> (strategy for a valid record as JSON, the loader that reads it)
_RECORDS = {
    "bundle": (bundles().map(_as_json), bundle_from_json),
    "parsed_filing": (st.builds(_parsed_json), lambda data: load(ParsedFiling, data)),
    "chunks": (chunks().filter(bool).map(_as_json), lambda data: load(list[Chunk], data)),
    "partition": (st.builds(Partition, cik=st.integers(1, 10**10),
                            fiscal_year=st.integers(1993, 2026),
                            chunk_count=st.integers(0, 10**4)).map(_as_json),
                  lambda data: load(Partition, data)),
    "cached_document": (st.just(_CACHED_DOCUMENT), lambda data: load(CachedDocument, data)),
    "doc_freq": (st.dictionaries(_TEXT, st.integers(1, 10**6), min_size=1),
                 lambda data: load(dict[str, int], data)),
}


@pytest.mark.parametrize("kind", sorted(_RECORDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_leaf_of_another_json_type_raises_schema_error(kind, data):
    """Never another exception, and never a record."""
    make, decode = _RECORDS[kind]
    record = data.draw(make)
    decode(record)  # the untouched record loads
    path = data.draw(st.sampled_from(_leaves(record)))
    leaf = record
    for key in path:
        leaf = leaf[key]
    value = data.draw(st.sampled_from([v for v in _JSON_VALUES if type(v) is not type(leaf)]))
    with pytest.raises(SchemaError):
        decode(_swapped(record, path, value))
