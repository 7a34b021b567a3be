"""Panel store tests: persistence, revisions, queries, and gap detection.

The gap-report tests compare the store's answer against a brute-force
re-derivation from the same inputs, so the covered/missing split is checked
by construction rather than by hand-picked cases.
"""

from __future__ import annotations

import csv
import gc
import json
import tempfile
import threading
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import filingfab
import paperdata
from segforge.cli import main
from segforge.errors import SchemaError
from segforge.extraction import (
    AXIS_BUSINESS,
    AXIS_GEOGRAPHIC,
    MULTI_SEGMENT,
    SINGLE_UNIT,
    ExtractionBundle,
    SegmentationClass,
    SegmentRecord,
    bundle_from_json,
)
from segforge import store as store_module
from segforge.store import (
    FundamentalsRoster,
    GapReport,
    SegmentStore,
    gap_report_to_json,
)
from segforge.templates import GENERAL_FIELDS
from segforge.values import Money, Scale


def blank_fields() -> dict[str, str]:
    return {spec.field_name: "Not provided" for spec in GENERAL_FIELDS}


def single_unit_bundle(cik: int, year: int) -> ExtractionBundle:
    return ExtractionBundle(
        cik=cik,
        fiscal_year=year,
        classification=SegmentationClass(kind=SINGLE_UNIT, raw_response="No"),
        general_fields=blank_fields(),
    )


def empty_multi_bundle(cik: int, year: int) -> ExtractionBundle:
    """Multi-segment classification whose extraction produced no records."""
    return ExtractionBundle(
        cik=cik,
        fiscal_year=year,
        classification=SegmentationClass(kind=MULTI_SEGMENT, raw_response="Yes"),
        general_fields=blank_fields(),
    )


def brute_force_gaps(store: SegmentStore, roster: FundamentalsRoster) -> set:
    """Roster keys with no bundle, or with one that extracted nothing."""
    missing = set()
    for cik, year in roster.rows:
        bundle = store.get(cik, year)
        if bundle is None:
            missing.add((cik, year))
        elif not bundle.reportable and bundle.classification.kind != SINGLE_UNIT:
            missing.add((cik, year))
    return missing


def gap_keys(report: GapReport) -> set:
    return {(cik, year) for year, ciks in report.missing.items() for cik in ciks}


def panel_revisions(path) -> dict:
    """The highest revision on disk per (cik, fiscal_year)."""
    revisions: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        key = (row["cik"], row["fiscal_year"])
        revisions[key] = max(revisions.get(key, 0), row["revision"])
    return revisions


def write_rows(path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
                    encoding="utf-8")


def geo_panel(path, keys, records: int = 2, warning: str = "") -> None:
    """One filingfab geo bundle per key, with ``records`` regions and an optional warning."""
    store = SegmentStore(path)
    for cik, year in keys:
        bundle = filingfab.geo_bundle(cik, year, f"Firm {cik}", f"F{cik}",
                                      [(f"Region {i}", 100 * i + cik) for i in range(records)],
                                      10_000 + cik)
        bundle.warnings = [warning] if warning else []
        store.put(bundle)


def traced(fn) -> tuple[object, int, int]:
    """fn's result, and the traced memory it kept and its peak, in bytes.

    A full collection first empties the interpreter's free lists, so that
    every object fn makes is traced.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained, peak


class TestPersistence:
    def test_put_get_roundtrip_in_memory(self):
        store = SegmentStore()
        bundle = filingfab.intc_bundle(2012)
        key = store.put(bundle)
        assert key == (paperdata.INTC_CIK, 2012)
        assert store.get(*key) == bundle
        assert store.get(paperdata.INTC_CIK, 1999) is None

    def test_panel_reload_from_disk(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        store = SegmentStore(path)
        for year in (2012, 2013):
            store.put(filingfab.intc_bundle(year))
            store.put(filingfab.txn_bundle(year))
        reloaded = SegmentStore(path)
        assert reloaded.keys() == store.keys()
        assert len(reloaded) == 4
        for key in store.keys():
            assert reloaded.get(*key) == store.get(*key)

    def test_revisions_increment_and_latest_wins(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        store = SegmentStore(path)
        first = single_unit_bundle(55, 2020)
        store.put(first)
        second = single_unit_bundle(55, 2020)
        second.general_fields["conm"] = "Renamed Corp"
        store.put(second)
        assert store.get(55, 2020).general_fields["conm"] == "Renamed Corp"
        # Both rows stay on disk; reload picks the highest revision.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["revision"] for line in lines] == [1, 2]
        reloaded = SegmentStore(path)
        assert reloaded.get(55, 2020).general_fields["conm"] == "Renamed Corp"
        reloaded.put(first)
        assert panel_revisions(path) == {(55, 2020): 3}
        assert SegmentStore(path).get(55, 2020) == first

    def test_put_validates_bundle(self):
        store = SegmentStore()
        bad = single_unit_bundle(55, 2020)
        bad.reportable.append(SegmentRecord(name="X"))
        with pytest.raises(SchemaError):
            store.put(bad)
        assert len(store) == 0

    def test_corrupt_panel_row_rejected(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        store = SegmentStore(path)
        store.put(single_unit_bundle(55, 2020))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(SchemaError, match=r"panel.jsonl:2: bad panel row"):
            SegmentStore(path)

    def test_panel_row_shape(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        SegmentStore(path).put(filingfab.txn_bundle(2014))
        row = json.loads(path.read_text(encoding="utf-8"))
        assert row["cik"] == paperdata.TXN_CIK
        assert row["fiscal_year"] == 2014
        assert row["revision"] == 1
        assert bundle_from_json(row["bundle"]) == filingfab.txn_bundle(2014)


class TestQueries:
    def test_query_segments_sorted_and_filtered(self, geo_store):
        for year in (2014, 2015):
            records = geo_store.query_segments(paperdata.INTC_CIK, year)
            stored = geo_store.get(paperdata.INTC_CIK, year).reportable
            assert records == sorted(stored, key=lambda r: r.name)
        assert geo_store.query_segments(paperdata.INTC_CIK, 1999) == []

    def test_query_segments_axis_filter(self):
        store = SegmentStore()
        bundle = empty_multi_bundle(9, 2020)
        bundle.reportable = [
            SegmentRecord(name="Asia", axis="geographic"),
            SegmentRecord(name="Devices", axis="business"),
        ]
        store.put(bundle)
        assert [r.name for r in store.query_segments(9, 2020, axis="geographic")] == ["Asia"]
        assert [r.name for r in store.query_segments(9, 2020, axis="business")] == ["Devices"]

    def test_query_segments_reportable_before_nested(self):
        store = SegmentStore()
        bundle = empty_multi_bundle(9, 2020)
        parent = SegmentRecord(name="Zeta")
        child = SegmentRecord(name="Alpha unit", axis="other", parent_name="Zeta")
        bundle.reportable = [parent]
        bundle.nested = [child]
        store.put(bundle)
        assert [r.name for r in store.query_segments(9, 2020)] == ["Zeta", "Alpha unit"]

    def test_query_other_firm_is_empty(self, geo_store):
        assert geo_store.query_segments(424242, 2014) == []

    def test_segment_names_by_year(self, avy_store):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK)
        assert [year for year, _ in panel] == sorted(paperdata.AVY_TABLE3)
        for year, names in panel:
            assert names == list(paperdata.AVY_TABLE3[year]), year

    def test_segment_names_by_year_range(self, avy_store):
        panel = avy_store.segment_names_by_year(paperdata.AVY_CIK, years=(2010, 2012))
        assert [year for year, _ in panel] == [2010, 2011, 2012]


class TestGapReport:
    def build_store(self) -> SegmentStore:
        store = SegmentStore()
        for year in (2012, 2013, 2014):
            store.put(filingfab.intc_bundle(year))
        store.put(single_unit_bundle(77, 2012))
        store.put(empty_multi_bundle(88, 2012))
        return store

    def test_matches_brute_force(self):
        store = self.build_store()
        roster = FundamentalsRoster(rows={
            (paperdata.INTC_CIK, 2012),
            (paperdata.INTC_CIK, 2013),
            (paperdata.INTC_CIK, 2015),   # not stored
            (77, 2012),                    # single unit counts as covered
            (88, 2012),                    # empty multi does not
            (99, 2020),                    # never stored
        })
        report = store.gap_report(roster)
        assert gap_keys(report) == brute_force_gaps(store, roster)
        assert gap_keys(report) == {(paperdata.INTC_CIK, 2015), (88, 2012), (99, 2020)}
        assert report.total_missing == 3

    def test_report_is_sorted(self):
        store = SegmentStore()
        roster = FundamentalsRoster(rows={(5, 2002), (3, 2002), (9, 2001)})
        report = store.gap_report(roster)
        assert list(report.missing) == [2001, 2002]
        assert report.missing[2002] == [3, 5]

    def test_extra_stored_years_do_not_appear(self):
        store = self.build_store()
        roster = FundamentalsRoster(rows={(paperdata.INTC_CIK, 2012)})
        report = store.gap_report(roster)
        assert report.total_missing == 0
        assert report.missing == {}

    def test_roster_csv_parsing(self, tmp_path):
        path = filingfab.write_roster(tmp_path / "roster.csv", [(1, 2000), (2, 2001)])
        roster = FundamentalsRoster.from_csv(path)
        assert roster.rows == {(1, 2000), (2, 2001)}

    def test_roster_csv_requires_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("company,year\nIntel,2012\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            FundamentalsRoster.from_csv(path)

    def test_gap_report_json_shape(self):
        report = GapReport(missing={2017: [1506307]}, total_missing=1)
        assert gap_report_to_json(report) == {
            "missing": {"2017": [1506307]},
            "total_missing": 1,
        }


class TestExportCsv:
    def test_export_shape_and_content(self, tmp_path):
        store = SegmentStore()
        store.put(filingfab.intc_bundle(2012))
        bundle = empty_multi_bundle(9, 2020)
        bundle.reportable = [SegmentRecord(name="NoMoney")]
        store.put(bundle)
        path = store.export_csv(tmp_path / "panel.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        header = ["cik", "fiscal_year", "name", "axis", "parent_name",
                  "measure_kind", "value", "scale"]
        assert list(rows[0]) == header
        by_name = {row["name"]: row for row in rows}
        singapore = by_name["Singapore"]
        assert singapore["cik"] == str(paperdata.INTC_CIK)
        assert singapore["measure_kind"] == "revenue"
        assert singapore["value"] == str(dict(paperdata.INTC_ASIA[2012])["Singapore"])
        assert singapore["scale"] == "millions"
        assert by_name["NoMoney"]["measure_kind"] == ""
        assert by_name["NoMoney"]["value"] == ""

    def test_export_orders_by_key(self, tmp_path):
        store = SegmentStore()
        store.put(filingfab.txn_bundle(2013))
        store.put(filingfab.intc_bundle(2012))
        path = store.export_csv(tmp_path / "panel.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            ciks = [int(row["cik"]) for row in csv.DictReader(fh)]
        assert ciks == sorted(ciks)

    def test_export_keeps_no_decoded_bundle(self, tmp_path):
        """Export streams: its traced peak is under half of what decoding and
        holding every bundle takes."""
        path = tmp_path / "panel.jsonl"
        writer = SegmentStore(path)
        for cik in range(1, 301):
            writer.put(filingfab.geo_bundle(
                cik, 2020, f"Firm {cik}", f"F{cik}",
                [(f"Region {i}", 100 * i + cik) for i in range(1, 5)], 10_000 + cik))

        def traced_peak(read) -> int:
            store = SegmentStore(path)
            kept, _, peak = traced(lambda: read(store))
            assert kept
            return peak

        export_peak = traced_peak(lambda store: store.export_csv(tmp_path / "out.csv"))
        hold_peak = traced_peak(lambda store: [store.get(*key) for key in store.keys()])
        assert export_peak < hold_peak / 2, (export_peak, hold_peak)

    def test_export_and_gaps_read_rows_without_the_lock(self, tmp_path, monkeypatch):
        """export_csv and gap_report take their keys under the lock, then read,
        decode and write with it released, so a put meanwhile is not held up."""
        path = tmp_path / "panel.jsonl"
        SegmentStore(path).put(filingfab.intc_bundle(2012))
        store = SegmentStore(path)
        held = []
        decode, row_bundle = store._decode, store._row_bundle
        monkeypatch.setattr(store, "_decode", lambda *a: held.append(store._lock.locked()) or decode(*a))
        monkeypatch.setattr(store, "_row_bundle",
                            lambda *a: held.append(store._lock.locked()) or row_bundle(*a))
        store.export_csv(tmp_path / "out.csv")
        store.gap_report(FundamentalsRoster(rows={(paperdata.INTC_CIK, 2012)}))
        assert held and not any(held), held


class TestDecodeOnRead:
    """Open checks each line's row form; a row's shape is checked, and its bundle
    decoded and validated, when its key is first read."""

    def orphan_panel(self, path) -> tuple[int, int]:
        """A panel with one good bundle and one whose nested record is an orphan."""
        store = SegmentStore(path)
        store.put(filingfab.intc_bundle(2012))
        bad = filingfab.txn_bundle(2013)
        store.put(bad)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[1]["bundle"]["nested"] = [{"name": "orphan", "axis": AXIS_BUSINESS,
                                        "measures": {}, "parent_name": "gone",
                                        "provenance": []}]
        write_rows(path, rows)
        return bad.key

    def test_invalid_bundle_raises_when_read(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        bad_key = self.orphan_panel(path)
        store = SegmentStore(path)  # the row's shape is fine, so open succeeds
        assert store.get(paperdata.INTC_CIK, 2012) == filingfab.intc_bundle(2012)
        with pytest.raises(SchemaError, match="orphan"):
            store.get(*bad_key)
        with pytest.raises(SchemaError):
            store.query_segments(*bad_key)
        with pytest.raises(SchemaError):
            store.segment_names_by_year(bad_key[0])
        with pytest.raises(SchemaError):
            store.export_csv(tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()
        # Other firms' queries never decode the bad bundle.
        assert store.segment_names_by_year(paperdata.INTC_CIK)[0][0] == 2012

    @pytest.mark.parametrize("field, value", [("axis", "sideways"), ("measures", {"revenue": {
        "value": "12 bananas", "scale": "millions"}})], ids=["axis", "amount"])
    def test_undecodable_bundle_raises_schema_error_when_read(self, tmp_path, field, value):
        path = tmp_path / "panel.jsonl"
        SegmentStore(path).put(filingfab.intc_bundle(2012))
        row = json.loads(path.read_text(encoding="utf-8"))
        row["bundle"]["reportable"][0][field] = value
        write_rows(path, [row])
        store = SegmentStore(path)
        with pytest.raises(SchemaError, match=r"panel.jsonl:1: bad panel row"):
            store.get(paperdata.INTC_CIK, 2012)

    def test_cli_export_of_invalid_bundle_exits_1(self, capsys, config_path, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        self.orphan_panel(run_dir / "panel.jsonl")
        code = main(["export", "--config", str(config_path), "--run-dir", str(run_dir)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.err)["error"] == "SchemaError"
        assert not (run_dir / "segments.csv").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda row: row.update(cik=row["cik"] + 1),
        lambda row: row.update(fiscal_year=row["fiscal_year"] - 1),
        lambda row: row["bundle"].update(reportable="Asia"),
        lambda row: row["bundle"]["classification"].update(kind=None),
        lambda row: row["bundle"].pop("classification"),
        lambda row: row.pop("revision"),
    ], ids=["cik", "fiscal_year", "reportable", "kind", "no_classification", "no_revision"])
    def test_bad_row_shape_raises_at_open(self, tmp_path, corrupt):
        """A bad row raises SchemaError naming its line when its key is read.

        Only a line that is not a row as ``put`` writes it (here: one with
        no revision) raises at open; another firm's queries never read a
        row with a bad shape, so they still answer.
        """
        path = tmp_path / "panel.jsonl"
        store = SegmentStore(path)
        store.put(filingfab.intc_bundle(2012))
        store.put(filingfab.txn_bundle(2013))
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        corrupt(rows[0])
        write_rows(path, rows)
        bad_row = r"panel.jsonl:1: bad panel row"
        if "revision" not in rows[0]:
            with pytest.raises(SchemaError, match=bad_row):
                SegmentStore(path)
            return
        store = SegmentStore(path)
        key = (rows[0]["cik"], rows[0]["fiscal_year"])  # the key the row is stored under
        for read in (lambda: store.get(*key), lambda: store.query_segments(*key),
                     lambda: store.segment_names_by_year(key[0]),
                     lambda: store.gap_report(FundamentalsRoster(rows={key})),
                     lambda: store.export_csv(tmp_path / "out.csv")):
            with pytest.raises(SchemaError, match=bad_row):
                read()
        assert store.get(paperdata.TXN_CIK, 2013) == filingfab.txn_bundle(2013)
        assert store.segment_names_by_year(paperdata.TXN_CIK) == [
            (2013, [r.name for r in filingfab.txn_bundle(2013).reportable])]

    def test_first_read_racing_a_put_keeps_the_put(self, tmp_path, monkeypatch):
        """A read that decodes the stale row while a put lands must not undo the put."""
        path = tmp_path / "panel.jsonl"
        SegmentStore(path).put(single_unit_bundle(55, 2020))
        store = SegmentStore(path)
        newer = single_unit_bundle(55, 2020)
        newer.general_fields["conm"] = "Renamed Corp"
        decoding, put_done = threading.Event(), threading.Event()
        decode = store_module.bundle_from_json

        def slow_decode(data):
            decoding.set()
            put_done.wait(timeout=0.5)  # the put cannot land while the read holds the lock
            return decode(data)

        monkeypatch.setattr(store_module, "bundle_from_json", slow_decode)
        reader = threading.Thread(target=store.get, args=(55, 2020))
        reader.start()
        assert decoding.wait(timeout=5)
        store.put(newer)
        put_done.set()
        reader.join(timeout=5)
        assert not reader.is_alive()
        assert store.get(55, 2020) == newer

    def test_gap_report_reads_raw_rows(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        bad_key = self.orphan_panel(path)
        store = SegmentStore(path)
        roster = FundamentalsRoster(rows={bad_key, (paperdata.INTC_CIK, 2012), (1, 2000)})
        assert gap_keys(store.gap_report(roster)) == {(1, 2000)}


class TestReadBack:
    """A row read back must parse to the key and revision the open scanned, so a
    panel truncated or rewritten under an open store raises SchemaError naming
    ``path:line``, and no other row's bundle is decoded."""

    def truncate(self, path, lines):
        path.write_bytes(lines[0] + lines[1][:len(lines[1]) // 2])

    def reorder(self, path, lines):
        path.write_bytes(lines[1] + lines[0])

    def revise(self, path, lines):
        """The same rows, each at its own offset and length, one revision later:
        only the revision check tells them from the rows the open scanned."""
        path.write_bytes(b"".join(line.replace(b'"revision": 1}', b'"revision": 2}')
                                  for line in lines))

    @pytest.mark.parametrize("change, export_line", [
        ("truncate", 2), ("reorder", 1), ("revise", 1)])
    def test_changed_panel_raises_when_read(self, tmp_path, change, export_line):
        path = tmp_path / "panel.jsonl"
        writer = SegmentStore(path)
        writer.put(filingfab.intc_bundle(2012))
        writer.put(filingfab.txn_bundle(2013))
        store = SegmentStore(path)
        getattr(self, change)(path, path.read_bytes().splitlines(keepends=True))
        key = (paperdata.TXN_CIK, 2013)  # line 2
        # Only a revised row still parses: the revision check names it.
        message = "panel.jsonl:2: bad panel row" + (
            ": not the row the panel held when opened" if change == "revise" else "")
        for read in (lambda: store.get(*key),
                     lambda: store.gap_report(FundamentalsRoster(rows={key, (1, 2000)})),
                     lambda: store.segment_names_by_year(key[0])):
            with pytest.raises(SchemaError, match=message):
                read()
        with pytest.raises(SchemaError, match=rf"panel.jsonl:{export_line}: bad panel row"):
            store.export_csv(tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()
        if change == "truncate":  # the untouched row still reads
            assert store.get(paperdata.INTC_CIK, 2012) == filingfab.intc_bundle(2012)


class TestStoreMemory:
    """What the store keeps grows with the panel's keys, not with its bytes, and
    the export writes as it goes."""

    def test_open_retains_as_much_for_long_rows(self, tmp_path):
        keys = [(cik, year) for cik in range(1, 101) for year in (2020, 2021, 2022)]
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        geo_panel(short, keys)
        geo_panel(long, keys, warning="nested_sum_mismatch " * 400)
        assert long.stat().st_size > 8 * short.stat().st_size
        (_, short_kept, _), (_, long_kept, _) = traced(lambda: SegmentStore(short)), \
            traced(lambda: SegmentStore(long))
        assert long_kept < 1.25 * short_kept, (short_kept, long_kept)

    def test_export_peak_is_below_the_csv_size(self, tmp_path):
        path = tmp_path / "panel.jsonl"
        geo_panel(path, [(cik, 2020) for cik in range(1, 301)], records=40)
        store = SegmentStore(path)
        out, _, peak = traced(lambda: store.export_csv(tmp_path / "out.csv"))
        assert peak < out.stat().st_size, (peak, out.stat().st_size)


# Text a row's key scan must see through: JSON escapes, line breaks, a fake
# row tail, and non-ASCII.
_TEXT = st.lists(st.one_of(
    st.sampled_from(["Asia", '"', "\\", '"cik": 1, "fiscal_year": 2, "revision": 9}',
                     "}, ", "\n", "\r", "\u2028", "\u2029", "Zürich", "日本"]),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=3)),
    min_size=1, max_size=4).map("".join)


@st.composite
def _bundle(draw, cik: int, year: int) -> ExtractionBundle:
    kind = draw(st.sampled_from(["single", "empty", "multi"]))
    if kind == "single":
        return single_unit_bundle(cik, year)
    bundle = empty_multi_bundle(cik, year)
    bundle.general_fields["conm"] = draw(_TEXT)
    if kind == "empty":
        return bundle
    names = draw(st.lists(_TEXT.filter(str.strip), min_size=1, max_size=4, unique=True))
    for name in names:
        measures = {}
        for measure in draw(st.lists(st.sampled_from(["revenue", "assets"]), unique=True)):
            measures[measure] = Money(Decimal(draw(st.integers(-10**6, 10**9))),
                                      draw(st.sampled_from(list(Scale))))
        bundle.reportable.append(SegmentRecord(
            name=name, axis=draw(st.sampled_from([AXIS_BUSINESS, AXIS_GEOGRAPHIC])),
            measures=measures))
    if draw(st.booleans()):
        bundle.nested.append(SegmentRecord(name="Unit", parent_name=names[0]))
    return bundle


_KEYS = st.tuples(st.integers(1, 4), st.integers(2000, 2003))


@st.composite
def _puts(draw) -> list[list[ExtractionBundle]]:
    """Sessions of puts; each session opens the panel afresh, keys repeat."""
    sessions = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.lists(_KEYS, min_size=1, max_size=8))
        sessions.append([draw(_bundle(cik, year)) for cik, year in keys])
    return sessions


def put_shuffled(path: Path, sessions: list[list[ExtractionBundle]], rng) -> tuple[dict, dict]:
    """Put each session through a freshly opened panel, then shuffle its lines.

    Returns the last bundle put and the number of puts, per key.
    """
    latest: dict = {}
    puts: dict = {}
    for session in sessions:
        store = SegmentStore(path)
        for bundle in session:
            store.put(bundle)
            latest[bundle.key] = bundle
            puts[bundle.key] = puts.get(bundle.key, 0) + 1
    # Line order on disk does not matter: the highest revision wins.
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    return latest, puts


class TestPanelProperties:
    @settings(max_examples=60, deadline=None)
    @given(_puts(), st.sets(_KEYS, max_size=10), st.randoms(use_true_random=False))
    def test_lazy_panel_equals_eager_panel(self, sessions, roster_keys, rng):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.jsonl"
            latest, puts = put_shuffled(path, sessions, rng)
            roster = FundamentalsRoster(rows=roster_keys | set(rng.sample(sorted(latest), 1)))
            lazy = SegmentStore(path)
            report = lazy.gap_report(roster)  # before any bundle is decoded
            eager = SegmentStore()
            for key in sorted(latest):
                eager.put(latest[key])

            assert gap_keys(report) == brute_force_gaps(eager, roster)
            assert report == eager.gap_report(roster)
            lazy.export_csv(Path(tmp) / "lazy.csv")
            eager.export_csv(Path(tmp) / "eager.csv")
            assert (Path(tmp) / "lazy.csv").read_bytes() == (Path(tmp) / "eager.csv").read_bytes()
            assert lazy.keys() == sorted(latest)
            assert panel_revisions(path) == puts
            for key, bundle in latest.items():
                assert lazy.get(*key) == bundle
                assert lazy.segment_names_by_year(key[0]) == eager.segment_names_by_year(key[0])
                assert lazy.query_segments(*key) == eager.query_segments(*key)

    @settings(max_examples=40, deadline=None)
    @given(_puts(), st.lists(_KEYS, max_size=6).flatmap(
        lambda keys: st.tuples(*(_bundle(cik, year) for cik, year in keys))),
        st.sets(_KEYS, max_size=10), st.randoms(use_true_random=False))
    def test_puts_after_open_equal_eager_panel(self, sessions, more, roster_keys, rng):
        """Rows appended past the scanned end leave every scanned row readable."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.jsonl"
            latest, _ = put_shuffled(path, sessions, rng)
            lazy = SegmentStore(path)
            for bundle in more:
                lazy.put(bundle)
                latest[bundle.key] = bundle
            eager = SegmentStore()
            for key in sorted(latest):
                eager.put(latest[key])
            roster = FundamentalsRoster(rows=roster_keys)
            for store in (lazy, SegmentStore(path)):
                assert store.gap_report(roster) == eager.gap_report(roster)
                store.export_csv(Path(tmp) / "lazy.csv")
                eager.export_csv(Path(tmp) / "eager.csv")
                assert (Path(tmp) / "lazy.csv").read_bytes() == \
                    (Path(tmp) / "eager.csv").read_bytes()
                assert store.keys() == sorted(latest)
                assert store.bundles() == [latest[key] for key in sorted(latest)]
                for key, bundle in latest.items():
                    assert store.get(*key) == bundle

    @settings(max_examples=60, deadline=None)
    @given(_puts(), st.randoms(use_true_random=False))
    def test_key_scan_equals_json_and_rejects_a_torn_row(self, sessions, rng):
        """The open's key scan reads what json.loads reads; a torn append fails the open."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.jsonl"
            put_shuffled(path, sessions, rng)
            lines = path.read_bytes().split(b"\n")[:-1]
            for line in lines:
                row = json.loads(line)
                match = store_module._ROW.fullmatch(line)
                assert match is not None, line
                assert tuple(map(int, match.groups())) == \
                    (row["cik"], row["fiscal_year"], row["revision"])
            line = rng.choice(lines)
            with open(path, "ab") as fh:
                fh.write(line[:rng.randrange(1, len(line))])
            with pytest.raises(SchemaError, match=rf"panel.jsonl:{len(lines) + 1}: bad panel row"):
                SegmentStore(path)
