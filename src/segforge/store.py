"""Firm-year panel of extraction bundles with coverage-gap detection.

Bundles are upserted by (cik, fiscal_year) into an append-only JSON Lines
panel; the highest revision per key wins on read. A gap report compares
stored coverage against an external fundamentals roster: a roster key
counts as covered only when a stored bundle actually extracted something
(a non-empty reportable list, or a single-unit classification).
"""

from __future__ import annotations

import csv
import io
import json
import re
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SchemaError
from .extraction import (
    ExtractionBundle,
    SINGLE_UNIT,
    SegmentRecord,
    bundle_from_json,
    validate_bundle,
)
from .values import encode, write_atomic

PanelKey = tuple[int, int]  # (cik, fiscal_year)
# Keys with their stored entry (see ``SegmentStore._rows``) and revision, taken under the lock.
_Snapshot = list[tuple[PanelKey, ExtractionBundle | tuple[int, int, int] | None, int]]

# A panel row as ``put`` writes it: sorted keys put the key and revision
# last. JSON escapes every quote and newline inside a string, so only the
# row's own key can end a line this way. A line holds no newline, so DOTALL
# changes no match; it lets ``.*`` jump straight to the line's end. The open
# matches it on each line and keeps where the winning row lies, not its bytes;
# a row read back from there must parse to the key and revision the open found
# (``SegmentStore._row_bundle``).
_ROW = re.compile(rb'\{"bundle": \{.*\}, "cik": (-?\d+), "fiscal_year": (-?\d+), '
                  rb'"revision": (-?\d+)\}', re.DOTALL)


@dataclass(frozen=True)
class GapReport:
    missing: dict[int, list[int]]  # fiscal_year -> sorted ciks
    total_missing: int


@dataclass
class FundamentalsRoster:
    rows: set[PanelKey] = field(default_factory=set)

    @classmethod
    def from_csv(cls, path: str | Path) -> "FundamentalsRoster":
        rows: set[PanelKey] = set()
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh.readlines())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        if reader.fieldnames is None or not {"cik", "fiscal_year"} <= set(reader.fieldnames):
            raise SchemaError(f"{path}: roster needs 'cik' and 'fiscal_year' columns")
        for line in reader:
            try:
                rows.add((int(line["cik"]), int(line["fiscal_year"])))
            except (TypeError, ValueError) as exc:  # TypeError: a short row's None
                raise SchemaError(f"{path}:{reader.line_num}: {exc}") from exc
        return cls(rows=rows)


class SegmentStore:
    """Queryable panel of bundles, persisted as panel.jsonl.

    Opening a panel reads it line by line and parses no row: it scans each
    line's key and revision, raises SchemaError naming ``path:line`` for a
    line that is not a row as ``put`` writes it, and keeps only where each
    key's winning row lies, so its memory grows with the keys, not the
    panel's bytes. A call reads its rows back through one handle, in file
    order where the answer allows, and each must still parse to the key and
    revision the open found: a panel cut short or rewritten under an open
    store raises SchemaError naming ``path:line``.

    A row's shape is checked when its key is first read (its key matches
    its bundle's, ``reportable`` is a list, ``classification.kind`` a
    string); ``get``, ``bundles``, ``query_segments`` and
    ``segment_names_by_year`` then decode, validate and keep its bundle.
    ``export_csv`` decodes each row the same way and writes its CSV as it
    goes, keeping no decoded bundle. ``gap_report`` checks the shape of the
    roster's rows and decodes nothing. A bad row raises SchemaError naming
    ``path:line`` when it is read, so it fails no query of another firm.
    Superseded revisions are never parsed. ``gap_report`` and
    ``export_csv`` take their keys under the store's lock and read and
    write outside it, so they hold up no other call.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path else None
        # Decoded or put bundles, or (line number, offset, length) of the row until first read.
        self._rows: dict[PanelKey, ExtractionBundle | tuple[int, int, int]] = {}
        self._revisions: dict[PanelKey, int] = {}
        self._lock = threading.Lock()
        if self._path and self._path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        with open(self._path, "rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                length = len(line) - line.endswith(b"\n")
                match = _ROW.fullmatch(line, 0, length)
                if match is None:
                    if line.strip():
                        raise SchemaError(f"{self._path}:{line_no}: bad panel row: "
                                          "not a row as put writes it")
                else:
                    cik, fiscal_year, revision = map(int, match.groups())
                    key = (cik, fiscal_year)
                    if revision >= self._revisions.get(key, 0):
                        self._rows[key] = (line_no, offset, length)
                        self._revisions[key] = revision
                offset += len(line)

    def _snapshot(self, keys: Iterable[PanelKey]) -> _Snapshot:
        """Each key with its entry and revision, for ``_entries``. Call with the lock held."""
        return [(key, self._rows.get(key), self._revisions.get(key, 0)) for key in keys]

    def _entries(self, snapshot: _Snapshot) -> Iterator[
            tuple[PanelKey, ExtractionBundle | tuple[int, bytes, int] | None]]:
        """Each key of a ``_snapshot`` with its bundle, None, or (line number,
        row line read back, scanned revision) for ``_row_bundle``.

        Rows are read in the snapshot's order through one handle, opened at
        the first row read. The panel is only appended to, so this needs no
        lock.
        """
        fh = None
        try:
            for key, entry, revision in snapshot:
                if isinstance(entry, tuple):
                    line_no, offset, length = entry
                    fh = fh or open(self._path, "rb")
                    fh.seek(offset)
                    entry = (line_no, fh.read(length), revision)
                yield key, entry
        finally:
            if fh:
                fh.close()

    def _offset(self, key: PanelKey) -> int:
        """Where key's row starts in the panel; -1 when no row needs reading."""
        entry = self._rows.get(key)
        return entry[1] if isinstance(entry, tuple) else -1

    def _row_bundle(self, key: PanelKey, line_no: int, line: bytes, revision: int) -> dict:
        """The bundle JSON of key's row, read back, after checking that it is still
        the row the open found (key and revision) and checking its shape."""
        try:
            row = json.loads(line)
            if (row["cik"], row["fiscal_year"], row["revision"]) != (*key, revision):
                raise ValueError("not the row the panel held when opened")
            data = row["bundle"]
            if key != (data["cik"], data["fiscal_year"]):
                raise ValueError(f"row key differs from its bundle's or the scanned {key}")
            if not isinstance(data["reportable"], list) or \
                    not isinstance(data["classification"]["kind"], str):
                raise TypeError("reportable or classification.kind has the wrong type")
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON too
            raise SchemaError(f"{self._path}:{line_no}: bad panel row: {exc}") from exc
        return data

    def _decode(self, key: PanelKey, line_no: int, line: bytes, revision: int) -> ExtractionBundle:
        """The bundle of key's row, read back: checked as ``_row_bundle`` does, decoded and validated."""
        data = self._row_bundle(key, line_no, line, revision)
        try:
            return bundle_from_json(data)
        except SchemaError as exc:
            raise SchemaError(f"{self._path}:{line_no}: bad panel row: {exc}") from exc

    def _bundles(self, keys: list[PanelKey]) -> list[ExtractionBundle | None]:
        """The bundles stored under keys, each decoded on first read and kept."""
        with self._lock:
            bundles = []
            for key, entry in self._entries(self._snapshot(keys)):
                if isinstance(entry, tuple):
                    entry = self._rows[key] = self._decode(key, *entry)
                bundles.append(entry)
            return bundles

    def put(self, bundle: ExtractionBundle) -> PanelKey:
        validate_bundle(bundle)
        with self._lock:
            key = bundle.key
            revision = self._revisions.get(key, 0) + 1
            self._rows[key] = bundle
            self._revisions[key] = revision
            if self._path:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                row = {"cik": key[0], "fiscal_year": key[1], "revision": revision,
                       "bundle": bundle}
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, default=encode, sort_keys=True) + "\n")
            return key

    def get(self, cik: int, fiscal_year: int) -> ExtractionBundle | None:
        return self._bundles([(cik, fiscal_year)])[0]

    def keys(self) -> list[PanelKey]:
        return sorted(self._rows)

    def bundles(self) -> list[ExtractionBundle]:
        """Every stored bundle in key order, as ``get`` returns them, read through one handle."""
        return self._bundles(self.keys())

    def __len__(self) -> int:
        return len(self._rows)

    def query_segments(self, cik: int, fiscal_year: int,
                       axis: str | None = None) -> list[SegmentRecord]:
        """One firm-year's records, reportable first, each tier sorted by name."""
        bundle = self.get(cik, fiscal_year)
        if bundle is None:
            return []
        return [record for records in (bundle.reportable, bundle.nested)
                for record in sorted(records, key=lambda r: r.name)
                if axis is None or record.axis == axis]

    def segment_names_by_year(self, cik: int, years: tuple[int, int] | None = None) -> list[tuple[int, list[str]]]:
        """(year, reportable names in disclosure order) for each stored year in range."""
        with self._lock:
            wanted = sorted(key for key in self._rows
                            if key[0] == cik and (years is None or years[0] <= key[1] <= years[1]))
        return [(year, [r.name for r in bundle.reportable])
                for (_, year), bundle in zip(wanted, self._bundles(wanted))]

    def gap_report(self, roster: FundamentalsRoster) -> GapReport:
        missing: dict[int, list[int]] = {}
        with self._lock:
            snapshot = self._snapshot(sorted(roster.rows, key=self._offset))
        for (cik, year), entry in self._entries(snapshot):
            if isinstance(entry, tuple):
                entry = self._row_bundle((cik, year), *entry)
            if not _covered(entry):
                missing.setdefault(year, []).append(cik)
        for year in missing:
            missing[year].sort()
        ordered = {year: missing[year] for year in sorted(missing)}
        return GapReport(missing=ordered, total_missing=sum(len(v) for v in ordered.values()))

    def export_csv(self, path: str | Path) -> Path:
        """One row per (record, measure), measure columns empty when absent.

        One pass in key order over the keys stored when it starts: each
        bundle not yet decoded is decoded, its CSV rows go into
        ``write_atomic``'s temporary file and it is dropped. A bad row
        raises before the file is moved into place, so it leaves no file.
        """
        path = Path(path)
        with self._lock:
            snapshot = self._snapshot(sorted(self._rows))
        write_atomic(path, self._csv(snapshot))
        return path

    def _csv(self, snapshot: _Snapshot) -> Iterator[str]:
        """The export's CSV text for a ``_snapshot``, one piece per bundle."""
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["cik", "fiscal_year", "name", "axis", "parent_name",
                         "measure_kind", "value", "scale"])
        for key, entry in self._entries(snapshot):
            bundle = self._decode(key, *entry) if isinstance(entry, tuple) else entry
            for record in [*bundle.reportable, *bundle.nested]:
                base = [bundle.cik, bundle.fiscal_year, record.name, record.axis,
                        record.parent_name or ""]
                measures = [[kind, str(money.value), money.scale.value]
                            for kind, money in sorted(record.measures.items())]
                writer.writerows(base + measure for measure in measures or [["", "", ""]])
            yield buffer.getvalue()
            buffer.seek(0)
            buffer.truncate()
        yield buffer.getvalue()


def _covered(entry: ExtractionBundle | dict | None) -> bool:
    """A stored bundle (decoded, or its checked JSON) covers its key when it extracted something."""
    if isinstance(entry, dict):
        return bool(entry["reportable"]) or entry["classification"]["kind"] == SINGLE_UNIT
    return entry is not None and (bool(entry.reportable) or entry.classification.kind == SINGLE_UNIT)


def gap_report_to_json(report: GapReport) -> dict:
    return {
        "missing": {str(year): ciks for year, ciks in report.missing.items()},
        "total_missing": report.total_missing,
    }
