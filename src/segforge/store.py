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

# A panel row as ``put`` writes it: sorted keys put the key and revision
# last. JSON escapes every quote and newline inside a string, so only the
# row's own key can end a line this way. A line holds no newline, so DOTALL
# changes no match; it lets ``.*`` jump straight to the line's end.
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
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
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

    Opening a panel parses no row: it scans each line's key and revision
    and raises SchemaError naming ``path:line`` for a line that is not a
    row as ``put`` writes it. A winning row is parsed when its key is
    first read: its shape is checked (its key matches its bundle's,
    ``reportable`` is a list, ``classification.kind`` a string), and
    ``get``, ``query_segments``, ``segment_names_by_year`` and
    ``export_csv`` then decode and validate its bundle. ``gap_report``
    checks the shape of the roster's rows and decodes nothing. A bad row
    raises SchemaError naming ``path:line`` when it is read, so it fails
    no query of another firm. Superseded revisions are never parsed.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path else None
        # Decoded bundles, or (line number, row line) until first read.
        self._bundles: dict[PanelKey, ExtractionBundle | tuple[int, bytes]] = {}
        self._revisions: dict[PanelKey, int] = {}
        self._lock = threading.Lock()
        if self._path and self._path.exists():
            self._load()

    def _load(self) -> None:
        for line_no, line in enumerate(self._path.read_bytes().split(b"\n"), start=1):
            match = _ROW.fullmatch(line)
            if match is None:
                if line.strip():
                    raise SchemaError(f"{self._path}:{line_no}: bad panel row: "
                                      "not a row as put writes it")
                continue
            cik, fiscal_year, revision = map(int, match.groups())
            if revision >= self._revisions.get((cik, fiscal_year), 0):
                self._bundles[(cik, fiscal_year)] = (line_no, line)
                self._revisions[(cik, fiscal_year)] = revision

    def _row_bundle(self, key: PanelKey, line_no: int, line: bytes) -> dict:
        """The bundle JSON of the scanned row for key, after checking the row's shape."""
        try:
            row = json.loads(line)
            data = row["bundle"]
            if key != (row["cik"], row["fiscal_year"]) or key != (data["cik"], data["fiscal_year"]):
                raise ValueError(f"row key differs from its bundle's or the scanned {key}")
            if not isinstance(data["reportable"], list) or \
                    not isinstance(data["classification"]["kind"], str):
                raise TypeError("reportable or classification.kind has the wrong type")
        except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON too
            raise SchemaError(f"{self._path}:{line_no}: bad panel row: {exc}") from exc
        return data

    def _bundle(self, key: PanelKey) -> ExtractionBundle | None:
        """The bundle stored under key, checked, decoded and validated on first read."""
        with self._lock:
            entry = self._bundles.get(key)
            if isinstance(entry, tuple):
                line_no, line = entry
                data = self._row_bundle(key, line_no, line)
                try:
                    entry = bundle_from_json(data)
                except SchemaError as exc:
                    raise SchemaError(f"{self._path}:{line_no}: bad panel row: {exc}") from exc
                self._bundles[key] = entry
            return entry

    def put(self, bundle: ExtractionBundle) -> PanelKey:
        validate_bundle(bundle)
        with self._lock:
            key = bundle.key
            revision = self._revisions.get(key, 0) + 1
            self._bundles[key] = bundle
            self._revisions[key] = revision
            if self._path:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                row = {"cik": key[0], "fiscal_year": key[1], "revision": revision,
                       "bundle": bundle}
                with open(self._path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row, default=encode, sort_keys=True) + "\n")
            return key

    def get(self, cik: int, fiscal_year: int) -> ExtractionBundle | None:
        return self._bundle((cik, fiscal_year))

    def keys(self) -> list[PanelKey]:
        return sorted(self._bundles)

    def __len__(self) -> int:
        return len(self._bundles)

    def query_segments(self, cik: int, fiscal_year: int,
                       axis: str | None = None) -> list[SegmentRecord]:
        """One firm-year's records, reportable first, each tier sorted by name."""
        bundle = self._bundle((cik, fiscal_year))
        if bundle is None:
            return []
        return [record for records in (bundle.reportable, bundle.nested)
                for record in sorted(records, key=lambda r: r.name)
                if axis is None or record.axis == axis]

    def segment_names_by_year(self, cik: int, years: tuple[int, int] | None = None) -> list[tuple[int, list[str]]]:
        """(year, reportable names in disclosure order) for each stored year in range."""
        wanted = sorted(year for key_cik, year in self._bundles
                        if key_cik == cik and (years is None or years[0] <= year <= years[1]))
        return [(year, [r.name for r in self._bundle((cik, year)).reportable]) for year in wanted]

    def gap_report(self, roster: FundamentalsRoster) -> GapReport:
        missing: dict[int, list[int]] = {}
        for cik, year in roster.rows:
            entry = self._bundles.get((cik, year))
            if isinstance(entry, tuple):
                entry = self._row_bundle((cik, year), *entry)
            if not _covered(entry):
                missing.setdefault(year, []).append(cik)
        for year in missing:
            missing[year].sort()
        ordered = {year: missing[year] for year in sorted(missing)}
        return GapReport(missing=ordered, total_missing=sum(len(v) for v in ordered.values()))

    def export_csv(self, path: str | Path) -> Path:
        """One row per (record, measure); measure columns empty when absent."""
        bundles = [self._bundle(key) for key in sorted(self._bundles)]
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["cik", "fiscal_year", "name", "axis", "parent_name",
                         "measure_kind", "value", "scale"])
        for bundle in bundles:
            for record in [*bundle.reportable, *bundle.nested]:
                base = [bundle.cik, bundle.fiscal_year, record.name, record.axis,
                        record.parent_name or ""]
                if not record.measures:
                    writer.writerow(base + ["", "", ""])
                    continue
                for kind in sorted(record.measures):
                    money = record.measures[kind]
                    writer.writerow(base + [kind, str(money.value), money.scale.value])
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, buffer.getvalue())
        return path


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
