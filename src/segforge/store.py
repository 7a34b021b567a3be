"""Firm-year panel of extraction bundles with coverage-gap detection.

Bundles are upserted by (cik, fiscal_year) into an append-only JSON Lines
panel; the highest revision per key wins on read. A gap report compares
stored coverage against an external fundamentals roster: a roster key
counts as covered only when a stored bundle actually extracted something
(a non-empty reportable list, or a single-unit classification).
"""

from __future__ import annotations

import csv
import json
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
from .values import encode

PanelKey = tuple[int, int]  # (cik, fiscal_year)


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

    Opening a panel checks every row's shape (its key matches its bundle's,
    ``reportable`` is a list, ``classification.kind`` a string) and raises
    SchemaError on a bad row. The winning revision's bundle is kept as JSON
    and decoded and validated when first read (``get``, ``query_segments``,
    ``segment_names_by_year``, ``export_csv``), which raise SchemaError for
    an invalid bundle. ``gap_report`` reads the JSON and decodes nothing.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path else None
        # Decoded bundles, or (line number, bundle dict) until first read.
        self._bundles: dict[PanelKey, ExtractionBundle | tuple[int, dict]] = {}
        self._revisions: dict[PanelKey, int] = {}
        self._lock = threading.Lock()
        if self._path and self._path.exists():
            self._load()

    def _load(self) -> None:
        with open(self._path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                    data = row["bundle"]
                    revision = int(row["revision"])
                    key = (data["cik"], data["fiscal_year"])
                    if key != (row["cik"], row["fiscal_year"]):
                        raise ValueError(f"row key differs from its bundle's {key}")
                    if not isinstance(data["reportable"], list) or \
                            not isinstance(data["classification"]["kind"], str):
                        raise TypeError("reportable or classification.kind has the wrong type")
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise SchemaError(f"{self._path}:{line_no}: bad panel row: {exc}") from exc
                if revision >= self._revisions.get(key, 0):
                    self._bundles[key] = (line_no, data)
                    self._revisions[key] = revision

    def _bundle(self, key: PanelKey) -> ExtractionBundle | None:
        """The bundle stored under key, decoded and validated on first read."""
        with self._lock:
            entry = self._bundles.get(key)
            if isinstance(entry, tuple):
                line_no, data = entry
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
            if not _covered(self._bundles.get((cik, year))):
                missing.setdefault(year, []).append(cik)
        for year in missing:
            missing[year].sort()
        ordered = {year: missing[year] for year in sorted(missing)}
        return GapReport(missing=ordered, total_missing=sum(len(v) for v in ordered.values()))

    def export_csv(self, path: str | Path) -> Path:
        """One row per (record, measure); measure columns empty when absent."""
        bundles = [self._bundle(key) for key in sorted(self._bundles)]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
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
        return path


def _covered(entry: ExtractionBundle | tuple[int, dict] | None) -> bool:
    """A stored bundle covers its key when it extracted something."""
    if isinstance(entry, tuple):
        data = entry[1]
        return bool(data["reportable"]) or data["classification"]["kind"] == SINGLE_UNIT
    return entry is not None and (bool(entry.reportable) or entry.classification.kind == SINGLE_UNIT)


def gap_report_to_json(report: GapReport) -> dict:
    return {
        "missing": {str(year): ciks for year, ciks in report.missing.items()},
        "total_missing": report.total_missing,
    }
