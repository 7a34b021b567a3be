"""Convert a raw 10-K (HTML or SGML text) into a normalized document.

Produces plain-text sections keyed by SEC item, tables lifted into a
normalized form, and ranked segment-disclosure regions.  Section offsets
partition the extracted text exactly: front matter plus the item sections
concatenate back to the full text with no characters lost or duplicated.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from decimal import Decimal
from html.parser import HTMLParser

from .edgar import CachedDocument, FilingRef
from .errors import DecodeError, EmptyDocumentError, NoItemsFoundError
from .values import Scale, parse_table_cell

# 10-K item catalog: item number -> (part, position). Positions order the
# headings so boundary detection can require an ascending chain.
_ITEM_SEQ: list[tuple[str, str]] = [
    ("I", "1"), ("I", "1A"), ("I", "1B"), ("I", "1C"), ("I", "2"), ("I", "3"), ("I", "4"),
    ("II", "5"), ("II", "6"), ("II", "7"), ("II", "7A"), ("II", "8"),
    ("II", "9"), ("II", "9A"), ("II", "9B"), ("II", "9C"),
    ("III", "10"), ("III", "11"), ("III", "12"), ("III", "13"), ("III", "14"),
    ("IV", "15"), ("IV", "16"),
]
_CATALOG_POS = {number: i for i, (_, number) in enumerate(_ITEM_SEQ)}
_PART_OF = {number: part for part, number in _ITEM_SEQ}

UNASSIGNED = "unassigned"
FRONT_MATTER = "front_matter"


@dataclass(frozen=True)
class ItemId:
    part: str  # "I" .. "IV"
    number: str  # "1", "1A", "7", ...

    @classmethod
    def of(cls, number: str) -> "ItemId":
        number = number.upper()
        if number not in _PART_OF:
            raise ValueError(f"unknown 10-K item {number!r}")
        return cls(part=_PART_OF[number], number=number)


@dataclass(frozen=True)
class Section:
    """A contiguous slice of the extracted plain text."""

    item: ItemId | None
    text: str
    start: int
    end: int


@dataclass(frozen=True)
class CellValue:
    value: Decimal
    scale: Scale


@dataclass
class NormalizedTable:
    table_id: str
    caption_text: str
    header_rows: list[list[str]]
    body_rows: list[list[str]]
    numeric_cells: dict[tuple[int, int], CellValue]
    item: str = UNASSIGNED  # item number or "unassigned"
    char_start: int = 0
    scale: Scale = Scale.UNITS
    scale_assumed: bool = False


@dataclass
class ParsedFiling:
    ref: FilingRef | None
    front_matter: Section
    items: dict[str, Section]  # keyed by item number, document order
    tables: list[NormalizedTable]
    char_count: int

    @property
    def full_text(self) -> str:
        return self.front_matter.text + "".join(s.text for s in self.items.values())

    def sections(self) -> list[Section]:
        return [self.front_matter, *self.items.values()]


@dataclass(frozen=True)
class SegmentRegion:
    item: str | None  # item number or None for front matter
    start: int
    end: int
    confidence: float


# -- text assembly ---------------------------------------------------------


class _TextAssembler:
    """Builds normalized plain text while tracking exact char offsets."""

    def __init__(self):
        self._buf: list[str] = []
        self._len = 0
        self._line: list[str] = []
        self._pending = 0  # newlines owed before the next committed line

    def add_text(self, text: str) -> None:
        if text:
            self._line.append(text)

    def break_line(self) -> None:
        self._commit()
        self._pending = max(self._pending, 1)

    def break_para(self) -> None:
        self._commit()
        self._pending = 2

    def mark(self) -> int:
        """Offset where the next content will start (after a paragraph break)."""
        self.break_para()
        return self._len + (2 if self._len else 0)

    def tail(self, window: int = 500) -> str:
        """The last ``window`` (> 0) characters, joining only the pieces they span."""
        first, size = len(self._buf), 0
        while first and size < window:
            first -= 1
            size += len(self._buf[first])
        return "".join(self._buf[first:])[-window:]

    def finish(self) -> str:
        self._commit()
        text = "".join(self._buf)
        return text + "\n" if text else ""

    def _commit(self) -> None:
        content = " ".join("".join(self._line).split())
        self._line = []
        if not content:
            return
        if self._len:
            sep = "\n" * min(self._pending, 2) if self._pending else " "
            self._buf.append(sep)
            self._len += len(sep)
        self._buf.append(content)
        self._len += len(content)
        self._pending = 0


# -- HTML extraction -------------------------------------------------------

_PARA_TAGS = {"p", "table", "h1", "h2", "h3", "h4", "h5", "h6", "ul", "ol", "hr", "blockquote"}
_LINE_TAGS = {"div", "tr", "li", "br", "dt", "dd"}
_SKIP_TAGS = {"script", "style", "title"}


@dataclass
class _RawCell:
    colspan: int
    is_header: bool
    parts: list[str] = field(default_factory=list)


@dataclass
class _TableFrame:
    char_start: int
    caption_parts: list[str]
    context: str
    rows: list[list[_RawCell]] = field(default_factory=list)
    current_row: list[_RawCell] | None = None
    current_cell: _RawCell | None = None
    in_caption: bool = False


class _HtmlExtractor(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.assembler = _TextAssembler()
        self.raw_tables: list[_TableFrame] = []
        self._frames: list[_TableFrame] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if tag == "table":
            start = self.assembler.mark()
            self._frames.append(
                _TableFrame(
                    char_start=start,
                    caption_parts=[],
                    context=self.assembler.tail(),
                )
            )
            return
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if tag == "caption":
                frame.in_caption = True
                return
            if tag == "tr":
                self._close_cell(frame)
                frame.current_row = []
                self.assembler.break_line()
                return
            if tag in ("td", "th"):
                if frame.current_row is None:
                    frame.current_row = []
                self._close_cell(frame)
                frame.current_cell = _RawCell(colspan=_colspan(attrs), is_header=(tag == "th"))
                return
        if tag in _PARA_TAGS:
            self.assembler.break_para()
        elif tag in _LINE_TAGS:
            self.assembler.break_line()

    def handle_startendtag(self, tag, attrs):
        if tag == "br":
            self.assembler.break_line()

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if tag == "table" and self._frames:
            frame = self._frames.pop()
            self._close_cell(frame)
            if frame.current_row is not None:
                frame.rows.append(frame.current_row)
                frame.current_row = None
            self.raw_tables.append(frame)
            self.assembler.break_para()
            return
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if tag == "caption":
                frame.in_caption = False
                return
            if tag == "tr":
                self._close_cell(frame)
                if frame.current_row is not None:
                    frame.rows.append(frame.current_row)
                    frame.current_row = None
                self.assembler.break_line()
                return
            if tag in ("td", "th"):
                self._close_cell(frame)
                self.assembler.add_text(" ")
                return
        if tag in _PARA_TAGS:
            self.assembler.break_para()
        elif tag in _LINE_TAGS and tag != "br":
            self.assembler.break_line()

    def handle_data(self, data):
        if self._skip_depth:
            return
        self.assembler.add_text(data)
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if frame.in_caption:
                frame.caption_parts.append(data)
            elif frame.current_cell is not None:
                frame.current_cell.parts.append(data)

    @staticmethod
    def _close_cell(frame: _TableFrame) -> None:
        if frame.current_cell is not None and frame.current_row is not None:
            frame.current_row.append(frame.current_cell)
        frame.current_cell = None


def _colspan(attrs) -> int:
    for name, value in attrs:
        if name == "colspan":
            try:
                return max(1, min(int(value), 100))
            except (TypeError, ValueError):
                return 1
    return 1


_SCALE_HINT_RE = re.compile(r"in\s+(millions|thousands|billions)", re.IGNORECASE)


def _normalize_table(frame: _TableFrame, table_id: str, assembler_caption_fallback: str) -> NormalizedTable | None:
    rows: list[tuple[list[str], bool]] = []
    for raw_row in frame.rows:
        cells: list[str] = []
        has_header = False
        for cell in raw_row:
            text = " ".join("".join(cell.parts).split())
            cells.append(text)
            cells.extend([""] * (cell.colspan - 1))
            has_header = has_header or cell.is_header
        if cells:
            rows.append((cells, has_header))
    if not rows:
        return None
    width = max(len(cells) for cells, _ in rows)
    for cells, _ in rows:
        cells.extend([""] * (width - len(cells)))

    header_count = 0
    for cells, has_header in rows:
        if has_header:
            header_count += 1
        else:
            break
    if header_count == 0 and len(rows) > 1:
        first_numeric = any(parse_table_cell(c) is not None for c in rows[0][0])
        later_numeric = any(
            parse_table_cell(c) is not None for cells, _ in rows[1:] for c in cells
        )
        if not first_numeric and later_numeric:
            header_count = 1

    header_rows = [cells for cells, _ in rows[:header_count]]
    body_rows = [cells for cells, _ in rows[header_count:]]

    caption = " ".join("".join(frame.caption_parts).split()) or assembler_caption_fallback
    hint = _SCALE_HINT_RE.search(caption) or _SCALE_HINT_RE.search(frame.context)
    scale = Scale(hint.group(1).lower()) if hint else Scale.UNITS

    numeric_cells: dict[tuple[int, int], CellValue] = {}
    for r, cells in enumerate(body_rows):
        for c, cell in enumerate(cells):
            value = parse_table_cell(cell)
            if value is not None:
                numeric_cells[(r, c)] = CellValue(value=value, scale=scale)

    return NormalizedTable(
        table_id=table_id,
        caption_text=caption,
        header_rows=header_rows,
        body_rows=body_rows,
        numeric_cells=numeric_cells,
        char_start=frame.char_start,
        scale=scale,
        scale_assumed=hint is None and bool(numeric_cells),
    )


# -- SGML plain text -------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]*>")


def _extract_sgml_text(text: str) -> str:
    assembler = _TextAssembler()
    stripped = _TAG_RE.sub(" ", text)
    for line in stripped.splitlines():
        if line.strip():
            assembler.add_text(line)
            assembler.break_line()
        else:
            assembler.break_para()
    return assembler.finish()


# -- parse -----------------------------------------------------------------


def parse(doc: CachedDocument) -> ParsedFiling:
    """Extract normalized text, item sections, and tables from a filing.

    The parsed filing's ref leaves out ``fetched_at``: that wall-clock stamp
    stays in the cache's meta.json, so parsed JSON is the same for the same
    filing whenever it was fetched.
    """
    data = doc.read_bytes()
    text = _decode(data)
    ref = None if doc.ref is None else replace(doc.ref, fetched_at="")
    return parse_text(text, media_kind=doc.media_kind, ref=ref)


def parse_text(raw: str, media_kind: str = "html", ref: FilingRef | None = None) -> ParsedFiling:
    tables: list[NormalizedTable] = []
    if media_kind == "html":
        extractor = _HtmlExtractor()
        extractor.feed(raw)
        extractor.close()
        full_text = extractor.assembler.finish()
        raw_tables = sorted(extractor.raw_tables, key=lambda f: f.char_start)
        for i, frame in enumerate(raw_tables):
            normalized = _normalize_table(frame, f"t{i:03d}", _caption_before(full_text, frame.char_start))
            if normalized is not None:
                tables.append(normalized)
    else:
        full_text = _extract_sgml_text(raw)

    if not full_text.strip():
        raise EmptyDocumentError("document has no visible text")

    try:
        front, items = _itemize_text(full_text)
    except NoItemsFoundError:
        front = Section(item=None, text=full_text, start=0, end=len(full_text))
        items = {}

    for table in tables:
        table.item = _containing_item(items, table.char_start)

    return ParsedFiling(
        ref=ref,
        front_matter=front,
        items=items,
        tables=tables,
        char_count=len(full_text),
    )


def _decode(data: bytes) -> str:
    for encoding in ("utf-8", "cp1252", "latin-1"):
        try:
            return data.decode(encoding)
        except UnicodeDecodeError:
            continue
    raise DecodeError("unrecognized document encoding")


def _caption_before(full_text: str, pos: int, window: int = 400) -> str:
    for line in reversed(full_text[max(0, pos - window):pos].splitlines()):
        if line.strip():
            return line.strip()
    return ""


def _containing_item(items: dict[str, Section], pos: int) -> str:
    for number, section in items.items():
        if section.start <= pos < section.end:
            return number
    return UNASSIGNED


# -- itemization -----------------------------------------------------------

_HEADING_RE = re.compile(r"^\s*item\s+(\d{1,2}[abc]?)\s*(?:[.:–—-]|\s|$)", re.IGNORECASE)
_MAX_HEADING_LEN = 200
_TOC_GAP = 300
_TOC_MIN_ENTRIES = 5


def itemize(parsed: ParsedFiling) -> dict[str, Section]:
    """Split the filing text into SEC item sections.

    Raises NoItemsFoundError for non-standard filings; callers fall back to
    whole-document mode.
    """
    _, items = _itemize_text(parsed.full_text)
    return items


def _itemize_text(full_text: str) -> tuple[Section, dict[str, Section]]:
    candidates = _heading_candidates(full_text)
    candidates = _drop_toc_cluster(candidates)
    chain = _ascending_chain(candidates)
    if not chain:
        raise NoItemsFoundError("no item headings matched")

    front = Section(item=None, text=full_text[: chain[0][1]], start=0, end=chain[0][1])
    items: dict[str, Section] = {}
    for i, (number, offset) in enumerate(chain):
        end = chain[i + 1][1] if i + 1 < len(chain) else len(full_text)
        items[number] = Section(item=ItemId.of(number), text=full_text[offset:end], start=offset, end=end)
    return front, items


def _heading_candidates(full_text: str) -> list[tuple[str, int]]:
    found = []
    offset = 0
    for line in full_text.splitlines(keepends=True):
        stripped = line.strip()
        if stripped and len(stripped) <= _MAX_HEADING_LEN:
            match = _HEADING_RE.match(stripped)
            if match:
                number = match.group(1).upper()
                if number in _CATALOG_POS:
                    found.append((number, offset))
        offset += len(line)
    return found


def _drop_toc_cluster(candidates: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Remove a leading table-of-contents block of tightly packed headings."""
    if len(candidates) < _TOC_MIN_ENTRIES:
        return candidates
    groups: list[list[int]] = [[0]]
    for i in range(1, len(candidates)):
        if candidates[i][1] - candidates[i - 1][1] <= _TOC_GAP:
            groups[-1].append(i)
        else:
            groups.append([i])
    drop: set[int] = set()
    for group in groups:
        if len(group) < _TOC_MIN_ENTRIES:
            continue
        numbers = {candidates[i][0] for i in group}
        last = max(candidates[i][1] for i in group)
        seen_later = {n for n, off in candidates if off > last and n in numbers}
        if len(seen_later) * 2 >= len(numbers):
            drop.update(group)
    return [c for i, c in enumerate(candidates) if i not in drop]


def _ascending_chain(candidates: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Longest catalog-ascending subsequence, preferring earliest offsets.

    Skips stray references and repeated page headers: repeats of an already
    accepted item cannot extend the chain, and the longest-chain criterion
    routes around isolated out-of-order mentions.
    """
    n = len(candidates)
    if n == 0:
        return []
    positions = [_CATALOG_POS[number] for number, _ in candidates]
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


# -- segment region location ------------------------------------------------

_SIGNALS: list[tuple[re.Pattern, float]] = [
    (re.compile(r"reportable\s+segments?", re.IGNORECASE), 2.0),
    (re.compile(r"operating\s+segments?", re.IGNORECASE), 1.5),
    (re.compile(r"segment\s+information", re.IGNORECASE), 1.5),
    (re.compile(r"segment\s+reporting", re.IGNORECASE), 1.5),
    (re.compile(r"(?:asc|topic)\s*280", re.IGNORECASE), 2.0),
    (re.compile(r"sfas\s*(?:no\.?\s*)?131", re.IGNORECASE), 1.5),
    (re.compile(r"segments?", re.IGNORECASE), 0.25),
]
_CLUSTER_GAP = 1500
_REGION_PAD_BEFORE = 200
_REGION_PAD_AFTER = 800
_MIN_CLUSTER_WEIGHT = 0.5


def locate_segment_regions(parsed: ParsedFiling) -> list[SegmentRegion]:
    """Rank candidate segment-disclosure regions by lexical signals.

    Used to flag retrieval chunks and for debugging views only; extraction
    always works from the complete filing.
    """
    regions: list[SegmentRegion] = []
    for section in parsed.sections():
        hits = _signal_hits(section.text)
        if not hits:
            continue
        cluster: list[tuple[int, int, float]] = []
        for hit in hits:
            if cluster and hit[0] - cluster[-1][1] > _CLUSTER_GAP:
                region = _close_cluster(cluster, section)
                if region:
                    regions.append(region)
                cluster = []
            cluster.append(hit)
        region = _close_cluster(cluster, section)
        if region:
            regions.append(region)
    regions.sort(key=lambda r: (-r.confidence, r.start))
    return regions


def _signal_hits(text: str) -> list[tuple[int, int, float]]:
    """Sorted, disjoint ``(start, end, weight)`` matches; earlier ``_SIGNALS`` win.

    A match that overlaps an accepted span is dropped. Accepted spans are
    disjoint, so only the one starting last before the match's end can overlap it.
    """
    starts: list[int] = []
    taken: list[tuple[int, int, float]] = []
    for pattern, weight in _SIGNALS:
        for match in pattern.finditer(text):
            start, end = match.span()
            i = bisect_left(starts, end)
            if i and taken[i - 1][1] > start:
                continue
            starts.insert(i, start)
            taken.insert(i, (start, end, weight))
    return taken


def _close_cluster(cluster: list[tuple[int, int, float]], section: Section) -> SegmentRegion | None:
    if not cluster:
        return None
    weight = sum(w for _, _, w in cluster)
    if weight < _MIN_CLUSTER_WEIGHT:
        return None
    start = max(section.start, section.start + cluster[0][0] - _REGION_PAD_BEFORE)
    end = min(section.end, section.start + cluster[-1][1] + _REGION_PAD_AFTER)
    item = section.item.number if section.item else None
    return SegmentRegion(item=item, start=start, end=end, confidence=min(1.0, weight / 6.0))


# -- serialization -----------------------------------------------------------


def to_json(parsed: ParsedFiling) -> dict:
    def section_dict(section: Section) -> dict:
        return {"start": section.start, "end": section.end, "text": section.text}

    ref = None
    if parsed.ref is not None:
        ref = {
            "cik": parsed.ref.cik,
            "fiscal_year": parsed.ref.fiscal_year,
            "accession_number": parsed.ref.accession_number,
            "document_url": parsed.ref.document_url,
            "primary_document": parsed.ref.primary_document,
            "amended": parsed.ref.amended,
        }
    return {
        "ref": ref,
        "char_count": parsed.char_count,
        "front_matter": section_dict(parsed.front_matter),
        "items": [
            {"item": number, "part": section.item.part, **section_dict(section)}
            for number, section in parsed.items.items()
        ],
        "tables": [
            {
                "table_id": t.table_id,
                "caption_text": t.caption_text,
                "header_rows": t.header_rows,
                "body_rows": t.body_rows,
                "numeric_cells": [
                    {"row": r, "col": c, "value": str(cell.value), "scale": cell.scale.value}
                    for (r, c), cell in sorted(t.numeric_cells.items())
                ],
                "item": t.item,
                "char_start": t.char_start,
                "scale": t.scale.value,
                "scale_assumed": t.scale_assumed,
            }
            for t in parsed.tables
        ],
    }


def from_json(data: dict) -> ParsedFiling:
    ref = None
    if data.get("ref"):
        r = data["ref"]
        ref = FilingRef(
            cik=r["cik"],
            fiscal_year=r["fiscal_year"],
            accession_number=r["accession_number"],
            document_url=r["document_url"],
            primary_document=r.get("primary_document", ""),
            amended=r.get("amended", False),
        )
    fm = data["front_matter"]
    front = Section(item=None, text=fm["text"], start=fm["start"], end=fm["end"])
    items = {
        entry["item"]: Section(
            item=ItemId.of(entry["item"]),
            text=entry["text"],
            start=entry["start"],
            end=entry["end"],
        )
        for entry in data["items"]
    }
    tables = [
        NormalizedTable(
            table_id=entry["table_id"],
            caption_text=entry["caption_text"],
            header_rows=entry["header_rows"],
            body_rows=entry["body_rows"],
            numeric_cells={
                (cell["row"], cell["col"]): CellValue(Decimal(cell["value"]), Scale(cell["scale"]))
                for cell in entry["numeric_cells"]
            },
            item=entry["item"],
            char_start=entry["char_start"],
            scale=Scale(entry["scale"]),
            scale_assumed=entry["scale_assumed"],
        )
        for entry in data["tables"]
    ]
    return ParsedFiling(
        ref=ref,
        front_matter=front,
        items=items,
        tables=tables,
        char_count=data["char_count"],
    )


def dump_json(parsed: ParsedFiling) -> str:
    return json.dumps(to_json(parsed), indent=2, sort_keys=True) + "\n"


def load_json(text: str) -> ParsedFiling:
    return from_json(json.loads(text))
