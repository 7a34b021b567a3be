"""Convert a raw 10-K (HTML or SGML text) into a normalized document.

Produces plain-text sections keyed by SEC item, tables lifted into a
normalized form, and the spans of likely segment disclosures.  Section offsets
partition the extracted text exactly: front matter plus the item sections
concatenate back to the full text with no characters lost or duplicated.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from html import unescape

from .edgar import CachedDocument, FilingRef
from .errors import EmptyDocumentError, NoItemsFoundError
from .values import Scale, encode, parse_table_cell

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

    def __post_init__(self):
        if _PART_OF.get(self.number) != self.part:
            raise ValueError(f"unknown 10-K item {self.number!r} in part {self.part!r}")

    @classmethod
    def of(cls, number: str) -> "ItemId":
        number = number.upper()
        return cls(part=_PART_OF.get(number, ""), number=number)


@dataclass(frozen=True)
class Section:
    """A contiguous slice of the extracted plain text."""

    item: ItemId | None
    text: str
    start: int
    end: int


@dataclass
class NormalizedTable:
    """A table's rows of cell text. A cell spanning n columns is followed by n - 1
    empty cells; a row holds only its own cells, so rows may differ in length."""

    table_id: str
    caption_text: str
    header_rows: list[list[str]]
    body_rows: list[list[str]]
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


# -- text assembly ---------------------------------------------------------


class _TextAssembler:
    """Builds normalized plain text while tracking exact char offsets."""

    def __init__(self):
        self._buf: list[str] = []
        self._len = 0
        self._line: list[str] = []
        self.add_text = self._line.append  # an empty piece adds nothing
        self._pending = 0  # newlines owed before the next committed line

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

    def finish(self) -> str:
        self._commit()
        text = "".join(self._buf)
        return text + "\n" if text else ""

    def _commit(self) -> None:
        line = self._line
        if not line:
            return
        content = " ".join((line[0] if len(line) == 1 else "".join(line)).split())
        line.clear()
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


class _RawCell:
    __slots__ = ("colspan", "is_header", "parts")

    def __init__(self, colspan: int, is_header: bool):
        self.colspan = colspan
        self.is_header = is_header
        self.parts: list[str] = []


@dataclass
class _TableFrame:
    char_start: int
    caption_parts: list[str] = field(default_factory=list)
    rows: list[list[_RawCell]] = field(default_factory=list)
    current_row: list[_RawCell] | None = None
    current_cell: _RawCell | None = None
    in_caption: bool = False


class _HtmlExtractor:
    """Builds the text and raw tables from the events of ``_tokenize``."""

    def __init__(self):
        self.assembler = _TextAssembler()
        self.raw_tables: list[_TableFrame] = []
        self._frames: list[_TableFrame] = []
        self._skip_depth = 0

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if tag == "table":
            self._frames.append(_TableFrame(self.assembler.mark()))
            return
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if tag == "caption":
                frame.in_caption = True
                return
            if tag == "tr":
                self._close_row(frame)
                frame.current_row = []
                self.assembler.break_line()
                return
            if tag in ("td", "th"):
                if frame.current_row is None:  # then no cell is open either
                    frame.current_row = []
                elif frame.current_cell is not None:  # closed without </td>, as HTML 4 allows
                    frame.current_row.append(frame.current_cell)
                    self.assembler.add_text(" ")  # as handle_endtag separates a closed cell
                frame.current_cell = _RawCell(_colspan(attrs) if attrs else 1, tag == "th")
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
            self._close_row(frame)
            self.raw_tables.append(frame)
            self.assembler.break_para()
            return
        frame = self._frames[-1] if self._frames else None
        if frame is not None:
            if tag == "caption":
                frame.in_caption = False
                return
            if tag == "tr":
                self._close_row(frame)
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

    @classmethod
    def _close_row(cls, frame: _TableFrame) -> None:
        cls._close_cell(frame)
        if frame.current_row is not None:
            frame.rows.append(frame.current_row)
        frame.current_row = None


def _colspan(attrs) -> int:
    for name, value in attrs:
        if name == "colspan":
            try:
                return max(1, min(int(value), 100))
            except (TypeError, ValueError):
                return 1
    return 1


# -- HTML tokenizer ----------------------------------------------------------
#
# The events that the standard library's HTMLParser of CPython 3.11.7 sends
# for one feed() of the whole document and a close(), with convert_charrefs
# on: data is unescaped, and split only where the events do not depend on
# it. Comments, declarations and processing instructions send nothing. Later
# CPython releases changed how HTMLParser ends a document, a comment and a
# script, so the parsed text is segforge's own, not the running Python's.

_NAME_RUN = re.compile(r"<[a-zA-Z][^\t\n\r\f />\x00]*")
_TAG_NAME = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTR = re.compile(r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*""")
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_END = re.compile(r"--\s*>")
_MARKED_NAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
_MARKED_END = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),
}
# Raw text ends only at its own end tag, in ASCII case.
_RAW_TEXT_END = {tag: re.compile(r"</\s*%s\s*>" % "".join(f"[{c}{c.upper()}]" for c in tag))
                 for tag in ("script", "style")}
_ATTR_TAGS = {"td", "th"}  # the only tags whose attributes are read (_colspan)
# A "<", and with it a start or end tag that has no attributes.
_MARKUP = re.compile(r"<(?:(/?)([a-zA-Z][a-zA-Z0-9]*)>)?")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _tokenize(raw: str, sink: _HtmlExtractor) -> None:
    """Send ``raw``'s start, start-end, end and data events to ``sink``.

    One ``_MARKUP`` search finds each "<" and, in the same step, a plain
    ``<name>`` or ``</name>`` (a name of ASCII letters and digits, no space,
    no attribute), whose event is sent at once; ``<script>`` and ``<style>``
    still open raw text through ``_start_tag``. The events are the ones the
    full path sends: on ``<name>``, ``_TAG_NAME`` stops at the ">", where no
    ``_ATTR`` can start and no ``ends`` key can sit, and ``_END_TAG`` takes
    the same name from ``</name>``. Every other "<" goes the full path.

    Attributes are read only for ``_ATTR_TAGS``; other tags get an empty
    list. No tag can end after the last ">", so ``_text_tail`` sends the rest
    from there; before it, every search for ">" finds one. ``ends`` and
    ``missing`` keep where searches found no end, so none is made twice.
    """
    data = sink.handle_data
    i, n = 0, len(raw)
    last_gt = raw.rfind(">")
    ends: dict[int, int] = {}
    missing: dict[re.Pattern, int] = {}
    search = _MARKUP.search
    while markup := search(raw, i):
        j = markup.start()
        if i < j:
            data(unescape(raw[i:j]))
        if j > last_gt:
            _text_tail(raw, j, data)
            return
        closing, name = markup.groups()
        if name:
            tag = name.lower()
            if closing:
                sink.handle_endtag(tag)
                i = markup.end()
                continue
            if tag not in _RAW_TEXT_END:
                sink.handle_starttag(tag, [])
                i = markup.end()
                continue
        i = j
        after = raw[i + 1:i + 2]
        if after in _LETTERS:
            k = _start_tag(raw, i, sink, ends)
        elif after == "/":  # "</>" and "</" before a non-letter send nothing
            match = _END_TAG.match(raw, i) or _TAG_NAME.match(raw, i + 2)
            if match:
                sink.handle_endtag(match.group(1).lower())
            k = raw.find(">", i + 1) + 1
        elif raw.startswith("<!--", i):
            k = _search_end(_COMMENT_END, raw, i + 4, missing)
        elif raw.startswith("<![", i):
            k = _marked_section(raw, i, missing)
        elif after in ("!", "?"):
            k = raw.find(">", i + 2) + 1
        else:
            data("<")
            k = i + 1
        if k < 0:  # an unterminated construct is text through the next ">"
            k = raw.find(">", i + 1) + 1
            data(unescape(raw[i:k]))
        i = k
    if i < n:
        data(unescape(raw[i:]))


def _text_tail(raw: str, i: int, data) -> None:
    """Send ``raw[i:]``, where no ">" follows, so that no tag can end there.

    It is all text, unescaped, except that a ``<name`` directly before a NUL
    is sent as it is. Every "<" inside one name run would get the same answer,
    so one pass over the runs replaces a tag match from each "<", which can
    read to the end of the document every time.
    """
    for run in _NAME_RUN.finditer(raw, i):
        end = run.end()
        if raw[end:end + 1] == "\x00" and not (raw[end - 1] in "'\"" or raw[end - 1].isspace()):
            if i < run.start():
                data(unescape(raw[i:run.start()]))
            data(run.group())
            i = end
    if i < len(raw):
        data(unescape(raw[i:]))


def _start_tag(raw: str, i: int, sink: _HtmlExtractor, ends: dict[int, int]) -> int:
    """Send the start tag at ``raw[i]``: one ``_ATTR`` match per attribute finds
    its end. Returns that end, -1, or the end of the text sent instead.

    A walk from an attribute start depends on that start alone, so ``ends``
    maps the starts of a walk that found no tag end to where it stopped.
    """
    head = _TAG_NAME.match(raw, i + 1)
    j = head.end()
    matches = []
    while j not in ends and (attr := _ATTR.match(raw, j)):
        matches.append(attr)
        j = attr.end()
    j = ends.get(j, j)
    if raw.startswith(">", j):
        end = j + 1
    elif raw.startswith("/>", j):
        end = j + 2
    else:
        ends.update((m.start(), j) for m in matches)
        after = raw[j:j + 1]
        if after in ("", "=") or after in _LETTERS:
            return -1
        sink.handle_data(raw[i:j])
        return j
    tag = head.group(1).lower()
    attrs: list[tuple[str, str | None]] = []
    for attr in matches if tag in _ATTR_TAGS else ():
        name, rest, value = attr.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == value[-1:] and value[:1] in ("'", '"'):
            value = value[1:-1]
        attrs.append((name.lower(), unescape(value) if value else value))
    if end == j + 2:
        sink.handle_startendtag(tag, attrs)
        return end
    sink.handle_starttag(tag, attrs)
    if tag not in _RAW_TEXT_END:
        return end
    match = _RAW_TEXT_END[tag].search(raw, end)
    if match is None:  # raw text left open runs to the end and is dropped
        return len(raw)
    if end < match.start():
        sink.handle_data(raw[end:match.start()])
    sink.handle_endtag(tag)
    return match.end()


def _marked_section(raw: str, i: int, missing: dict[re.Pattern, int]) -> int:
    """``<![name ...]]>`` or ``<![if ...]>``; any other ``<![`` ends at ``>``.

    HTMLParser raises ``AssertionError`` on the other ``<![`` forms; here
    they end at the next ``>``, as a declaration does.
    """
    name = _MARKED_NAME.match(raw, i + 3)
    close = name and _MARKED_END.get(name.group().strip().lower())
    if close is None:
        return raw.find(">", i + 2) + 1
    return _search_end(close, raw, i + 3, missing)


def _search_end(close: re.Pattern, raw: str, i: int, missing: dict[re.Pattern, int]) -> int:
    """The end of ``close``'s first match from ``i``, or -1. ``missing`` keeps the
    first start per pattern that found none, after which no search can find one."""
    if i < missing.get(close, i + 1) and (match := close.search(raw, i)):
        return match.end()
    missing.setdefault(close, i)
    return -1


_SCALE_HINT_RE = re.compile(r"in\s+(millions|thousands|billions)", re.IGNORECASE)


def _normalize_table(frame: _TableFrame, table_id: str, full_text: str) -> NormalizedTable | None:
    """``frame``'s rows as a table; a missing caption or scale is read before it.

    The caption is then the last non-empty line in the 400 characters before
    the table; the scale, in the 500 before the paragraph break that ends two
    characters before the table.
    """
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

    start = frame.char_start
    before = [line.strip() for line in full_text[max(0, start - 400):start].splitlines()]
    caption = " ".join("".join(frame.caption_parts).split()) or next(filter(None, reversed(before)), "")
    context = full_text[max(0, start - 502):max(0, start - 2)]
    hint = _SCALE_HINT_RE.search(caption) or _SCALE_HINT_RE.search(context)
    scale = Scale(hint.group(1).lower()) if hint else Scale.UNITS

    has_numbers = any(parse_table_cell(cell) is not None for cells in body_rows for cell in cells)
    return NormalizedTable(
        table_id=table_id,
        caption_text=caption,
        header_rows=header_rows,
        body_rows=body_rows,
        char_start=start,
        scale=scale,
        scale_assumed=hint is None and has_numbers,
    )


# -- SGML plain text -------------------------------------------------------

_TAG_RE = re.compile(r"<[^>]*>")


def _extract_sgml_text(text: str) -> str:
    assembler = _TextAssembler()
    cut = text.rfind(">") + 1  # no tag ends after the last ">"
    stripped = _TAG_RE.sub(" ", text[:cut]) + text[cut:]
    for line in stripped.splitlines():
        if line.strip():
            assembler.add_text(line)
            assembler.break_line()
        else:
            assembler.break_para()
    return assembler.finish()


# -- parse -----------------------------------------------------------------


def parse(doc: CachedDocument) -> ParsedFiling:
    """Extract normalized text, item sections, and tables from a filing."""
    return parse_text(_decode(doc.read_bytes()), media_kind=doc.media_kind, ref=doc.ref)


def parse_text(raw: str, media_kind: str = "html", ref: FilingRef | None = None) -> ParsedFiling:
    tables: list[NormalizedTable] = []
    if media_kind == "html":
        extractor = _HtmlExtractor()
        _tokenize(raw, extractor)
        full_text = extractor.assembler.finish()
        raw_tables = sorted(extractor.raw_tables, key=lambda f: f.char_start)
        for i, frame in enumerate(raw_tables):
            normalized = _normalize_table(frame, f"t{i:03d}", full_text)
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
    for encoding in ("utf-8", "cp1252"):
        try:
            return data.decode(encoding)
        except UnicodeDecodeError:
            continue
    return data.decode("latin-1")  # decodes any bytes


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


def _itemize_text(full_text: str) -> tuple[Section, dict[str, Section]]:
    """Split the text into front matter and SEC item sections.

    Raises NoItemsFoundError for non-standard filings; ``parse_text`` then
    falls back to whole-document mode.
    """
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
    later: set[str] = set()  # the numbers of every heading after the group
    for group in reversed(groups):
        numbers = {candidates[i][0] for i in group}
        if len(group) >= _TOC_MIN_ENTRIES and len(numbers & later) * 2 >= len(numbers):
            drop.update(group)
        later |= numbers
    return [c for i, c in enumerate(candidates) if i not in drop]


def _ascending_chain(candidates: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Longest catalog-ascending subsequence, preferring earliest offsets.

    Skips stray references and repeated page headers: repeats of an already
    accepted item cannot extend the chain, and the longest-chain criterion
    routes around isolated out-of-order mentions.
    """
    # Per catalog position, (length, -index) of the longest chain ending there so
    # far, earliest index first; (0, 1) stands for none, whose index is -1.
    best = [(0, 1)] * len(_ITEM_SEQ)
    prev: list[int] = []
    for i, (number, _) in enumerate(candidates):
        p = _CATALOG_POS[number]
        length, neg_j = max(best[:p], default=(0, 1))
        prev.append(-neg_j)
        best[p] = max(best[p], (length + 1, -i))
    chain = []
    end = -max(best)[1]
    while end != -1:
        chain.append(candidates[end])
        end = prev[end]
    return chain[::-1]


# -- segment region location ------------------------------------------------

# Matched against ``_fold_case`` text, not under re.IGNORECASE, so that sre can
# search for literal prefixes. The fold is exact: sre matches only İ, ı, ſ and
# the Kelvin sign (which lower() maps) to ASCII letters, and only İ changes
# length under lower(). The IGNORECASE originals are the oracle in the tests.
# Every pattern starts with a literal, so the original ``(?:asc|topic)\s*280``
# is two entries of one weight; no match of one overlaps a match of the other,
# so the two accept the spans the one did.
_SIGNALS: list[tuple[re.Pattern, float]] = [
    (re.compile(r"reportable\s+segments?"), 2.0),
    (re.compile(r"operating\s+segments?"), 1.5),
    (re.compile(r"segment\s+information"), 1.5),
    (re.compile(r"segment\s+reporting"), 1.5),
    (re.compile(r"asc\s*280"), 2.0),
    (re.compile(r"topic\s*280"), 2.0),
    (re.compile(r"sfas\s*(?:no\.?\s*)?131"), 1.5),
    (re.compile(r"segments?"), 0.25),
]
_CLUSTER_GAP = 1500
_REGION_PAD_BEFORE = 200
_REGION_PAD_AFTER = 800
_MIN_CLUSTER_WEIGHT = 0.5


def locate_segment_regions(parsed: ParsedFiling) -> list[tuple[int, int]]:
    """The ``(start, end)`` spans of likely segment disclosures, in document order.

    A span is a cluster of lexical signals whose weights reach
    ``_MIN_CLUSTER_WEIGHT``, padded and kept inside its section. Used to flag
    retrieval chunks only; extraction always works from the complete filing.
    """
    regions: list[tuple[int, int]] = []
    for section in parsed.sections():
        clusters: list[list[tuple[int, int, float]]] = []
        for hit in _signal_hits(section.text):
            if clusters and hit[0] - clusters[-1][-1][1] <= _CLUSTER_GAP:
                clusters[-1].append(hit)
            else:
                clusters.append([hit])
        regions += filter(None, (_close_cluster(cluster, section) for cluster in clusters))
    return regions


def _signal_hits(text: str) -> list[tuple[int, int, float]]:
    """Sorted, disjoint ``(start, end, weight)`` matches; earlier ``_SIGNALS`` win.

    A match that overlaps an accepted span is dropped. Each pattern's matches
    come sorted and disjoint, so they are merged into the accepted spans in one
    pass: only the span starting last before a match's end can overlap it.
    """
    folded = _fold_case(text)
    taken: list[tuple[int, int, float]] = []
    for pattern, weight in _SIGNALS:
        merged: list[tuple[int, int, float]] = []
        k = 0
        for match in pattern.finditer(folded):
            start, end = match.span()
            while k < len(taken) and taken[k][0] < end:
                merged.append(taken[k])
                k += 1
            if not merged or merged[-1][1] <= start:
                merged.append((start, end, weight))
        taken = merged + taken[k:]
    return taken


def _fold_case(text: str) -> str:
    return text.replace("İ", "i").lower().replace("ſ", "s").replace("ı", "i")


def _close_cluster(cluster: list[tuple[int, int, float]], section: Section) -> tuple[int, int] | None:
    if sum(w for _, _, w in cluster) < _MIN_CLUSTER_WEIGHT:
        return None
    return (max(section.start, section.start + cluster[0][0] - _REGION_PAD_BEFORE),
            min(section.end, section.start + cluster[-1][1] + _REGION_PAD_AFTER))


# -- serialization -----------------------------------------------------------


def dump_json(parsed: ParsedFiling) -> str:
    """Parsed-filing JSON: the dataclass fields, ``items`` in document order."""
    return json.dumps(parsed, default=encode) + "\n"
