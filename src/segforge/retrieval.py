"""Cross-filing chunk index and lexical retrieval.

Filings are split into paragraph-aligned chunks with exact char ranges
back into the parsed text. Ranking is lexical: saturated term frequency
times inverse document frequency with length normalization. Two deliberate
departures from textbook BM25 keep scoring local to each chunk: idf is
ln(1 + 1/df) (no corpus-size term) and length normalization uses a fixed
reference length instead of the corpus average. Adding a chunk that shares
no terms with a query therefore cannot change any existing score, which
makes ranking stable as the corpus grows.

Scoring and chunk sizes are fixed module constants: ``K1``, ``B``,
``LEN_NORM_REF``, ``SEGMENT_BOOST``, ``MIN_CHARS`` and ``MAX_CHARS``.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import BudgetTooSmallError, SchemaError
from .parsing import FRONT_MATTER, ParsedFiling, locate_segment_regions
from .values import encode, load, read, write_atomic

_TOKEN_RE = re.compile(r"[a-z0-9]+")

K1 = 1.2  # term-frequency saturation
B = 0.75  # weight of length normalization
SEGMENT_BOOST = 1.5  # score multiplier for chunks overlapping a segment-note region
LEN_NORM_REF = 200  # reference chunk length in tokens
MIN_CHARS = 800  # chunk size bounds; only a section's last chunk may be shorter
MAX_CHARS = 1600


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.casefold())


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    cik: int
    fiscal_year: int
    item: str  # item number or "front_matter"
    char_range: tuple[int, int]
    text: str
    is_segment_region: bool

    @property
    def source(self) -> tuple[int, int]:
        return (self.cik, self.fiscal_year)


@dataclass(frozen=True)
class Partition:
    """One filing's entry in a saved index's catalog."""

    cik: int
    fiscal_year: int
    chunk_count: int

    @property
    def source(self) -> tuple[int, int]:
        return (self.cik, self.fiscal_year)

    @property
    def file_name(self) -> str:
        return f"{self.cik}_{self.fiscal_year}.chunks.json"


@dataclass(frozen=True)
class _Catalog:  # index.meta.json
    filings: list[Partition]  # in build order


@dataclass(frozen=True)
class RetrievalResult:
    query: str
    hits: list[tuple[str, float]]  # (chunk_id, score), scores non-increasing
    filter_used: dict | None


class ChunkIndex:
    """Chunks plus the term statistics that score them.

    ``chunk_terms``/``chunk_len`` may be omitted: a chunk's entries are then
    derived from its text when it is first scored. An index from
    ``load_index`` holds no chunk at first and reads each filing's chunk
    file when a query first needs it.
    """

    def __init__(self, chunks: list[Chunk], doc_freq: dict[str, int],
                 chunk_terms: list[dict[str, int] | None] | None = None,
                 chunk_len: list[int | None] | None = None):
        self.chunks = chunks
        self.doc_freq = doc_freq
        if chunk_terms is None:
            chunk_terms, chunk_len = [None] * len(chunks), [None] * len(chunks)
        self.chunk_terms = chunk_terms
        self.chunk_len = chunk_len

    @property
    def chunks(self) -> list[Chunk]:
        """Every chunk in build order, after reading any chunk file not read yet."""
        self._read(list(self._unread))
        return self._chunks

    @chunks.setter
    def chunks(self, chunks: list[Chunk]) -> None:
        self._chunks: list[Chunk | None] = chunks
        self._unread: dict[tuple[int, int], Path] = {}  # filing -> its chunk file
        self.__dict__.pop("_by_id", None)
        self.__dict__.pop("_by_filing", None)

    @cached_property
    def _by_id(self) -> dict[str, int]:
        return {chunk.chunk_id: i for i, chunk in enumerate(self._chunks)}

    @cached_property
    def _by_filing(self) -> dict[tuple[int, int], list[int] | range]:
        """Chunk positions per (cik, fiscal_year), ascending."""
        positions: dict[tuple[int, int], list[int]] = {}
        for i, chunk in enumerate(self._chunks):
            positions.setdefault(chunk.source, []).append(i)
        return positions

    @classmethod
    def _saved(cls, directory: Path, catalog: list[Partition],
               doc_freq: dict[str, int]) -> ChunkIndex:
        """An index over the chunk files the catalog lists, none of them read yet."""
        index = cls(chunks=[], doc_freq=doc_freq)
        index._by_id, index._by_filing = {}, {}  # ids as files are read; positions now
        for entry in catalog:
            if entry.source in index._unread:
                raise SchemaError(f"{directory / 'index.meta.json'}: cik {entry.cik}, "
                                  f"fiscal year {entry.fiscal_year} is listed twice")
            start = len(index._chunks)
            index._chunks += [None] * entry.chunk_count
            index._by_filing[entry.source] = range(start, len(index._chunks))
            index._unread[entry.source] = directory / entry.file_name
        index.chunk_terms = [None] * len(index._chunks)
        index.chunk_len = [None] * len(index._chunks)
        return index

    def _read(self, sources) -> None:
        """Read the chunk files of the filings in ``sources`` that are not read yet."""
        for source in sources:
            path = self._unread.get(source)
            if path is None:
                continue
            positions = self._by_filing[source]
            for i, chunk in zip(positions, _read_chunk_file(path, source, len(positions))):
                self._chunks[i] = chunk
                self._by_id[chunk.chunk_id] = i
            del self._unread[source]

    def _at(self, index: int) -> Chunk:
        """The chunk at ``index``; if its filing is not read yet, every unread file is read."""
        chunk = self._chunks[index]
        return self.chunks[index] if chunk is None else chunk

    def chunk(self, chunk_id: str) -> Chunk:
        if chunk_id not in self._by_id:
            self._read(list(self._unread))
        return self._chunks[self._by_id[chunk_id]]

    def terms(self, index: int) -> tuple[dict[str, int], int]:
        """One chunk's term counts and length, derived and kept on first use."""
        counts = self.chunk_terms[index]
        if counts is None:
            tokens = tokenize(self._at(index).text)
            counts, self.chunk_len[index] = dict(Counter(tokens)), len(tokens)
            self.chunk_terms[index] = counts
        return counts, self.chunk_len[index]

    def __len__(self) -> int:
        return len(self._chunks)

    def score(self, index: int, query_tokens: list[str]) -> float:
        """Score one chunk against deduplicated, sorted query tokens.

        Token order is the arithmetic order of the summation; callers must
        pass a sorted unique list so scores are bit-reproducible.
        """
        counts, length = self.terms(index)
        norm = 1.0 - B + B * (length / LEN_NORM_REF)
        total = 0.0
        for token in query_tokens:
            tf = counts.get(token, 0)
            if tf == 0:
                continue
            df = self.doc_freq.get(token, 0)
            idf = math.log(1.0 + 1.0 / df)
            total += idf * (tf * (K1 + 1.0)) / (tf + K1 * norm)
        if total > 0.0 and self._at(index).is_segment_region:
            total *= SEGMENT_BOOST
        return total


def _paragraph_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    for block in text.split("\n\n"):
        if block.strip():
            spans.append((pos, pos + len(block)))
        pos += len(block) + 2
    return spans


def _pack_spans(spans: list[tuple[int, int]], min_chars: int, max_chars: int) -> list[tuple[int, int]]:
    """Greedy paragraph packing into [min_chars, max_chars] blocks.

    A block only stays under min_chars when it is the last of its section;
    blocks that a single long paragraph pushes past max_chars are split
    evenly so no slice exceeds max_chars.
    """
    blocks: list[tuple[int, int]] = []
    cur: tuple[int, int] | None = None
    for span in spans:
        if cur is None:
            cur = span
        elif (cur[1] - cur[0]) < min_chars or (span[1] - cur[0]) <= max_chars:
            cur = (cur[0], span[1])
        else:
            blocks.append(cur)
            cur = span
    if cur is not None:
        blocks.append(cur)
    out: list[tuple[int, int]] = []
    for start, end in blocks:
        length = end - start
        if length <= max_chars:
            out.append((start, end))
            continue
        slices = -(-length // max_chars)
        size = -(-length // slices)
        for i in range(slices):
            out.append((start + i * size, min(start + (i + 1) * size, end)))
    return out


def build_index(filings: list[ParsedFiling]) -> ChunkIndex:
    """Chunk the filings and compute term statistics."""
    chunks: list[Chunk] = []
    seen: set[tuple[int, int]] = set()
    for parsed in filings:
        if parsed.ref is None:
            raise SchemaError("build_index needs filings with a FilingRef (cik and year)")
        cik = parsed.ref.cik
        fy = parsed.ref.fiscal_year
        if (cik, fy) in seen:  # their chunk ids and chunk files would collide
            raise SchemaError(f"build_index got two filings for cik {cik}, fiscal year {fy}")
        seen.add((cik, fy))
        regions = locate_segment_regions(parsed)
        seq = 0
        for section in parsed.sections():
            if not section.text.strip():
                continue
            local = _pack_spans(_paragraph_spans(section.text), MIN_CHARS, MAX_CHARS)
            item = section.item.number if section.item else FRONT_MATTER
            for start, end in local:
                g_start, g_end = section.start + start, section.start + end
                in_region = any(r.start < g_end and r.end > g_start for r in regions)
                chunks.append(
                    Chunk(
                        chunk_id=f"{cik}_{fy}_{seq:04d}",
                        cik=cik,
                        fiscal_year=fy,
                        item=item,
                        char_range=(g_start, g_end),
                        text=section.text[start:end],
                        is_segment_region=in_region,
                    )
                )
                seq += 1
    index = ChunkIndex(chunks=chunks, doc_freq={})
    for i in range(len(chunks)):
        for term in index.terms(i)[0]:
            index.doc_freq[term] = index.doc_freq.get(term, 0) + 1
    return index


def _years(wanted) -> set | list | tuple:
    return wanted if isinstance(wanted, (set, list, tuple)) else {wanted}


def _matches(chunk: Chunk, metadata_filter: dict | None) -> bool:
    if not metadata_filter:
        return True
    if "cik" in metadata_filter and chunk.cik != metadata_filter["cik"]:
        return False
    if "fiscal_year" in metadata_filter and \
            chunk.fiscal_year not in _years(metadata_filter["fiscal_year"]):
        return False
    if "item" in metadata_filter and chunk.item != metadata_filter["item"]:
        return False
    return True


def retrieve(index: ChunkIndex, query: str, k: int,
             metadata_filter: dict | None = None) -> RetrievalResult:
    """Top-k chunks by score; ties broken by (fiscal_year, chunk_id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_tokens = sorted(set(tokenize(query)))
    if metadata_filter and {"cik", "fiscal_year"} <= metadata_filter.keys():
        cik = metadata_filter["cik"]
        sources = [(cik, year) for year in _years(metadata_filter["fiscal_year"])]
        index._read(sources)
        candidates = sorted({i for source in sources for i in index._by_filing.get(source, ())})
    else:
        candidates = range(len(index.chunks))
    scored: list[tuple[float, int, str]] = []
    for i in candidates:
        chunk = index._chunks[i]
        if not _matches(chunk, metadata_filter):
            continue
        score = index.score(i, query_tokens)
        if score > 0.0:
            scored.append((score, chunk.fiscal_year, chunk.chunk_id))
    scored.sort(key=lambda row: (-row[0], row[1], row[2]))
    hits = [(chunk_id, score) for score, _, chunk_id in scored[:k]]
    filter_copy = dict(metadata_filter) if metadata_filter else None
    return RetrievalResult(query=query, hits=hits, filter_used=filter_copy)


@dataclass(frozen=True)
class ContextBlock:
    text: str
    chunk_ids: list[str]
    spans: list[tuple[str, int, int]]  # every char of text belongs to one chunk

    def provenance_of(self, position: int) -> str:
        for chunk_id, start, end in self.spans:
            if start <= position < end:
                return chunk_id
        raise IndexError(position)


def assemble_context(index: ChunkIndex, results: list[RetrievalResult],
                     budget_chars: int) -> ContextBlock:
    """Merge retrieval results into one grounded context under a budget.

    Chunks are deduplicated, ordered by (fiscal_year, score desc, chunk_id),
    and included greedily; a chunk that does not fit is skipped whole, so
    truncation only happens at chunk boundaries.
    """
    if budget_chars <= 0:
        raise ValueError("budget_chars must be positive")
    best: dict[str, float] = {}
    for result in results:
        for chunk_id, score in result.hits:
            if score > best.get(chunk_id, float("-inf")):
                best[chunk_id] = score
    ordered = sorted(
        best,
        key=lambda cid: (index.chunk(cid).fiscal_year, -best[cid], cid),
    )
    parts: list[str] = []
    spans: list[tuple[str, int, int]] = []
    chunk_ids: list[str] = []
    used = 0
    for chunk_id in ordered:
        chunk = index.chunk(chunk_id)
        header = f"[cik={chunk.cik}, fy={chunk.fiscal_year}, item={chunk.item}, chunk={chunk.chunk_id}]"
        block = f"{header}\n{chunk.text}\n\n"
        if used + len(block) > budget_chars:
            continue
        spans.append((chunk_id, used, used + len(block)))
        parts.append(block)
        chunk_ids.append(chunk_id)
        used += len(block)
    if not chunk_ids:
        raise BudgetTooSmallError(
            f"no retrieved chunk fits in a {budget_chars}-char budget"
        )
    return ContextBlock(text="".join(parts), chunk_ids=chunk_ids, spans=spans)


# -- persistence ---------------------------------------------------------------


def save_index(index: ChunkIndex, directory: str | Path) -> None:
    """Write one chunk file per filing, then index.bin, then the catalog.

    ``<cik>_<fiscal_year>.chunks.json`` holds a filing's chunks as a
    compact JSON list. ``index.bin`` holds ``doc_freq``, the document
    frequencies over all filings. ``index.meta.json`` is the catalog: each
    filing's cik, fiscal year and chunk count, in build order. Per-chunk
    term counts are not stored: they are a function of the chunk text, and
    a loaded index derives them when a chunk is first scored.

    Each file is replaced atomically, the catalog last; chunk files the
    new catalog does not list are then removed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_filing: dict[tuple[int, int], list[Chunk]] = {}
    for chunk in index.chunks:
        by_filing.setdefault(chunk.source, []).append(chunk)
    catalog = []
    for (cik, fiscal_year), chunks in by_filing.items():
        entry = Partition(cik=cik, fiscal_year=fiscal_year, chunk_count=len(chunks))
        write_atomic(directory / entry.file_name, json.dumps(chunks, default=encode))
        catalog.append(entry)
    write_atomic(directory / "index.bin", json.dumps({"doc_freq": index.doc_freq}, sort_keys=True))
    write_atomic(directory / "index.meta.json",
                 json.dumps(_Catalog(catalog), default=encode) + "\n")
    listed = {entry.file_name for entry in catalog}
    for path in directory.glob("*.chunks.json"):
        if path.name not in listed:
            path.unlink()


def _read_chunk_file(path: Path, source: tuple[int, int], count: int) -> list[Chunk]:
    try:
        chunks = read(list[Chunk], path)
    except OSError as exc:
        raise SchemaError(f"{path}: {type(exc).__name__}: {exc}") from exc
    if len(chunks) != count or any(chunk.source != source for chunk in chunks):
        raise SchemaError(f"{path}: the catalog lists {count} chunks of cik {source[0]}, "
                          f"fiscal year {source[1]}; the file does not hold them")
    return chunks


def load_index(directory: str | Path) -> ChunkIndex:
    """Open a saved index: read the catalog and index.bin, and no chunk file yet.

    A filing's chunk file is read through the codec when a query first
    needs one of its chunks, and is then checked against the catalog: its
    chunk count, and every chunk's cik and fiscal year. A ``retrieve``
    whose filter names ``cik`` and ``fiscal_year`` reads only those
    filings' files, and ``assemble_context`` over its hits reads no other.
    ``.chunks``, an unfiltered ``retrieve``, and a lookup of a chunk whose
    filing is not read yet read every file not read yet, in catalog order;
    ``len()`` is the catalog's total. A bad or missing chunk file raises
    SchemaError naming it when it is read. A catalog in the old
    single-file layout (one holding ``chunks``) raises SchemaError asking
    for a rebuild. Only ``doc_freq`` is read from index.bin.
    """
    directory = Path(directory)
    meta = directory / "index.meta.json"
    if "chunks" in read(dict, meta):
        raise SchemaError(f"{meta}: an index in the old single-file layout; "
                          "run `segforge index` again to rebuild it")
    catalog = read(_Catalog, meta).filings
    stats = directory / "index.bin"
    doc_freq = read(dict, stats).get("doc_freq")  # it may also hold per-chunk term counts
    try:
        doc_freq = load(dict[str, int], doc_freq)
    except SchemaError as exc:
        raise SchemaError(f"{stats}: doc_freq: {exc}") from exc
    return ChunkIndex._saved(directory, catalog, doc_freq)
