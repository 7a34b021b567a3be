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
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import attrgetter
from pathlib import Path

from .errors import BudgetTooSmallError, SchemaError
from .parsing import FRONT_MATTER, ParsedFiling, locate_segment_regions
from .values import encode, load, read, write_atomic

# Keeps the bytes of a-z and 0-9 and maps every other byte to a space.
_SEPARATE = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20 for b in range(256))

K1 = 1.2  # term-frequency saturation
B = 0.75  # weight of length normalization
SEGMENT_BOOST = 1.5  # score multiplier for chunks overlapping a segment-note region
LEN_NORM_REF = 200  # reference chunk length in tokens
MIN_CHARS = 800  # chunk size bounds; only a section's last chunk may be shorter
MAX_CHARS = 1600


def tokenize(text: str) -> list[str]:
    """The runs of ``[a-z0-9]`` in the case-folded text, in order.

    Every character outside ASCII becomes ``?`` and then, like any other
    byte but a-z and 0-9, a space; the split then yields the runs.
    """
    return text.casefold().encode("ascii", "replace").translate(_SEPARATE).decode("ascii").split()


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
class _Stats:  # index.bin
    doc_freq: dict[str, int]


@dataclass(frozen=True)
class RetrievalResult:
    hits: list[tuple[str, float]]  # (chunk_id, score), scores non-increasing


class ChunkIndex:
    """Chunks plus the term statistics that score them.

    Built, constructed or loaded, an index is one structure: a catalog that
    maps each filing ``(cik, fiscal_year)`` to the range of its chunks'
    positions in one chunk list, plus the chunk files not read yet. The id
    ``f"{cik}_{fiscal_year}_{seq:04d}"`` names the ``seq``-th chunk of its
    filing, so a filing's chunks must be consecutive. Of the term
    statistics, an index from ``build_index`` or ``load_index`` holds only the
    document frequencies: ``chunk_terms``/``chunk_len`` start unset, and
    ``terms`` derives a chunk's counts and length from its text when it is
    first scored (a constructed index may pass them in). An index from
    ``load_index`` holds no chunk at first and reads each filing's chunk file
    when a query first needs it.
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
        self._partition([(source, len(list(run))) for source, run
                         in groupby(chunks, attrgetter("source"))], "ChunkIndex")

    def _partition(self, counts: list[tuple[tuple[int, int], int]], where: str | Path) -> int:
        """Give each filing in turn its next ``count`` positions; return the total."""
        self._filings: dict[tuple[int, int], range] = {}  # filing -> its chunks' positions
        stop = 0
        for source, count in counts:
            if source in self._filings:
                raise SchemaError(f"{where}: cik {source[0]}, fiscal year {source[1]} appears twice")
            self._filings[source] = range(stop, stop + count)
            stop += count
        return stop

    @classmethod
    def _saved(cls, directory: Path, catalog: list[Partition],
               doc_freq: dict[str, int]) -> ChunkIndex:
        """An index over the chunk files the catalog lists, none of them read yet."""
        index = cls(chunks=[], doc_freq=doc_freq)
        size = index._partition([(entry.source, entry.chunk_count) for entry in catalog],
                                directory / "index.meta.json")
        index._chunks, index.chunk_terms, index.chunk_len = [None] * size, [None] * size, [None] * size
        index._unread = {entry.source: directory / entry.file_name for entry in catalog}
        return index

    def _read(self, sources) -> None:
        """Read the chunk files of the filings in ``sources`` that are not read yet."""
        for source in sources:
            path = self._unread.get(source)
            if path is not None:
                positions = self._filings[source]
                self._chunks[positions.start:positions.stop] = \
                    _read_chunk_file(path, source, len(positions))
                del self._unread[source]

    def _at(self, index: int) -> Chunk:
        """The chunk at ``index``; if its filing is not read yet, every unread file is read."""
        chunk = self._chunks[index]
        return self.chunks[index] if chunk is None else chunk

    def chunk(self, chunk_id: str) -> Chunk:
        """The chunk with this id, found by the position the id names; only its
        own filing's chunk file is read. KeyError if no chunk has this id."""
        try:
            cik, fiscal_year, seq = map(int, chunk_id.split("_"))
            position = self._filings[cik, fiscal_year][seq]
        except (IndexError, KeyError, ValueError):
            raise KeyError(chunk_id) from None
        self._read([(cik, fiscal_year)])
        if self._chunks[position].chunk_id != chunk_id:  # a constructed index may hold any id
            raise KeyError(chunk_id)
        return self._chunks[position]

    def select(self, metadata_filter: dict | None) -> Iterator[tuple[int, Chunk]]:
        """Each chunk of the filings the filter admits, with its position, in build order.

        The filter's ``cik`` and ``fiscal_year`` (one year) pick the filings,
        and only their chunk files are read. A key the filter leaves out admits
        any value.
        """
        wanted = metadata_filter or {}
        sources = [(cik, year) for cik, year in self._filings
                   if wanted.get("cik", cik) == cik and wanted.get("fiscal_year", year) == year]
        self._read(sources)
        yield from ((i, self._chunks[i]) for source in sources for i in self._filings[source])

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
            if df == 0:
                raise SchemaError(f"chunk {self._at(index).chunk_id} holds the term {token!r}, "
                                  "which the index's document frequencies do not count; "
                                  "run `segforge index` again to rebuild it")
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


def build_index(filings: Iterable[ParsedFiling]) -> ChunkIndex:
    """Chunk the filings, in the order given, and count each term's document frequency.

    ``filings`` may be any iterable, such as a generator that reads one
    filing at a time: each is chunked when it is drawn, and the index keeps
    its chunks but not the filing. A chunk's term counts are not kept: as in
    a loaded index, they are derived from its text when it is first scored.
    """
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
        in_region = _overlap_test(locate_segment_regions(parsed))
        seq = 0
        for section in parsed.sections():
            if not section.text.strip():
                continue
            local = _pack_spans(_paragraph_spans(section.text), MIN_CHARS, MAX_CHARS)
            item = section.item.number if section.item else FRONT_MATTER
            for start, end in local:
                g_start, g_end = section.start + start, section.start + end
                chunks.append(
                    Chunk(
                        chunk_id=f"{cik}_{fy}_{seq:04d}",
                        cik=cik,
                        fiscal_year=fy,
                        item=item,
                        char_range=(g_start, g_end),
                        text=section.text[start:end],
                        is_segment_region=in_region(g_start, g_end),
                    )
                )
                seq += 1
    # dict.fromkeys, not set: a chunk's distinct terms in first-seen order keep doc_freq's order fixed.
    return ChunkIndex(chunks=chunks, doc_freq=dict(Counter(chain.from_iterable(
        dict.fromkeys(tokenize(chunk.text)) for chunk in chunks))))


def _overlap_test(regions: list[tuple[int, int]]) -> Callable[[int, int], bool]:
    """``test(start, end)``, which is ``any(a < end and b > start for a, b in
    regions)``: one bisection over the regions sorted by start."""
    ordered = sorted(regions)
    starts = [start for start, _ in ordered]
    # reach[j] is the furthest end among ordered[:j + 1].
    reach = list(accumulate((end for _, end in ordered), max))
    return lambda start, end: (k := bisect_left(starts, end)) > 0 and reach[k - 1] > start


def retrieve(index: ChunkIndex, query: str, k: int,
             metadata_filter: dict | None = None) -> RetrievalResult:
    """Top-k chunks by score; ties broken by (fiscal_year, chunk_id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_tokens = sorted(set(tokenize(query)))
    scored: list[tuple[float, int, str]] = []
    for i, chunk in index.select(metadata_filter):
        score = index.score(i, query_tokens)
        if score > 0.0:
            scored.append((score, chunk.fiscal_year, chunk.chunk_id))
    scored.sort(key=lambda row: (-row[0], row[1], row[2]))
    return RetrievalResult(hits=[(chunk_id, score) for score, _, chunk_id in scored[:k]])


@dataclass(frozen=True)
class ContextBlock:
    text: str
    chunk_ids: list[str]


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
    chunk_ids: list[str] = []
    used = 0
    for chunk_id in ordered:
        chunk = index.chunk(chunk_id)
        header = f"[cik={chunk.cik}, fy={chunk.fiscal_year}, item={chunk.item}, chunk={chunk.chunk_id}]"
        block = f"{header}\n{chunk.text}\n\n"
        if used + len(block) > budget_chars:
            continue
        parts.append(block)
        chunk_ids.append(chunk_id)
        used += len(block)
    if not chunk_ids:
        raise BudgetTooSmallError(
            f"no retrieved chunk fits in a {budget_chars}-char budget"
        )
    return ContextBlock(text="".join(parts), chunk_ids=chunk_ids)


# -- persistence ---------------------------------------------------------------


def save_index(index: ChunkIndex, directory: str | Path) -> list[Path]:
    """Write one chunk file per filing, then index.bin, then the catalog; the
    paths written, in that order.

    ``<cik>_<fiscal_year>.chunks.json`` holds a filing's chunks as a
    compact JSON list. ``index.bin`` holds ``doc_freq``, the document
    frequencies over all filings. ``index.meta.json`` is the catalog: each
    filing's cik, fiscal year and chunk count, in build order. Per-chunk
    term counts are not stored: they are a function of the chunk text, and
    a built or loaded index derives them when a chunk is first scored.

    Each file is replaced atomically, the catalog last; chunk files the
    new catalog does not list are then removed.
    """
    directory = Path(directory)
    chunks, catalog = index.chunks, []
    for (cik, fiscal_year), positions in index._filings.items():
        entry = Partition(cik=cik, fiscal_year=fiscal_year, chunk_count=len(positions))
        write_atomic(directory / entry.file_name,
                     json.dumps(chunks[positions.start:positions.stop], default=encode))
        catalog.append(entry)
    write_atomic(directory / "index.bin", json.dumps(_Stats(index.doc_freq), default=encode,
                                                     sort_keys=True))
    write_atomic(directory / "index.meta.json",
                 json.dumps(_Catalog(catalog), default=encode) + "\n")
    listed = {entry.file_name for entry in catalog}
    for path in directory.glob("*.chunks.json"):
        if path.name not in listed:
            path.unlink()
    return [*(directory / entry.file_name for entry in catalog),
            directory / "index.bin", directory / "index.meta.json"]


def _read_chunk_file(path: Path, source: tuple[int, int], count: int) -> list[Chunk]:
    try:
        chunks = read(list[Chunk], path)
    except OSError as exc:
        raise SchemaError(f"{path}: {type(exc).__name__}: {exc}") from exc
    cik, fiscal_year = source
    if len(chunks) != count or any(chunk.source != source or
                                   chunk.chunk_id != f"{cik}_{fiscal_year}_{seq:04d}"
                                   for seq, chunk in enumerate(chunks)):
        raise SchemaError(f"{path}: the catalog lists {count} chunks of cik {cik}, fiscal year "
                          f"{fiscal_year}, ids {cik}_{fiscal_year}_0000 on; the file does not hold them")
    return chunks


def load_index(directory: str | Path) -> ChunkIndex:
    """Open a saved index: read the catalog and index.bin, and no chunk file yet.

    A filing's chunk file is read through the codec when a query first
    needs one of its chunks, and is then checked against the catalog: its
    chunk count, and every chunk's cik, fiscal year and id. ``retrieve``
    reads only the files of the filings its filter's ``cik`` and
    ``fiscal_year`` pick, and ``chunk(id)`` only its own filing's file;
    ``.chunks`` and a ``retrieve`` whose filter names neither read every
    file not read yet, in catalog order. ``len()`` is the catalog's total.
    A bad or missing chunk file raises SchemaError naming it when it is
    read. A catalog in the old single-file layout (one holding ``chunks``)
    raises SchemaError asking for a rebuild.
    """
    directory = Path(directory)
    meta = directory / "index.meta.json"
    catalog = read(dict, meta)
    if "chunks" in catalog:
        raise SchemaError(f"{meta}: an index in the old single-file layout; "
                          "run `segforge index` again to rebuild it")
    try:
        catalog = load(_Catalog, catalog).filings
    except SchemaError as exc:
        raise SchemaError(f"{meta}: {exc}") from exc
    doc_freq = read(_Stats, directory / "index.bin").doc_freq
    return ChunkIndex._saved(directory, catalog, doc_freq)
