"""Seeded synthetic 10-K corpus for the benchmark.

Every filing is a pure function of ``(seed, FilingPlan)``: the same seed
gives byte-identical HTML. The shapes follow ``tests/filingfab.py`` (item
headings at line starts, a segment note in Item 8, revenue tables with an
"in millions" hint) scaled up with seeded filler prose and financial tables
to real 10-K sizes. Four generator parameters set the cost profile:

* ``target_bytes`` - size of the HTML document;
* ``tables`` - number of ``<table>`` elements, the segment table included;
* ``signal_per_10kb`` - segment-signal phrases ("reportable segments",
  "ASC 280", "segment", ...) per 10,000 bytes of the whole filing, the
  input that ``parsing.locate_segment_regions`` scans;
* ``signal_item`` - the item whose filler prose carries all of them.

The benchmark's profile (44 phrases per 10 kB, all in Item 7) reproduces
the ``build_index`` times of ROADMAP item 1. Those were measured on
``filingfab.avy_10k_html`` scaled with filler paragraphs and segment
tables into one section: 0.24 s at 0.4 MB, 2.41 s at 1.6 MB and 8.82 s at
3.1 MB. Nearly all of that time is the pairwise overlap test in
``parsing._signal_hits``, about 40 ns per pair of signal hits in one
section, which puts those filings at about one hit per 200 bytes in a
single section. This generator at 44 per 10 kB in Item 7 gives 0.20 to
0.25 s at 0.4 MB, 2.0 to 2.4 s at 1.6 MB and 8.1 to 9.2 s at 3.1 MB on a
2-vCPU x86-64 machine whose parse times match the ROADMAP's.

The program under test receives only the generated bytes (through the
fixture transport); the plans stay inside the benchmark as the oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import filingfab

SINGLE = "single"
MULTI = "multi"
NESTED = "nested"

# Item headings every generated filing carries, in document order. A table
# of contents listing them precedes the body; the parser must drop it.
PLANTED_ITEMS = ["1", "1A", "2", "3", "7", "7A", "8", "9A"]
_ITEM_TITLES = {
    "1": "Business",
    "1A": "Risk Factors",
    "2": "Properties",
    "3": "Legal Proceedings",
    "7": "Management's Discussion and Analysis of Financial Condition and Results of Operations",
    "7A": "Quantitative and Qualitative Disclosures About Market Risk",
    "8": "Financial Statements and Supplementary Data",
    "9A": "Controls and Procedures",
}
# Share of the filler bytes and of the non-segment tables per item.
_PROSE_SHARE = {"1": 0.15, "1A": 0.20, "2": 0.02, "3": 0.02, "7": 0.30,
                "7A": 0.04, "8": 0.24, "9A": 0.03}
_TABLE_SHARE = {"2": 0.04, "7": 0.40, "7A": 0.04, "8": 0.52}

_SIGNAL_PHRASES = [
    "reportable segments", "reportable segment", "operating segments",
    "segment information", "segment reporting", "ASC 280", "segment",
    "each segment", "segment results",
]
_WORDS = (
    "revenue margin demand customers pricing supply inventory capital liquidity "
    "currency exposure contracts backlog distribution manufacturing facilities "
    "regulation compliance litigation taxes pension goodwill impairment leases "
    "depreciation amortization receivables payables credit facility covenants "
    "dividends repurchases acquisitions integration restructuring severance "
    "productivity automation logistics freight energy commodity suppliers "
    "warranty returns channel partners subscriptions services licenses "
    "research development engineering patents cybersecurity personnel "
    "retention incentive compensation audit controls estimates judgments "
    "assumptions volatility interest hedging derivatives translation "
    "operations performance growth decline quarter annual fiscal management "
    "board committee shareholders market conditions economic outlook"
).split()
_TABLE_CAPTIONS = [
    "Consolidated statements of operations", "Selected balance sheet data",
    "Components of other income", "Property, plant and equipment",
    "Changes in goodwill", "Income tax provision", "Stock-based compensation",
    "Contractual obligations", "Accrued liabilities", "Inventories",
    "Long-term debt maturities", "Lease cost", "Restructuring reserve",
]
_LINE_ITEMS = (
    "Net sales|Cost of sales|Gross profit|Research and development|Selling and "
    "administrative|Operating income|Interest expense|Other income|Income before "
    "taxes|Provision for taxes|Net income|Cash and equivalents|Receivables|"
    "Inventories|Goodwill|Total assets|Current liabilities|Long-term debt|"
    "Shareholders' equity|Capital expenditures"
).split("|")
_SEGMENT_WORDS = (
    "Materials|Solutions|Industrial|Consumer|Healthcare|Energy|Mobility|Digital|"
    "Packaging|Retail|Commercial|Aerospace|Networks|Devices|Services|Specialty|"
    "Performance|Advanced|Enterprise|Infrastructure|Life Sciences|Analytics"
).split("|")
_COMPONENT_WORDS = ["Cloud", "Subscriptions", "Licenses", "Hardware", "Software",
                    "Platform", "Products"]


@dataclass(frozen=True)
class FilingPlan:
    """What one generated filing discloses; the benchmark's oracle."""

    cik: int
    fiscal_year: int
    company: str
    kind: str  # SINGLE | MULTI | NESTED
    segments: tuple[tuple[str, int], ...] = ()
    nested: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = ()
    target_bytes: int = 60_000
    tables: int = 8
    signal_per_10kb: float = 44.0
    signal_item: str = "7"
    # Segment whose revenue answer is malformed on the first try, so the
    # extraction takes its format-retry path once for this filing.
    malformed_revenue_of: str | None = None

    @property
    def accession(self) -> str:
        return f"{self.cik:010d}-{self.fiscal_year % 100:02d}-{self.cik % 1_000_000:06d}"

    @property
    def document(self) -> str:
        return f"f{self.cik}-{self.fiscal_year}1231.htm"

    @property
    def revt(self) -> int:
        """Consolidated revenue in millions; single-unit filings report a fixed amount."""
        return sum(amount for _, amount in self.segments) if self.segments else 50_000


def plan_firm(rng: random.Random, cik: int, year: int, kind: str, n_segments: int,
              *, target_bytes: int, tables: int, signal_per_10kb: float,
              signal_item: str = "7", malformed: bool = False) -> FilingPlan:
    """Draw seeded segment names and revenues for one firm-year."""
    words = rng.sample(_SEGMENT_WORDS, n_segments + 1)
    company = f"{words[-1]} Holdings {cik % 1000:03d} Inc."
    segments: tuple[tuple[str, int], ...] = ()
    nested: tuple = ()
    if kind != SINGLE:
        segments = tuple((f"{word} Group", rng.randrange(400, 20_000)) for word in words[:-1])
    if kind == NESTED:
        parent, parent_rev = segments[0]
        comps = rng.sample(_COMPONENT_WORDS, 2)
        first = rng.randrange(parent_rev // 4, 3 * parent_rev // 4)
        nested = ((parent, ((f"{parent.split()[0]} {comps[0]}", first),
                            (f"{parent.split()[0]} {comps[1]}", parent_rev - first))),)
    return FilingPlan(
        cik=cik, fiscal_year=year, company=company, kind=kind, segments=segments,
        nested=nested, target_bytes=target_bytes, tables=tables,
        signal_per_10kb=signal_per_10kb, signal_item=signal_item,
        malformed_revenue_of=segments[-1][0] if malformed and segments else None,
    )


# -- HTML -----------------------------------------------------------------------


class _Prose:
    """Seeded sentence pools; paragraphs are drawn from them quickly.

    ``paragraph(quota)`` spreads ``quota.phrases`` signal phrases evenly
    over ``quota.nbytes`` bytes of prose: every seed plants the same number
    of phrases, and (since sentences with phrases are taken from their pool
    in turn, and phrases go round ``_SIGNAL_PHRASES`` in order) the same mix
    of them. The cost of the signal scan depends on both.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pools: dict[int, list[str]] = {}
        self.turns: dict[int, int] = {}
        self.placed = 0

    def _pool(self, phrases: int) -> list[str]:
        if phrases not in self.pools:
            size = 8 * len(_SIGNAL_PHRASES) if phrases else 256
            self.pools[phrases] = [self._sentence(phrases) for _ in range(size)]
        return self.pools[phrases]

    def _sentence(self, phrases: int) -> str:
        words = [self.rng.choice(_WORDS) for _ in range(self.rng.randrange(10, 20))]
        for _ in range(phrases):
            phrase = _SIGNAL_PHRASES[self.placed % len(_SIGNAL_PHRASES)]
            self.placed += 1
            words.insert(self.rng.randrange(1, len(words)), phrase)
        return " ".join(words).capitalize() + "."

    def paragraph(self, quota: "_Quota | None" = None) -> str:
        parts = []
        for _ in range(self.rng.randrange(4, 9)):
            phrases = quota.due() if quota else 0
            pool = self._pool(phrases)
            if phrases:
                turn = self.turns.get(phrases, 0)
                self.turns[phrases] = turn + 1
                sentence = pool[turn % len(pool)]
            else:
                sentence = self.rng.choice(pool)
            parts.append(sentence)
            if quota:
                quota.seen += len(sentence) + 1
        return "<p>" + " ".join(parts) + "</p>\n"


class _Quota:
    """``phrases`` signal phrases to spread over ``nbytes`` bytes of prose."""

    def __init__(self, phrases: float, nbytes: int):
        self.phrases, self.nbytes = phrases, max(1, nbytes)
        self.seen = 0
        self.placed = 0

    def due(self) -> int:
        """Phrases for the next sentence, so the count keeps pace with the bytes."""
        want = round(self.phrases * min(1.0, self.seen / self.nbytes))
        due = max(0, want - self.placed)
        self.placed += due
        return due


def _amount(rng: random.Random) -> str:
    value = rng.randrange(1, 90_000)
    return f"({value:,})" if rng.random() < 0.1 else f"{value:,}"


def _filler_table(rng: random.Random, year: int) -> str:
    caption = rng.choice(_TABLE_CAPTIONS)
    rows = "".join(
        f"<tr><td>{label}</td><td>{_amount(rng)}</td><td>{_amount(rng)}</td>"
        f"<td>{_amount(rng)}</td></tr>\n"
        for label in rng.sample(_LINE_ITEMS, rng.randrange(4, 11))
    )
    return (
        f"<p>{caption} (in millions)</p>\n<table>\n"
        f"<tr><th></th><th>{year}</th><th>{year - 1}</th><th>{year - 2}</th></tr>\n"
        f"{rows}</table>\n"
    )


def _segment_section(plan: FilingPlan) -> str:
    if plan.kind == SINGLE:
        return (
            "<p>The company operates as a single reporting unit and its chief "
            "operating decision maker reviews results on a consolidated basis.</p>\n"
        )
    names = [name for name, _ in plan.segments]
    html = (
        "<p>Note 15. Segment Information</p>\n"
        f"<p>The company's reportable segments for fiscal {plan.fiscal_year} were: "
        f"{'; '.join(names)}. Segment revenue presented in millions below is the "
        "measure reviewed by the chief operating decision maker (in millions).</p>\n"
        + filingfab._segment_table(list(plan.segments), "Total net sales")
    )
    for parent, comps in plan.nested:
        bits = " and ".join(f"{name} ({filingfab.money_text(rev)})" for name, rev in comps)
        html += (
            f"<p>Within the {parent} reportable segment, the company discloses "
            f"revenue disaggregated between {bits}.</p>\n"
        )
    return html


def _business_intro(plan: FilingPlan) -> str:
    if plan.kind == SINGLE:
        return f"<p>{plan.company} designs, manufactures and sells its products worldwide.</p>\n"
    names = [name for name, _ in plan.segments]
    return (
        f"<p>{plan.company} manages its operations in {len(names)} reportable "
        f"segments: {', '.join(names)}.</p>\n"
    )


# Separates the table of contents from the first item heading by more than
# the parser's table-of-contents gap, as the cautionary note in a real 10-K does.
_FORWARD_LOOKING = (
    "<p>This Annual Report on Form 10-K contains forward-looking statements "
    "that involve risks and uncertainties. Words such as expects, anticipates, "
    "intends, plans, believes, seeks and estimates identify such statements, "
    "which are not guarantees of future performance. Actual results may differ "
    "materially from those expressed or implied by forward-looking statements "
    "because of the factors described under risk factors and elsewhere in this "
    "report. The company assumes no obligation to revise or update any "
    "forward-looking statement for any reason, except as required by law.</p>\n"
)


def filing_html(seed: int, plan: FilingPlan) -> str:
    """Render one filing. Deterministic in (seed, plan)."""
    rng = random.Random(f"segforge-perfbench:{seed}:{plan.cik}:{plan.fiscal_year}")
    prose = _Prose(rng)
    filler_tables = max(0, plan.tables - (0 if plan.kind == SINGLE else 1))
    table_counts = {item: int(filler_tables * share) for item, share in _TABLE_SHARE.items()}
    table_counts["8"] += filler_tables - sum(table_counts.values())

    head = (
        "<html><head><title>Annual Report</title></head><body>\n"
        "<p>UNITED STATES SECURITIES AND EXCHANGE COMMISSION</p>\n"
        "<p>FORM 10-K</p>\n"
        f"<p>For the fiscal year ended December 31, {plan.fiscal_year}</p>\n"
        f"<p>{plan.company}</p>\n"
        "<p>Table of Contents</p>\n"
        + "".join(f"<div>Item {n}. {_ITEM_TITLES[n]}</div>\n" for n in PLANTED_ITEMS)
        + _FORWARD_LOOKING
    )
    fixed = {"1": _business_intro(plan), "8": _segment_section(plan)}
    budget = max(0, plan.target_bytes - len(head) - sum(len(v) for v in fixed.values()))
    # Filler tables take their share of the byte budget before prose does.
    body_parts = []
    tables_html = {
        item: [_filler_table(rng, plan.fiscal_year) for _ in range(table_counts.get(item, 0))]
        for item in PLANTED_ITEMS
    }
    budget -= sum(len(t) for ts in tables_html.values() for t in ts)
    for number in PLANTED_ITEMS:
        parts = [f"<p>Item {number}. {_ITEM_TITLES[number]}</p>\n", fixed.get(number, "")]
        prose_bytes = int(budget * _PROSE_SHARE[number])
        quota = None
        if number == plan.signal_item:
            quota = _Quota(plan.signal_per_10kb * plan.target_bytes / 10_000, prose_bytes)
        paragraphs: list[str] = []
        size = 0
        while size < prose_bytes:
            paragraph = prose.paragraph(quota)
            paragraphs.append(paragraph)
            size += len(paragraph)
        tables = tables_html[number]
        # Interleave tables evenly through the item's prose.
        step = max(1, len(paragraphs) // (len(tables) + 1)) if tables else 0
        for i, paragraph in enumerate(paragraphs):
            parts.append(paragraph)
            if tables and step and (i + 1) % step == 0:
                parts.append(tables.pop())
        parts.extend(tables)
        body_parts.append("".join(parts))
    return head + "".join(body_parts) + "</body></html>\n"


# -- corpus on disk -----------------------------------------------------------------


@dataclass
class Corpus:
    """Generated filings written as an EDGAR fixture tree (index.json + docs)."""

    hashes: dict[tuple[int, int], str] = field(default_factory=dict)
    sizes: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        """Digest over every document, in (cik, year) order; pins the generator output."""
        digest = hashlib.sha256()
        for key in sorted(self.hashes):
            digest.update(self.hashes[key].encode())
        return digest.hexdigest()


def write_corpus(root: Path, seed: int, plans: list[FilingPlan],
                 extra_docs: dict[str, tuple[int, int, str]] | None = None) -> Corpus:
    """Write every planned filing plus ``extra_docs`` under ``root``.

    ``extra_docs`` maps a document name to ``(cik, fiscal_year, html)`` for
    filings made elsewhere (the paper fixtures from ``filingfab``).
    """
    root.mkdir(parents=True, exist_ok=True)
    corpus = Corpus()
    index: dict[str, dict] = {}

    def put(cik: int, year: int, doc: str, accession: str, html: str) -> None:
        data = html.encode("utf-8")
        (root / doc).write_bytes(data)
        corpus.hashes[(cik, year)] = hashlib.sha256(data).hexdigest()
        corpus.sizes[(cik, year)] = len(data)
        index.setdefault(str(cik), {"filings": []})["filings"].append({
            "form": "10-K",
            "accession_number": accession,
            "period_of_report": f"{year}-12-31",
            "primary_document": doc,
            "filing_date": f"{year + 1}-02-20",
        })

    for plan in plans:
        put(plan.cik, plan.fiscal_year, plan.document, plan.accession, filing_html(seed, plan))
    for doc, (cik, year, html) in sorted((extra_docs or {}).items()):
        put(cik, year, doc, f"{cik:010d}-{(year + 1) % 100:02d}-{100000 + year:06d}", html)
    (root / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True),
                                     encoding="utf-8")
    return corpus


def pad_filing(html: str, seed: int, key: str, extra_bytes: int,
               signal_per_10kb: float) -> str:
    """Insert seeded filler prose ahead of the Item 7 and Item 8 headings.

    Each half carries ``signal_per_10kb`` signal phrases per 10 kB of pad.

    Scales a small fixture filing (``filingfab.avy_10k_html``) without
    touching the sentences and tables its scripts and oracles rely on.
    """
    rng = random.Random(f"segforge-perfbench-pad:{seed}:{key}")
    prose = _Prose(rng)
    for heading in ("<p>Item 7.", "<p>Item 8."):
        quota = _Quota(signal_per_10kb * extra_bytes / 20_000, extra_bytes // 2)
        paragraphs: list[str] = []
        size = 0
        while size < extra_bytes // 2:
            paragraphs.append(prose.paragraph(quota))
            size += len(paragraphs[-1])
        html = html.replace(heading, "".join(paragraphs) + heading, 1)
    return html
