"""Fetch and cache Form 10-K filings by firm identifier and fiscal year.

Documents come either from the live EDGAR system (explicitly enabled) or
from a local fixture directory holding an index snapshot plus documents.
All transport calls pass through a shared rate limiter and retry loop;
fetched bytes land in an on-disk cache keyed by accession number.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import (
    AmbiguousFilingError,
    CacheWriteError,
    NetworkError,
    NotFoundError,
    SchemaError,
)
from .values import encode, load, write_atomic

logger = logging.getLogger(__name__)

EARLIEST_FISCAL_YEAR = 1993  # 10-K coverage on EDGAR starts here

ACCESSION_RE = re.compile(r"^\d{10}-\d{2}-\d{6}$")

SUBMISSIONS_URL = "https://data.sec.gov/submissions/CIK{cik:010d}.json"
ARCHIVES_URL = "https://www.sec.gov/Archives/edgar/data/{cik}/{acc}/{doc}"


@dataclass(frozen=True)
class FilingRef:
    """Identity of one resolved 10-K filing."""

    cik: int
    fiscal_year: int
    accession_number: str
    document_url: str
    primary_document: str = ""
    amended: bool = False

    def __post_init__(self):
        if self.cik <= 0:
            raise ValueError(f"cik must be positive, got {self.cik}")
        current_year = datetime.now(timezone.utc).year
        if not EARLIEST_FISCAL_YEAR <= self.fiscal_year <= current_year:
            raise ValueError(f"fiscal_year {self.fiscal_year} outside [{EARLIEST_FISCAL_YEAR}, {current_year}]")
        if not ACCESSION_RE.match(self.accession_number):
            raise ValueError(f"malformed accession number {self.accession_number!r}")


@dataclass(frozen=True)
class CachedDocument:
    """A fetched filing on local disk, with integrity metadata.

    The cache's meta.json beside the document holds every field but ``path``.
    """

    ref: FilingRef
    content_hash: str  # sha256 hex of raw bytes
    byte_length: int
    media_kind: str  # "html" | "sgml_text"
    path: Path
    fetched_at: str = ""  # wall clock of the transport fetch; never reaches a run directory

    def read_bytes(self) -> bytes:
        data = self.path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.content_hash:
            raise CacheWriteError(
                f"cache corruption at {self.path}: stored hash {self.content_hash}, recomputed {digest}"
            )
        return data


class SystemClock:
    """Wall clock used outside tests; tests substitute a fake."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class RateLimiter:
    """Admit at most ``rate`` calls per second, evenly spaced.

    Grants are at least ``1/rate`` seconds apart, so no sliding one-second
    window ever sees more than ``rate`` admissions.  Thread-safe.
    """

    def __init__(self, rate: float, clock=None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self._interval = 1.0 / rate
        self._clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._next_free = 0.0

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock.monotonic()
                if now >= self._next_free:
                    self._next_free = max(now, self._next_free) + self._interval
                    return
                wait = self._next_free - now
            self._clock.sleep(wait)


class FixtureTransport:
    """Serve submissions and documents from a local fixture directory.

    Layout: ``<dir>/index.json`` maps str(cik) -> {"filings": [...]}, where
    each filing carries form, accession_number, period_of_report,
    primary_document, and filing_date; documents live beside the index
    under their primary_document name.
    """

    def __init__(self, fixture_dir: str | Path):
        self.dir = Path(fixture_dir)
        path = self.dir / "index.json"
        try:
            self._index = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(self._index, dict):
            raise SchemaError(f"{path}: expected an object of cik -> submissions")

    def get_submissions(self, cik: int) -> dict:
        entry = self._index.get(str(cik))
        if entry is None:
            raise NotFoundError(f"cik {cik} not in fixture index")
        return entry

    def get_document(self, ref: FilingRef) -> bytes:
        path = self.dir / ref.primary_document
        if not path.exists():
            raise NotFoundError(f"fixture document missing: {path}")
        return path.read_bytes()


class LiveTransport:
    """HTTPS transport against the real EDGAR endpoints.

    Constructed only when network access is explicitly allowed; SEC fair
    access requires a descriptive user-agent.
    """

    def __init__(self, user_agent: str, timeout: float = 30.0, session=None):
        if not user_agent.strip():
            raise ValueError("a descriptive user_agent is required for EDGAR access")
        import requests

        self._session = session or requests.Session()
        self._headers = {"User-Agent": user_agent}
        self._timeout = timeout

    def _get(self, url: str):
        import requests

        try:
            response = self._session.get(url, headers=self._headers, timeout=self._timeout)
        except requests.RequestException as exc:
            raise NetworkError(f"GET {url} failed: {exc}") from exc
        if response.status_code in (429, 500, 502, 503, 504):
            raise NetworkError(f"GET {url} -> {response.status_code}", retryable=True)
        if response.status_code == 404:
            raise NotFoundError(f"GET {url} -> 404")
        if response.status_code != 200:
            raise NetworkError(f"GET {url} -> {response.status_code}", retryable=False)
        return response

    def get_submissions(self, cik: int) -> dict:
        data = self._get(SUBMISSIONS_URL.format(cik=cik)).json()
        recent = data.get("filings", {}).get("recent", {})
        filings = []
        forms = recent.get("form", [])
        for i, form in enumerate(forms):
            filings.append(
                {
                    "form": form,
                    "accession_number": recent["accessionNumber"][i],
                    "period_of_report": recent["reportDate"][i],
                    "primary_document": recent["primaryDocument"][i],
                    "filing_date": recent["filingDate"][i],
                }
            )
        return {"filings": filings}

    def get_document(self, ref: FilingRef) -> bytes:
        return self._get(ref.document_url).content


class EdgarClient:
    """Resolve and fetch 10-K filings under a polite rate limit.

    The limiter and cache are shared, internally synchronized resources;
    fetches for distinct refs may run concurrently from many threads.
    """

    def __init__(
        self,
        transport,
        cache_dir: str | Path,
        rate_limit_rps: float = 8.0,
        max_retries: int = 5,
        clock=None,
    ):
        self.transport = transport
        self.cache_dir = Path(cache_dir)
        self.max_retries = max_retries
        self._clock = clock or SystemClock()
        self._limiter = RateLimiter(rate_limit_rps, clock=self._clock)
        self._write_lock = threading.Lock()

    @classmethod
    def from_config(cls, config, allow_network: bool = False) -> "EdgarClient":
        fixture_dir = config.get("edgar.fixture_dir")
        if fixture_dir:
            transport = FixtureTransport(fixture_dir)
        elif allow_network:
            transport = LiveTransport(config.get("edgar.user_agent"))
        else:
            raise NetworkError(
                "no fixture_dir configured and network access not allowed; "
                "pass --allow-network or --backend live to reach EDGAR",
                retryable=False,
            )
        return cls(
            transport,
            cache_dir=config.get("edgar.cache_dir"),
            rate_limit_rps=config.get_float("edgar.rate_limit_rps"),
            max_retries=config.get_int("edgar.max_retries"),
        )

    # -- resolution ------------------------------------------------------

    def resolve_filing(self, cik: int, fiscal_year: int) -> FilingRef:
        """Find the 10-K whose period-of-report falls in ``fiscal_year``.

        Prefers the original 10-K; falls back to the latest 10-K/A only when
        no original exists, marking the ref as amended.
        """
        if cik <= 0:
            raise ValueError(f"cik must be positive, got {cik}")
        current_year = datetime.now(timezone.utc).year
        if not EARLIEST_FISCAL_YEAR <= fiscal_year <= current_year:
            raise NotFoundError(
                f"fiscal year {fiscal_year} outside 10-K coverage [{EARLIEST_FISCAL_YEAR}, {current_year}]"
            )
        submissions = self._with_retries(lambda: self.transport.get_submissions(cik))
        matches = {"10-K": [], "10-K/A": []}
        for filing in submissions.get("filings", []):
            form = filing.get("form", "")
            if form not in matches:
                continue
            period = filing.get("period_of_report", "")
            if _period_year(period) == fiscal_year:
                matches[form].append(filing)
        originals = matches["10-K"]
        if len(originals) > 1:
            raise AmbiguousFilingError(
                f"{len(originals)} original 10-K filings for cik={cik} fy={fiscal_year}; index corrupt?"
            )
        if originals:
            chosen, amended = originals[0], False
        elif matches["10-K/A"]:
            chosen = max(matches["10-K/A"], key=lambda f: f.get("filing_date", ""))
            amended = True
        else:
            raise NotFoundError(f"no 10-K for cik={cik} fiscal_year={fiscal_year}")
        accession = chosen["accession_number"]
        doc = chosen["primary_document"]
        return FilingRef(
            cik=cik,
            fiscal_year=fiscal_year,
            accession_number=accession,
            document_url=ARCHIVES_URL.format(cik=cik, acc=accession.replace("-", ""), doc=doc),
            primary_document=doc,
            amended=amended,
        )

    # -- fetching --------------------------------------------------------

    def fetch(self, ref: FilingRef) -> CachedDocument:
        """Return the filing bytes, from cache when possible.

        Cache hits perform zero transport calls.  A corrupted cache entry
        (hash mismatch) is treated as a miss and refetched.
        """
        doc_path = self._doc_path(ref)
        meta_path = doc_path.parent / "meta.json"
        cached = self._load_cached(ref, doc_path, meta_path)
        if cached is not None:
            return cached
        data = self._with_retries(lambda: self.transport.get_document(ref))
        meta = {
            "ref": ref,
            "content_hash": hashlib.sha256(data).hexdigest(),
            "byte_length": len(data),
            "media_kind": _media_kind(ref.primary_document, data),
            "fetched_at": datetime.now(timezone.utc).isoformat(),
        }
        try:
            with self._write_lock:
                doc_path.parent.mkdir(parents=True, exist_ok=True)
                write_atomic(doc_path, data)
                write_atomic(meta_path, json.dumps(meta, default=encode, indent=2, sort_keys=True))
        except OSError as exc:
            raise CacheWriteError(f"failed to cache {ref.accession_number}: {exc}") from exc
        logger.info("fetched %s (%d bytes)", ref.accession_number, len(data))
        return CachedDocument(path=doc_path, **meta)

    def _load_cached(self, ref: FilingRef, doc_path: Path, meta_path: Path) -> CachedDocument | None:
        """The cached document, or None to refetch: missing, unreadable or hash mismatch."""
        if not (doc_path.exists() and meta_path.exists()):
            return None
        try:
            cached = load(CachedDocument, {**json.loads(meta_path.read_text()), "path": doc_path})
            data = doc_path.read_bytes()
        except (OSError, json.JSONDecodeError, TypeError, SchemaError):
            return None
        if hashlib.sha256(data).hexdigest() != cached.content_hash:
            logger.warning("cache hash mismatch for %s; refetching", ref.accession_number)
            return None
        return cached

    def _doc_path(self, ref: FilingRef) -> Path:
        return self.cache_dir / str(ref.cik) / ref.accession_number / ref.primary_document

    def _with_retries(self, call):
        attempts = self.max_retries + 1
        delay = 0.5
        for attempt in range(1, attempts + 1):
            self._limiter.acquire()
            try:
                return call()
            except NetworkError as exc:
                if not exc.retryable or attempt == attempts:
                    raise
                logger.debug("transient failure (attempt %d/%d): %s", attempt, attempts, exc)
                self._clock.sleep(delay)
                delay *= 2


def _period_year(period: str) -> int | None:
    try:
        return int(period[:4])
    except (TypeError, ValueError):
        return None


def _media_kind(document_name: str, data: bytes) -> str:
    name = document_name.lower()
    if name.endswith((".htm", ".html")):
        return "html"
    if name.endswith(".txt"):
        return "sgml_text"
    head = data[:2048].lstrip().lower()
    return "html" if head.startswith((b"<html", b"<!doctype")) else "sgml_text"
