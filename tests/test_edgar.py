"""Unit tests for EDGAR resolution, rate limiting, caching, and retries."""

import json
import os
import re

import pytest

import paperdata
from filingfab import APPLE_ACCESSION, APPLE_DOC
from segforge.edgar import (
    EdgarClient,
    FilingRef,
    FixtureTransport,
    RateLimiter,
    _media_kind,
)
from segforge.errors import (
    AmbiguousFilingError,
    CacheWriteError,
    NetworkError,
    NotFoundError,
    SchemaError,
)


class FakeClock:
    """Deterministic clock: sleep() advances monotonic() instantly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class CountingTransport:
    def __init__(self, inner):
        self.inner = inner
        self.submission_calls = 0
        self.document_calls = 0

    def get_submissions(self, cik):
        self.submission_calls += 1
        return self.inner.get_submissions(cik)

    def get_document(self, ref):
        self.document_calls += 1
        return self.inner.get_document(ref)


class FlakyTransport:
    """Fails the first ``failures`` calls, then delegates to a canned payload."""

    def __init__(self, failures, retryable=True):
        self.failures = failures
        self.retryable = retryable
        self.calls = 0

    def get_submissions(self, cik):
        self.calls += 1
        if self.calls <= self.failures:
            raise NetworkError("transient failure", retryable=self.retryable)
        return {
            "filings": [
                {
                    "form": "10-K",
                    "accession_number": "0000000001-20-000001",
                    "period_of_report": "2019-12-31",
                    "primary_document": "doc.htm",
                    "filing_date": "2020-02-01",
                }
            ]
        }

    def get_document(self, ref):
        return b"<html><body><p>hello</p></body></html>"


# -- rate limiter -----------------------------------------------------------------


class TestRateLimiter:
    def test_ten_calls_at_two_rps_take_at_least_4_5_seconds(self):
        clock = FakeClock()
        limiter = RateLimiter(2.0, clock=clock)
        grants = []
        for _ in range(10):
            limiter.acquire()
            grants.append(clock.now)
        # Oracle: 10 evenly spaced grants at 2/s start at t=0 and end at 4.5s.
        assert grants[-1] >= 4.5

    def test_no_one_second_window_exceeds_rate(self):
        clock = FakeClock()
        limiter = RateLimiter(2.0, clock=clock)
        grants = []
        for _ in range(12):
            limiter.acquire()
            grants.append(clock.now)
        # Any three consecutive grants must span at least one full second,
        # otherwise some sliding 1 s window would see 3 admissions.
        for i in range(len(grants) - 2):
            assert grants[i + 2] - grants[i] >= 1.0 - 1e-9

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimiter(0)


# -- filing refs ------------------------------------------------------------------


class TestFilingRef:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilingRef(cik=0, fiscal_year=2020, accession_number="0000000001-20-000001",
                      document_url="u")
        with pytest.raises(ValueError):
            FilingRef(cik=1, fiscal_year=1980, accession_number="0000000001-20-000001",
                      document_url="u")
        with pytest.raises(ValueError):
            FilingRef(cik=1, fiscal_year=2020, accession_number="not-an-accession",
                      document_url="u")


# -- resolution -------------------------------------------------------------------


class TestResolveFiling:
    def test_resolves_fixture_filing(self, edgar_fixture):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=root / "c",
                             rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)
        assert ref.accession_number == APPLE_ACCESSION
        assert ref.primary_document == APPLE_DOC
        assert not ref.amended

    def test_missing_year_raises(self, edgar_fixture):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=root / "c",
                             rate_limit_rps=10_000)
        with pytest.raises(NotFoundError):
            client.resolve_filing(paperdata.APPLE_CIK, 2019)

    def test_unknown_cik_raises(self, edgar_fixture):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=root / "c",
                             rate_limit_rps=10_000)
        with pytest.raises(NotFoundError):
            client.resolve_filing(99999999, 2024)

    def test_year_outside_coverage_raises(self, edgar_fixture):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=root / "c",
                             rate_limit_rps=10_000)
        with pytest.raises(NotFoundError):
            client.resolve_filing(paperdata.APPLE_CIK, 1980)

    def _write_index(self, tmp_path, filings):
        (tmp_path / "index.json").write_text(
            json.dumps({"77": {"filings": filings}})
        )
        (tmp_path / "a.htm").write_bytes(b"<p>A</p>")
        (tmp_path / "b.htm").write_bytes(b"<p>B</p>")
        return EdgarClient(FixtureTransport(tmp_path), cache_dir=tmp_path / "c",
                           rate_limit_rps=10_000)

    def test_two_originals_is_ambiguous(self, tmp_path):
        client = self._write_index(tmp_path, [
            {"form": "10-K", "accession_number": "0000000077-21-000001",
             "period_of_report": "2020-12-31", "primary_document": "a.htm",
             "filing_date": "2021-02-01"},
            {"form": "10-K", "accession_number": "0000000077-21-000002",
             "period_of_report": "2020-06-30", "primary_document": "b.htm",
             "filing_date": "2021-03-01"},
        ])
        with pytest.raises(AmbiguousFilingError):
            client.resolve_filing(77, 2020)

    def test_amended_fallback_picks_latest(self, tmp_path):
        client = self._write_index(tmp_path, [
            {"form": "10-K/A", "accession_number": "0000000077-21-000001",
             "period_of_report": "2020-12-31", "primary_document": "a.htm",
             "filing_date": "2021-02-01"},
            {"form": "10-K/A", "accession_number": "0000000077-21-000002",
             "period_of_report": "2020-12-31", "primary_document": "b.htm",
             "filing_date": "2021-05-01"},
        ])
        ref = client.resolve_filing(77, 2020)
        assert ref.amended
        assert ref.accession_number == "0000000077-21-000002"

    def test_original_preferred_over_amendment(self, tmp_path):
        client = self._write_index(tmp_path, [
            {"form": "10-K/A", "accession_number": "0000000077-21-000002",
             "period_of_report": "2020-12-31", "primary_document": "b.htm",
             "filing_date": "2021-05-01"},
            {"form": "10-K", "accession_number": "0000000077-21-000001",
             "period_of_report": "2020-12-31", "primary_document": "a.htm",
             "filing_date": "2021-02-01"},
        ])
        ref = client.resolve_filing(77, 2020)
        assert not ref.amended
        assert ref.accession_number == "0000000077-21-000001"


# -- fetching and caching -----------------------------------------------------------


class TestFetch:
    def test_cold_then_warm_cache(self, edgar_fixture, tmp_path):
        root, _ = edgar_fixture
        transport = CountingTransport(FixtureTransport(root))
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)

        doc1 = client.fetch(ref)
        assert transport.document_calls == 1
        assert doc1.path.exists()
        assert doc1.fetched_at != ""

        doc2 = client.fetch(ref)
        assert transport.document_calls == 1  # zero transport calls on a hit
        assert doc2.content_hash == doc1.content_hash
        # The whole document, fetched_at included, is restored from the meta sidecar.
        assert doc2 == doc1

    @pytest.mark.parametrize("meta", [
        '{"cik": 320193, "fiscal_year": 2024, "content_hash": "x"}',  # an older flat layout
        '{"ref": {"cik": 320193}}',
        "[]",
        "{torn",
    ], ids=["flat", "partial_ref", "list", "torn"])
    def test_unreadable_meta_refetches(self, edgar_fixture, tmp_path, meta):
        root, _ = edgar_fixture
        transport = CountingTransport(FixtureTransport(root))
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)
        doc = client.fetch(ref)
        meta_path = doc.path.parent / "meta.json"
        meta_path.write_text(meta, encoding="utf-8")
        assert client.fetch(ref).content_hash == doc.content_hash
        assert transport.document_calls == 2
        assert json.loads(meta_path.read_text(encoding="utf-8"))["ref"]["cik"] == ref.cik

    def test_corrupted_cache_refetches(self, edgar_fixture, tmp_path):
        root, _ = edgar_fixture
        transport = CountingTransport(FixtureTransport(root))
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)
        doc = client.fetch(ref)
        doc.path.write_bytes(b"tampered")
        doc2 = client.fetch(ref)
        assert transport.document_calls == 2
        assert doc2.read_bytes()  # hash verifies again after repair

    def test_read_bytes_detects_tampering(self, edgar_fixture, tmp_path):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=tmp_path,
                             rate_limit_rps=10_000)
        doc = client.fetch(client.resolve_filing(paperdata.APPLE_CIK, 2024))
        doc.path.write_bytes(b"tampered after handout")
        with pytest.raises(CacheWriteError):
            doc.read_bytes()

    def test_cache_layout(self, edgar_fixture, tmp_path):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=tmp_path,
                             rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)
        doc = client.fetch(ref)
        expected = tmp_path / str(paperdata.APPLE_CIK) / APPLE_ACCESSION / APPLE_DOC
        assert doc.path == expected
        assert (expected.parent / "meta.json").exists()


    @pytest.mark.parametrize("failing", [1, 2], ids=["document", "meta"])
    def test_failed_replace_raises_and_leaves_no_temp_file(self, edgar_fixture, tmp_path,
                                                            monkeypatch, failing):
        root, _ = edgar_fixture
        client = EdgarClient(FixtureTransport(root), cache_dir=tmp_path,
                             rate_limit_rps=10_000)
        ref = client.resolve_filing(paperdata.APPLE_CIK, 2024)
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == failing:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(CacheWriteError, match="disk full"):
            client.fetch(ref)
        assert not list(tmp_path.rglob("*.tmp"))
        monkeypatch.undo()
        assert client.fetch(ref).read_bytes()  # a half-filled entry is a miss, refetched


class TestFixtureTransport:
    @pytest.mark.parametrize("content", ["{torn", "[]"])
    def test_malformed_index_raises_schema_error(self, tmp_path, content):
        (tmp_path / "index.json").write_text(content, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{tmp_path / 'index.json'}: ")):
            FixtureTransport(tmp_path)


# -- retries ----------------------------------------------------------------------


class TestRetries:
    def test_transient_failures_retried_with_backoff(self, tmp_path):
        clock = FakeClock()
        transport = FlakyTransport(failures=2)
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000,
                             max_retries=5, clock=clock)
        ref = client.resolve_filing(1, 2019)
        assert ref.accession_number == "0000000001-20-000001"
        assert transport.calls == 3
        # Backoff doubles from 0.5s between attempts.
        assert clock.sleeps == [0.5, 1.0]

    def test_non_retryable_fails_fast(self, tmp_path):
        clock = FakeClock()
        transport = FlakyTransport(failures=10, retryable=False)
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000,
                             max_retries=5, clock=clock)
        with pytest.raises(NetworkError):
            client.resolve_filing(1, 2019)
        assert transport.calls == 1

    def test_retries_exhausted_raises(self, tmp_path):
        clock = FakeClock()
        transport = FlakyTransport(failures=10, retryable=True)
        client = EdgarClient(transport, cache_dir=tmp_path, rate_limit_rps=10_000,
                             max_retries=2, clock=clock)
        with pytest.raises(NetworkError):
            client.resolve_filing(1, 2019)
        assert transport.calls == 3  # max_retries + 1 attempts


# -- config and misc ---------------------------------------------------------------


def test_from_config_requires_fixture_or_network_opt_in():
    from segforge.config import Config

    config = Config({"edgar.fixture_dir": ""}, use_env=False)
    with pytest.raises(NetworkError) as exc_info:
        EdgarClient.from_config(config, allow_network=False)
    assert not exc_info.value.retryable


def test_from_config_builds_fixture_transport(edgar_fixture, tmp_path):
    from segforge.config import Config

    root, _ = edgar_fixture
    config = Config({
        "edgar.fixture_dir": str(root),
        "edgar.cache_dir": str(tmp_path),
    }, use_env=False)
    client = EdgarClient.from_config(config)
    assert isinstance(client.transport, FixtureTransport)


def test_media_kind():
    assert _media_kind("doc.htm", b"") == "html"
    assert _media_kind("doc.HTML", b"") == "html"
    assert _media_kind("doc.txt", b"") == "sgml_text"
    assert _media_kind("doc", b"  <!DOCTYPE html><html>") == "html"
    assert _media_kind("doc", b"SECURITIES AND EXCHANGE") == "sgml_text"
