"""Shared fixtures: a synthetic EDGAR corpus, scripts, and prebuilt stores.

Session-scoped fixtures build the fixture universe once; anything a test
mutates (stores with on-disk panels, run directories) is function-scoped.
"""

from __future__ import annotations

import logging

import pytest

import filingfab
import paperdata
from segforge.edgar import EdgarClient, FixtureTransport
from segforge.extraction import ExtractionPipeline
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore
from segforge.retrieval import build_index, save_index
from segforge.store import SegmentStore


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def no_lost_callback_errors():
    """Fail a test in which a future's done-callback raised.

    concurrent.futures only logs such an exception ("exception calling
    callback for ..."), so a continuation that raised would otherwise pass
    unseen, or leave a future that never settles.
    """
    logger = logging.getLogger("concurrent.futures")
    handler = _Records()
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail("\n".join(handler.format(record) for record in handler.records))


@pytest.fixture(scope="session")
def edgar_fixture(tmp_path_factory):
    """(fixture_dir, {name: sha256}) for the synthetic EDGAR corpus."""
    root = tmp_path_factory.mktemp("edgar")
    hashes = filingfab.build_edgar_fixture(root)
    return root, hashes


@pytest.fixture(scope="session")
def session_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(scope="session")
def edgar_client(edgar_fixture, session_cache):
    root, _ = edgar_fixture
    # High rate limit: fixture fetches should not sleep on the wall clock.
    return EdgarClient(FixtureTransport(root), cache_dir=session_cache,
                       rate_limit_rps=10_000)


@pytest.fixture(scope="session")
def parsed_filings(edgar_client):
    """name -> ParsedFiling for every fixture filing (read-only)."""
    from segforge.parsing import parse

    out = {}
    out["apple"] = parse(edgar_client.fetch(
        edgar_client.resolve_filing(paperdata.APPLE_CIK, paperdata.APPLE_FY)))
    out["adobe"] = parse(edgar_client.fetch(
        edgar_client.resolve_filing(paperdata.ADOBE_CIK, paperdata.ADOBE_FY)))
    for year in sorted(paperdata.AVY_TABLE3):
        out[f"avy{year}"] = parse(edgar_client.fetch(
            edgar_client.resolve_filing(paperdata.AVY_CIK, year)))
    return out


@pytest.fixture(scope="session")
def avy_index(parsed_filings):
    filings = [parsed_filings[f"avy{year}"] for year in sorted(paperdata.AVY_TABLE3)]
    return build_index(filings)


@pytest.fixture(scope="session")
def corpus_index(parsed_filings):
    names = ["apple", "adobe"] + [f"avy{y}" for y in sorted(paperdata.AVY_TABLE3)]
    return build_index([parsed_filings[name] for name in names])


@pytest.fixture(scope="session")
def script_entries(edgar_fixture, avy_index):
    _, hashes = edgar_fixture
    return filingfab.base_script_entries(hashes) + filingfab.change_script_entries(avy_index)


@pytest.fixture(scope="session")
def script_path(tmp_path_factory, script_entries):
    return filingfab.write_script(
        tmp_path_factory.mktemp("scripts") / "responses.jsonl", script_entries
    )


@pytest.fixture(scope="session")
def avy_index_dir(tmp_path_factory, avy_index):
    directory = tmp_path_factory.mktemp("indexdir")
    save_index(avy_index, directory)
    return directory


@pytest.fixture(scope="session")
def config_path(tmp_path_factory, edgar_fixture, session_cache, script_path):
    root, _ = edgar_fixture
    path = tmp_path_factory.mktemp("conf") / "segforge.conf"
    path.write_text(
        "\n".join([
            f"edgar.fixture_dir = {root}",
            f"edgar.cache_dir = {session_cache}",
            "edgar.rate_limit_rps = 10000",
            "llm.backend = scripted",
            f"llm.script_path = {script_path}",
        ]) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def make_gateway(script_entries):
    """Factory for fresh gateways (request ids are unique per gateway)."""

    def factory(max_in_flight: int = 5) -> Gateway:
        backend = ScriptedBackend(ScriptStore.from_entries(script_entries))
        return Gateway(backend, max_in_flight=max_in_flight)

    return factory


@pytest.fixture(scope="session")
def avy_bundles(edgar_client, script_entries):
    """year -> bundle from a full scripted pipeline run per AVY filing."""
    gateway = Gateway(ScriptedBackend(ScriptStore.from_entries(script_entries)),
                      max_in_flight=5)
    pipeline = ExtractionPipeline(gateway)
    bundles = {}
    for year in sorted(paperdata.AVY_TABLE3):
        ref = edgar_client.resolve_filing(paperdata.AVY_CIK, year)
        doc = edgar_client.fetch(ref)
        bundles[year] = pipeline.run_pipeline(doc, paperdata.AVY_CIK, year)
    return bundles


@pytest.fixture(scope="session")
def avy_store(avy_bundles):
    """In-memory panel of the AVY bundles. Treat as read-only."""
    store = SegmentStore()
    for year in sorted(avy_bundles):
        store.put(avy_bundles[year])
    return store


@pytest.fixture()
def geo_store():
    """Fresh in-memory panel with every INTC/TXN fixture bundle."""
    store = SegmentStore()
    for year in sorted(paperdata.INTC_ASIA):
        store.put(filingfab.intc_bundle(year))
        store.put(filingfab.txn_bundle(year))
    return store


@pytest.fixture(scope="session")
def asia_scheme():
    from segforge.comparability import RegionScheme

    return RegionScheme.from_labels("Asia", paperdata.ASIA_MEMBER_LABELS)
