"""Unit tests for the layered key-value configuration."""

import re
from pathlib import Path

import pytest

from segforge.config import Config, env_var_name
from segforge.edgar import EdgarClient
from segforge.errors import SchemaError
from segforge.extraction import ExtractionPipeline
from segforge.gateway import Gateway, ScriptedBackend, ScriptStore

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_present():
    config = Config(use_env=False)
    assert config.get("llm.backend") == "scripted"
    assert config.get_int("llm.max_in_flight") == 5
    assert config.get_float("edgar.rate_limit_rps") == 8.0
    assert config.get_list("extraction.measures") == ["revenue", "profit_or_loss", "assets"]


def test_constructor_defaults_equal_config_defaults(tmp_path):
    # A component built without a setting runs as the product runs by default.
    config = Config(use_env=False)
    client = EdgarClient(None, cache_dir=tmp_path)
    assert client._limiter.rate == config.get_float("edgar.rate_limit_rps")
    assert client.max_retries == config.get_int("edgar.max_retries")
    gateway = Gateway(ScriptedBackend(ScriptStore()))
    assert gateway.max_in_flight == config.get_int("llm.max_in_flight")
    assert ExtractionPipeline(gateway).measures == config.get_list("extraction.measures")


@pytest.mark.parametrize("key, least, below", [
    ("edgar.max_retries", "0", "-1"),
    ("edgar.rate_limit_rps", "0.001", "0"),
    ("llm.max_in_flight", "1", "0"),
])
def test_numeric_settings_are_read_within_their_bounds(key, least, below):
    read = Config.get_float if key == "edgar.rate_limit_rps" else Config.get_int
    assert read(Config({key: least}, use_env=False), key) == float(least)
    with pytest.raises(SchemaError, match=re.escape(f"{key} = {below!r} must be ")):
        read(Config({key: below}, use_env=False), key)


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "segforge.conf"
    path.write_text(
        "# comment line\n"
        "edgar.rate_limit_rps = 2  # trailing comment\n"
        "\n"
        "llm.script_path = /tmp/x.jsonl\n"
    )
    config = Config.load(path, use_env=False)
    assert config.get_float("edgar.rate_limit_rps") == 2.0
    assert config.get("llm.script_path") == "/tmp/x.jsonl"
    assert config.get("llm.backend") == "scripted"  # untouched default


def test_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("# comment\nthis is not an assignment\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: expected")):
        Config.load(path, use_env=False)


@pytest.mark.parametrize("line", [
    "llm.max_inflight = 3",  # misspelt llm.max_in_flight
    "retrieval.k1 = 1.5",  # scoring values are constants, not settings
])
def test_unknown_key_raises(tmp_path, line):
    path = tmp_path / "bad.conf"
    path.write_text(f"llm.backend = scripted\n{line}\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}:2: unknown key")):
        Config.load(path, use_env=False)


def test_readme_configuration_block_loads(tmp_path):
    """Every key the README's configuration block sets is a key a config file may set."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Configuration\n.*?```\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "readme.conf"
    path.write_text(block, encoding="utf-8")
    config = Config.load(path, use_env=False)
    assert config.get("llm.max_in_flight") == "5"
    assert config.get("edgar.fixture_dir") == "fixtures/edgar"


def test_env_overrides_file(tmp_path, monkeypatch):
    path = tmp_path / "segforge.conf"
    path.write_text("edgar.cache_dir = from_file\n")
    monkeypatch.setenv(env_var_name("edgar.cache_dir"), "from_env")
    config = Config.load(path, use_env=True)
    assert config.get("edgar.cache_dir") == "from_env"


def test_env_var_name():
    assert env_var_name("edgar.cache_dir") == "SEGFORGE_EDGAR_CACHE_DIR"


@pytest.mark.parametrize("key,value,getter", [
    ("llm.max_in_flight", "abc", "get_int"),
    ("llm.max_in_flight", "2.5", "get_int"),
    ("edgar.rate_limit_rps", "fast", "get_float"),
])
def test_non_numeric_value_raises_schema_error(key, value, getter):
    config = Config({key: value}, use_env=False)
    with pytest.raises(SchemaError, match=re.escape(f"{key} = {value!r} is not a valid")):
        getattr(config, getter)(key)


def test_get_missing_key_raises():
    config = Config(use_env=False)
    with pytest.raises(KeyError):
        config.get("no.such.key")


def test_set_mutates():
    config = Config(use_env=False)
    config.set("llm.backend", "live")
    assert config.get("llm.backend") == "live"
