"""Unit tests for the layered key-value configuration."""

import re
from pathlib import Path

import pytest

from segforge.config import SETTINGS, Config, default, env_var_name
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
    with pytest.raises(SchemaError, match=re.escape(f"{key} = {below!r} must be >= {least}")):
        Config({key: below}, use_env=False)


@pytest.mark.parametrize("key, value, reason", [
    ("edgar.rate_limit_rps", "nan", "must be >= 0.001"),
    ("edgar.rate_limit_rps", "1e-300", "must be >= 0.001"),
    ("llm.backend", "mystery", "must be 'scripted' or 'live'"),
    ("extraction.measures", " , ", "lists no value"),
    ("extraction.measures", "revenue,assets,revenue", "names 'revenue' twice"),
    ("edgar.cache_dir", "", "is empty"),
    ("store.panel_path", "", "is empty"),
    ("edgar.cache_dir", "ca\0che", "holds a NUL character"),
    ("edgar.fixture_dir", "\0", "holds a NUL character"),
    ("llm.script_path", "a\0.jsonl", "holds a NUL character"),
    ("store.panel_path", "panel\0.jsonl", "holds a NUL character"),
])
def test_each_check_names_key_value_and_reason(key, value, reason):
    with pytest.raises(SchemaError) as caught:
        Config({key: value}, use_env=False)
    assert str(caught.value) == f"{key} = {value!r} {reason}"


def test_values_are_read_once_into_their_types():
    config = Config({"extraction.measures": " assets , revenue "}, use_env=False)
    assert config.get_list("extraction.measures") == ["assets", "revenue"]
    assert config.get("extraction.measures") == " assets , revenue "  # get keeps the text
    assert config.get_int("edgar.max_retries") == 5


def test_refusal_names_the_file_line_or_variable(tmp_path, monkeypatch):
    path = tmp_path / "segforge.conf"
    path.write_text("llm.backend = scripted\nllm.max_in_flight = 0\n")
    with pytest.raises(SchemaError) as caught:
        Config.load(path, use_env=False)
    assert str(caught.value) == f"{path}:2: llm.max_in_flight = '0' must be >= 1"
    monkeypatch.setenv("SEGFORGE_LLM_MAX_IN_FLIGHT", "abc")
    with pytest.raises(SchemaError) as caught:
        Config.load(path)
    assert str(caught.value) == "SEGFORGE_LLM_MAX_IN_FLIGHT: llm.max_in_flight = 'abc' is not a valid int"
    monkeypatch.setenv("SEGFORGE_LLM_MAX_IN_FLIGHT", "2")
    assert Config.load(path).get_int("llm.max_in_flight") == 2  # the file's value is overridden


def test_unknown_key_in_code_raises():
    with pytest.raises(SchemaError, match="unknown key 'llm.max_inflight'"):
        Config({"llm.max_inflight": "3"}, use_env=False)


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


def test_file_not_utf8_raises_naming_it(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"llm.model = \xff\n")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
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
    """The README's configuration block sets every key, each to a value a config file may hold."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Configuration\n.*?```\n(.*?)```", text, re.S).group(1)
    path = tmp_path / "readme.conf"
    path.write_text(block, encoding="utf-8")
    config = Config.load(path, use_env=False)
    assert config.get("llm.max_in_flight") == "5"
    assert config.get("edgar.fixture_dir") == "fixtures/edgar"
    assert [key for key in SETTINGS if not re.search(rf"^{re.escape(key)} *=", block, re.M)] == []


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
    with pytest.raises(SchemaError, match=re.escape(f"{key} = {value!r} is not a valid")):
        Config({key: value}, use_env=False)
    config = Config(use_env=False)
    with pytest.raises(SchemaError, match=re.escape(f"{key} = {value!r} is not a valid")):
        config.set(key, value)
    assert getattr(config, getter)(key) == default(key)  # a refused value is not kept


def test_get_missing_key_raises():
    config = Config(use_env=False)
    with pytest.raises(KeyError):
        config.get("no.such.key")


def test_set_mutates():
    config = Config(use_env=False)
    config.set("llm.backend", "live")
    assert config.get("llm.backend") == "live"
    with pytest.raises(SchemaError, match="^llm.backend = 'mystery' must be 'scripted' or 'live'$"):
        config.set("llm.backend", "mystery")
    assert config.get("llm.backend") == "live"
