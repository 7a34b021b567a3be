"""Unit tests for the layered key-value configuration."""

import pytest

from segforge.config import Config, env_var_name


def test_defaults_present():
    config = Config(use_env=False)
    assert config.get("llm.backend") == "scripted"
    assert config.get_int("llm.max_in_flight") == 5
    assert config.get_float("edgar.rate_limit_rps") == 8.0
    assert config.get_list("extraction.measures") == ["revenue", "profit_or_loss", "assets"]


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
    path.write_text("this is not an assignment\n")
    with pytest.raises(ValueError):
        Config.load(path, use_env=False)


def test_env_overrides_file(tmp_path, monkeypatch):
    path = tmp_path / "segforge.conf"
    path.write_text("edgar.cache_dir = from_file\n")
    monkeypatch.setenv(env_var_name("edgar.cache_dir"), "from_env")
    config = Config.load(path, use_env=True)
    assert config.get("edgar.cache_dir") == "from_env"


def test_env_var_name():
    assert env_var_name("edgar.cache_dir") == "SEGFORGE_EDGAR_CACHE_DIR"


def test_get_missing_key_raises():
    config = Config(use_env=False)
    with pytest.raises(KeyError):
        config.get("no.such.key")
    assert config.get("no.such.key", default="x") == "x"


def test_set_mutates():
    config = Config(use_env=False)
    config.set("llm.backend", "live")
    assert config.get("llm.backend") == "live"
