"""Flat key-value configuration with environment overrides.

Config files use one ``section.key = value`` assignment per line, for a
key that ``SETTINGS`` lists; ``#`` starts a comment.  Environment variables
named ``SEGFORGE_<SECTION>_<KEY>`` (upper-cased, dots replaced by
underscores) override file values.  Every value is checked when the config
is read, so a bad one stops a command before it fetches or prompts anything.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from pathlib import Path

from .errors import SchemaError


def _at_least(kind: type, least):
    """A reader of a ``kind`` number no smaller than ``least`` (so never NaN)."""
    def read(value: str):
        try:
            number = kind(value)
        except ValueError:
            raise ValueError(f"is not a valid {kind.__name__}") from None
        if not number >= least:
            raise ValueError(f"must be >= {least}")
        return number
    return read


def _unless(refused: Callable[[str], bool], reason: str, read: Callable[[str], object] = str):
    """A reader that refuses a text ``refused`` holds, giving ``reason``, and reads any other."""
    def check(value: str):
        if refused(value):
            raise ValueError(reason)
        return read(value)
    return check


def _names(value: str) -> list[str]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    if not names:
        raise ValueError("lists no value")
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"names {name!r} twice")
    return names


_path = _unless(lambda value: "\0" in value, "holds a NUL character")
_some_path = _unless(lambda value: not value, "is empty", _path)
_backend = _unless(lambda value: value not in ("scripted", "live"), "must be 'scripted' or 'live'")

# key -> (default text, reader): the reader turns a value's text into the
# value, or raises ValueError with the reason it is refused.
SETTINGS: dict[str, tuple[str, Callable[[str], object]]] = {
    # 0.001 also keeps 1/rate a wait that time.sleep takes.
    "edgar.rate_limit_rps": ("8", _at_least(float, 0.001)),
    "edgar.user_agent": ("segforge/0.1 (research tool; set edgar.user_agent to your contact)", str),
    "edgar.cache_dir": ("cache", _some_path),
    "edgar.max_retries": ("5", _at_least(int, 0)),
    "edgar.fixture_dir": ("", _path),
    "llm.backend": ("scripted", _backend),
    "llm.model": ("gpt-4.1", str),
    "llm.api_base": ("", str),
    "llm.max_in_flight": ("5", _at_least(int, 1)),
    "llm.script_path": ("", _path),
    "llm.api_key": ("", str),
    "store.panel_path": ("panel.jsonl", _some_path),
    "extraction.measures": ("revenue,profit_or_loss,assets", _names),
}


def default(key: str):
    """``key``'s default value, as a component built without the setting uses it."""
    text, read = SETTINGS[key]
    return read(text)


class Config:
    """Layered configuration: defaults < file < environment. Each value is read, so checked,
    when given; a refused one raises SchemaError ``<source>: <key> = <value> <reason>``, the
    source being the file and line or the environment variable (none for one given in code)."""

    def __init__(self, values: dict[str, str] | None = None, use_env: bool = True,
                 sources: dict[str, str] | None = None):
        given, sources = dict(values or {}), dict(sources or {})
        for key in SETTINGS if use_env else ():
            if (name := env_var_name(key)) in os.environ:
                given[key], sources[key] = os.environ[name], name
        self._text: dict[str, str] = {}  # each key's text
        self._value: dict[str, object] = {}  # and what its reader returned
        defaults = {key: text for key, (text, _) in SETTINGS.items()}
        for key, text in {**defaults, **given}.items():
            self._put(key, text, sources.get(key))

    @classmethod
    def load(cls, path: str | Path | None = None, use_env: bool = True) -> "Config":
        values: dict[str, str] = {}
        sources: dict[str, str] = {}  # key -> "<path>:<line>"
        if path is not None:
            try:
                text = Path(path).read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}: {exc}") from None
            for lineno, raw in enumerate(text.splitlines(), start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SchemaError(f"{path}:{lineno}: expected 'section.key = value'")
                key, value = line.split("=", 1)
                key = key.strip()
                values[key], sources[key] = value.strip(), f"{path}:{lineno}"
        return cls(values, use_env=use_env, sources=sources)

    def get(self, key: str) -> str:
        return self._text[key]

    def get_int(self, key: str):
        """``key``'s value as its reader returned it when the config was read."""
        return self._value[key]

    get_float = get_list = get_int

    def set(self, key: str, value: str) -> None:
        self._put(key, value)

    def _put(self, key: str, text: str, source: str | None = None) -> None:
        where = f"{source}: " if source else ""
        if key not in SETTINGS:
            raise SchemaError(f"{where}unknown key {key!r}")
        try:
            self._value[key] = SETTINGS[key][1](text)
        except ValueError as exc:
            raise SchemaError(f"{where}{key} = {text!r} {exc}") from None
        self._text[key] = text


def env_var_name(key: str) -> str:
    return "SEGFORGE_" + key.replace(".", "_").upper()
