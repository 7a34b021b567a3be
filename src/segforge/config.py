"""Flat key-value configuration with environment overrides.

Config files use one ``section.key = value`` assignment per line, for a
key that ``DEFAULTS`` lists; ``#`` starts a comment.  Environment variables
named ``SEGFORGE_<SECTION>_<KEY>`` (upper-cased, dots replaced by
underscores) override file values.
"""

from __future__ import annotations

import operator
import os
from pathlib import Path

from .errors import SchemaError

ENV_PREFIX = "SEGFORGE_"

DEFAULTS: dict[str, str] = {
    "edgar.rate_limit_rps": "8",
    "edgar.user_agent": "segforge/0.1 (research tool; set edgar.user_agent to your contact)",
    "edgar.cache_dir": "cache",
    "edgar.max_retries": "5",
    "edgar.fixture_dir": "",
    "llm.backend": "scripted",
    "llm.model": "gpt-4.1",
    "llm.api_base": "",
    "llm.max_in_flight": "5",
    "llm.script_path": "",
    "llm.api_key": "",
    "store.panel_path": "panel.jsonl",
    "extraction.measures": "revenue,profit_or_loss,assets",
}

# How far down each numeric key's value may go: no component runs with a smaller one.
BOUNDS: dict[str, tuple[str, int]] = {
    "edgar.max_retries": (">=", 0),
    "edgar.rate_limit_rps": (">", 0),
    "llm.max_in_flight": (">=", 1),
}
_ABOVE = {">=": operator.ge, ">": operator.gt}


class Config:
    """Layered configuration: defaults < file < environment."""

    def __init__(self, values: dict[str, str] | None = None, use_env: bool = True):
        self._values = dict(DEFAULTS)
        if values:
            self._values.update(values)
        if use_env:
            self._values.update(_env_overrides(self._values.keys()))

    @classmethod
    def load(cls, path: str | Path | None = None, use_env: bool = True) -> "Config":
        values: dict[str, str] = {}
        if path is not None:
            for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SchemaError(f"{path}:{lineno}: expected 'section.key = value'")
                key, value = line.split("=", 1)
                key = key.strip()
                if key not in DEFAULTS:
                    raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
        return cls(values, use_env=use_env)

    def get(self, key: str) -> str:
        return self._values[key]

    def get_int(self, key: str) -> int:
        return self._number(key, int)

    def get_float(self, key: str) -> float:
        return self._number(key, float)

    def _number(self, key: str, kind: type) -> int | float:
        value = self.get(key)
        try:
            number = kind(value)
        except ValueError:
            raise SchemaError(f"{key} = {value!r} is not a valid {kind.__name__}") from None
        bound = BOUNDS.get(key)
        if bound and not _ABOVE[bound[0]](number, bound[1]):
            raise SchemaError(f"{key} = {value!r} must be {bound[0]} {bound[1]}")
        return number

    def get_list(self, key: str) -> list[str]:
        items = [part.strip() for part in self.get(key).split(",") if part.strip()]
        if not items:
            raise SchemaError(f"{key} = {self.get(key)!r} lists no value")
        return items

    def set(self, key: str, value: str) -> None:
        self._values[key] = value


def env_var_name(key: str) -> str:
    return ENV_PREFIX + key.replace(".", "_").upper()


def _env_overrides(keys) -> dict[str, str]:
    found = {}
    for key in keys:
        value = os.environ.get(env_var_name(key))
        if value is not None:
            found[key] = value
    return found
