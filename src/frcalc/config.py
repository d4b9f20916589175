"""Key-value config file handling.

A config file is plain text, one ``key = value`` pair per line, with
``#`` comments.  Recognized keys: abs_eps, rank_cutoff, seed.  The path
is the one given (``frcalc --config PATH``), else the FRCALC_CONFIG
environment variable when set, else ``frcalc.toml`` when present.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .linalg import DEFAULT_TOL, Tolerance


class UsageError(ValueError):
    """A config value or command-line argument that no input could make valid."""


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"{text} is not a positive finite number")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"seed {value} is negative")
    return value


_KEYS = {"abs_eps": _positive, "rank_cutoff": _positive, "seed": _seed}


@dataclass(frozen=True)
class Settings:
    tol: Tolerance
    seed: int


DEFAULT_SETTINGS = Settings(DEFAULT_TOL, 7)


def parse_config(text: str) -> Settings:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip().strip('"')
        if key not in _KEYS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](val)
        except ValueError as exc:
            raise UsageError(f"config line {lineno}: {key}: {exc}") from None
    tol = Tolerance(**{key: values[key] for key in ("abs_eps", "rank_cutoff") if key in values})
    return Settings(tol, values.get("seed", DEFAULT_SETTINGS.seed))


def load_settings(path: str | None = None) -> Settings:
    """Resolve the config file: explicit path, then FRCALC_CONFIG, then
    ./frcalc.toml when it exists, then built-in defaults."""
    if path is None:
        path = os.environ.get("FRCALC_CONFIG")
    if path is None and os.path.exists("frcalc.toml"):
        path = "frcalc.toml"
    if path is None:
        return DEFAULT_SETTINGS
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
