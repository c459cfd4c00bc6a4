"""Run configuration: line-oriented ``key = value`` files, which the
command line's explicit flags override. Keys outside the caller's
schema are rejected before any work starts.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_config_file(path, keys: dict) -> dict:
    """Parse ``key = value`` lines, each value by the type ``keys`` gives
    its key; '#' starts a comment."""
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = keys[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out

