"""Run configuration: line-oriented ``key = value`` files merged under
explicit command-line flags (flags win). Unknown keys are rejected
before any work starts.
"""

from __future__ import annotations

from pathlib import Path

CONFIG_KEYS = {
    "model": str,
    "hidden_size": int,
    "n_layers": int,
    "embedding_size": int,
    "learning_rate": float,
    "clip_threshold": float,
    "batch_size": int,
    "epochs": int,
    "seed": int,
    "min_checkins": int,
    "folds": int,
    "candidates": int,
    "k": int,
    "length": int,
    "radius_km": float,
    "growth_factor": float,
    "epsilon_km": float,
    "budget_hours": float,
    "beam_width": int,
    "region_radius_km": float,
    "data_dir": str,
    "out_dir": str,
}


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def merge_config(file_values: dict, flag_values: dict) -> dict:
    """Flags (non-None) override file values."""
    merged = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    return merged
