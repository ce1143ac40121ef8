"""Pipeline configuration: versioned key-value text files.

Format: first significant line is the header ``svconfig 1``; the rest are
``key=value`` lines.  Blank lines and ``#`` comments are ignored.  Unknown
keys, malformed values, and out-of-range settings are rejected at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .fileio import atomic_write_text, read_utf8
from .resnet import PRESETS

HEADER = "svconfig 1"


@dataclass(frozen=True)
class PipelineConfig:
    preset: str = "desk"          # network preset: a key of resnet.PRESETS
    epochs: int = 30
    batch_size: int = 16
    learning_rate: float = 1e-4
    snorm: bool = True            # apply s-norm after cosine scoring
    cohort_size: int = 0          # s-norm cohort per phrase; 0 = all background
    fusion_l2: float = 0.0        # ridge weight for fusion fitting

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(
                f"preset must be one of {sorted(PRESETS)}, got '{self.preset}'")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.cohort_size < 0 or self.cohort_size == 1:
            raise ConfigError(
                f"cohort_size must be 0 (all) or >= 2, got {self.cohort_size}")
        if not 0.0 <= self.fusion_l2 < math.inf:
            raise ConfigError(
                f"fusion_l2 must be finite and >= 0, got {self.fusion_l2}")


def _parse_bool(value: str) -> bool:
    if value in ("true", "1"):
        return True
    if value in ("false", "0"):
        return False
    raise ValueError(value)


_PARSERS = {str: str, int: int, float: float, bool: _parse_bool}


def load_config(path) -> PipelineConfig:
    try:
        text = read_utf8(path, ConfigError)
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != HEADER:
        head = lines[0] if lines else "<empty>"
        raise ConfigError(f"{path}: expected '{HEADER}' header, got '{head}'")
    defaults = PipelineConfig()
    types = {f.name: type(getattr(defaults, f.name)) for f in fields(PipelineConfig)}
    overrides = {}
    for ln in lines[1:]:
        if "=" not in ln:
            raise ConfigError(f"{path}: malformed line '{ln}'")
        key, value = ln.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in types:
            raise ConfigError(f"{path}: unknown key '{key}' "
                              f"(known: {', '.join(sorted(types))})")
        if key in overrides:
            raise ConfigError(f"{path}: duplicate key '{key}'")
        try:
            overrides[key] = _PARSERS[types[key]](value)
        except ValueError:
            raise ConfigError(
                f"{path}: bad value '{value}' for '{key}' "
                f"(expected {types[key].__name__})") from None
    return replace(defaults, **overrides)


def save_config(path, config: PipelineConfig) -> None:
    lines = [HEADER]
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    atomic_write_text(path, "\n".join(lines) + "\n")
