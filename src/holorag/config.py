"""Run configuration, checked as it is built, with a flags > file > defaults chain."""

import json
import sys
from dataclasses import Field, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Union, get_args

from .errors import ConfigError
from .masking import DEFAULT_ALPHA

# Allowed values of the string fields that select a mode.
CHOICES = {
    "pool_mode": ("single", "all"),
    "backend": ("mock", "http"),
    "scoring_mode": ("cosine", "masked"),
}


def field_type(f: Field) -> type:
    """The type of a RunConfig field's values; an ``Optional[str]`` field holds a str."""
    return f.type if isinstance(f.type, type) else get_args(f.type)[0]


def _has_type(value, kind: type) -> bool:
    """isinstance, except that a bool is only a bool and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class RunConfig:
    """Every tunable in one place, checked when built; echoed into every report and trace."""

    alpha: float = DEFAULT_ALPHA
    h: float = 0.8
    k: int = 3
    max_iters: int = 3
    pool_mode: str = "single"
    backend: str = "mock"
    fixtures: Optional[str] = None
    base_url: Optional[str] = None
    model: Optional[str] = None
    api_key_env: str = "HOLORAG_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2
    parallelism: int = 1
    scoring_mode: str = "cosine"
    skip_on_error: bool = True

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), field_type(f)
            optional = f.type is not kind
            if not (_has_type(value, kind) or (optional and value is None)):
                expected = f"{kind.__name__} or null" if optional else kind.__name__
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
            # False for NaN, both infinities and an int beyond the float range
            if kind is float and not abs(value) <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")
        if not (0.0 < self.h < 1.0):
            raise ConfigError("h must be in (0, 1)")
        for name in ("k", "max_iters", "parallelism"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}")
        if self.timeout <= 0:
            raise ConfigError("timeout must be > 0")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_sources(
        cls,
        config_file: Optional[Union[str, Path]] = None,
        overrides: Optional[dict] = None,
    ) -> "RunConfig":
        """Build a config with precedence: overrides > file values > defaults."""
        values: dict = {}
        if config_file is not None:
            path = Path(config_file)
            try:
                data = json.loads(path.read_bytes())
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path} must hold a JSON object")
            values.update(data)
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)
