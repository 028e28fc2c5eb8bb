"""Flat key=value run configuration files.

Keys carry dotted prefixes mirroring the component configs (synth.eta,
encoder.layers, ...). Each is defined once, in `training.CONFIG_KEYS` (the
`synth.*` ones in `synth.SYNTH_KEYS`), with its parser from `errors`.
Unknown and duplicate keys are rejected and every value is validated
before any work starts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, parse_named, read_text
from .synth import SynthConfig
from .training import CONFIG_KEYS, TrainConfig, build_configs


@dataclass(frozen=True)
class RunConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = parse_named(f"{source}:{lineno}: {key}", CONFIG_KEYS[key][2], raw)
    try:
        synth, train = build_configs(values)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from None
    return RunConfig(synth=synth, train=train)


def load_config(path) -> RunConfig:
    try:
        text = read_text(path, "config")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return parse_config_text(text, source=str(path))
