"""The one text container of the repo's files: checkpoints and datasets.

Layout: a format line (`relviews-checkpoint 3`, `relviews-synth 4`), one
`config` line per key=value pair, then per tensor a `tensor <name>
<dim0,dim1,...>` line and a line of its values at 17 significant digits, so
float64 values read back bit for bit, in the writer's tensor order. Every
malformed or repeated line, and every NaN or infinite value, raises a
ConfigError that names the file, its kind and the key or tensor. Another
version of the format is refused by name, with the kind's remedy. Each kind's
reader checks its keys and tensors: `TrainedModel.load` against
`training.CONFIG_KEYS`, the parameter stores' tensor names and one stack of
class proxies under `proxies.ids` (see `TrainedModel.save`), `synth.load`
against `synth.SYNTH_KEYS` and its shapes.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, read_text


def write_container(path, header: str, config: dict[str, str],
                    tensors: list[tuple[str, np.ndarray]]) -> None:
    """Write `config` and `tensors` (each of at least one dim) under the format
    line `header`, LF endings."""
    lines = [header]
    for key in config:
        lines.append(f"config {key}={config[key]}")
    for name, arr in tensors:
        arr = np.asarray(arr, dtype=np.float64)
        lines.append(f"tensor {name} {','.join(str(d) for d in arr.shape)}")
        # Python floats format faster than numpy scalars, to the same text
        lines.append(" ".join(f"{x:.17g}" for x in arr.ravel().tolist()))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_container(path, header: str, kind: str, remedy: str
                   ) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """The config and tensors of a `kind` file whose format line is `header`
    ("<name> <version>"). Another version of `name` is refused by its first
    two tokens, with `remedy`; any other format line as not a `kind` file."""
    lines = read_text(path, kind).splitlines()
    first = lines[0] if lines else ""
    found = " ".join(first.split()[:2])
    if first != header and found != header and found.startswith(header.split()[0] + " "):
        raise ConfigError(f"{path}: {kind} format {found!r} is not read by this version, "
                          f"which reads {header!r}; {remedy}")
    if first != header:
        raise ConfigError(f"not a {kind} file: {path}")
    config: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("config "):
            key, _, value = line[len("config "):].partition("=")
            if key in config:
                raise ConfigError(f"{path}: duplicate {kind} config key {key!r}")
            config[key] = value
            i += 1
        elif line.startswith("tensor "):
            name, _, dims = line[len("tensor "):].partition(" ")
            if name in tensors:
                raise ConfigError(f"{path}: duplicate {kind} tensor {name}")
            if i + 1 >= len(lines):
                raise ConfigError(f"{path}: truncated {kind} tensor {name}")
            if not re.fullmatch(r"\d+(,\d+)*", dims):
                raise ConfigError(f"{path}: {kind} tensor {name}: bad dims {dims!r}")
            shape = tuple(int(d) for d in dims.split(","))
            try:
                values = np.array([float(t) for t in lines[i + 1].split()])
            except ValueError as err:
                raise ConfigError(f"{path}: {kind} tensor {name}: {err}") from None
            expect = int(np.prod(shape))
            if values.size != expect:
                raise ConfigError(f"{path}: {kind} tensor {name}: expected {expect} values, "
                                  f"got {values.size}")
            if not np.isfinite(values).all():
                raise ConfigError(f"{path}: {kind} tensor {name}: non-finite value")
            tensors[name] = values.reshape(shape)
            i += 2
        elif not line.strip():
            i += 1
        else:
            raise ConfigError(f"{path}: unrecognized {kind} line: {line!r}")
    return config, tensors
