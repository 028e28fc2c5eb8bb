"""Text checkpoint container shared by the encoder, cost head, and proxies.

Layout: the format line `relviews-checkpoint 2`, one `config` line per
key=value pair, then per tensor a `tensor <name> <dim0,dim1,...>` line
followed by one line of space-separated values at 17 significant digits
(bit-comparable float64 round trips). Tensor order is fixed by the writer
and preserved on read. Every malformed or repeated line, and every NaN or
infinite tensor value, raises a ConfigError that names the file and, for a
config key or a tensor, the key or the tensor. A file of another format is
refused by its format line: format 1 stored an edge map in the final
encoder layer and edge tensors in the proxies, and its models have to be
trained again (`errors.check_format`). The config keys are `training.CONFIG_KEYS`,
their parsers `errors`'; `TrainedModel.save`/`load` write and check them.
"""
from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, check_format, read_text

_HEADER = "relviews-checkpoint 2"


def write_checkpoint(path, config: dict[str, str],
                     tensors: list[tuple[str, np.ndarray]]) -> None:
    lines = [_HEADER]
    for key in config:
        lines.append(f"config {key}={config[key]}")
    for name, arr in tensors:
        arr = np.asarray(arr, dtype=np.float64)
        dims = ",".join(str(d) for d in arr.shape) if arr.ndim else "0"
        lines.append(f"tensor {name} {dims}")
        lines.append(" ".join(f"{x:.17g}" for x in arr.ravel()))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path) -> tuple[dict[str, str], list[tuple[str, np.ndarray]]]:
    lines = read_text(path, "checkpoint").splitlines()
    check_format(path, lines[0] if lines else "", _HEADER, "checkpoint", "train the model again")
    config: dict[str, str] = {}
    tensors: list[tuple[str, np.ndarray]] = []
    names: set[str] = set()
    i = 1
    while i < len(lines):
        line = lines[i]
        if line.startswith("config "):
            key, _, value = line[len("config "):].partition("=")
            if key in config:
                raise ConfigError(f"{path}: duplicate config key {key!r}")
            config[key] = value
            i += 1
        elif line.startswith("tensor "):
            name, _, dims = line[len("tensor "):].partition(" ")
            if name in names:
                raise ConfigError(f"{path}: duplicate tensor {name}")
            names.add(name)
            if i + 1 >= len(lines):
                raise ConfigError(f"{path}: truncated tensor {name}")
            if not re.fullmatch(r"\d+(,\d+)*", dims):
                raise ConfigError(f"{path}: tensor {name}: bad dims {dims!r}")
            shape = tuple(int(d) for d in dims.split(",")) if dims != "0" else ()
            try:
                values = np.array([float(t) for t in lines[i + 1].split()])
            except ValueError as err:
                raise ConfigError(f"{path}: tensor {name}: {err}") from None
            expect = int(np.prod(shape)) if shape else 1
            if values.size != expect:
                raise ConfigError(f"{path}: tensor {name}: expected {expect} values, "
                                  f"got {values.size}")
            if not np.isfinite(values).all():
                raise ConfigError(f"{path}: tensor {name}: non-finite value")
            tensors.append((name, values.reshape(shape)))
            i += 2
        elif not line.strip():
            i += 1
        else:
            raise ConfigError(f"{path}: unrecognized checkpoint line: {line!r}")
    return config, tensors
