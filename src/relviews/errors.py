"""Shared exception types, and the readers of files, format lines and values."""
import math


class ConfigError(ValueError):
    """Invalid configuration file or parameter value (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Non-finite values or failed numeric procedure (CLI exit code 3)."""


def read_text(path, kind: str) -> str:
    """A UTF-8 text file's text; bytes that are not UTF-8 raise a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not a {kind} file: byte {err.start} is not UTF-8 text") \
            from None


def check_format(path, found: str, header: str, kind: str, remedy: str) -> None:
    """Refuse a file whose format `found` is not exactly `header` ("<name>
    <version>"): another version by name, with `remedy`; else as not a `kind` file."""
    if found != header and found.startswith(header.split()[0] + " "):
        raise ConfigError(f"{path}: {kind} format {found!r} is not read by this version, "
                          f"which reads {header!r}; {remedy}")
    if found != header:
        raise ConfigError(f"not a {kind} file: {path}")


def check_keys(found, expected, kind: str) -> None:
    """Refuse `found` keys unless they are the `expected` ones, a missing key first."""
    for key in expected:
        if key not in found:
            raise ConfigError(f"missing {kind} key {key!r}")
    for key in found:
        if key not in expected:
            raise ConfigError(f"unknown {kind} key {key!r}")


def parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def parse_named(name: str, parse, raw: str):
    """`parse(raw)`, whose ConfigError names `name`."""
    try:
        return parse(raw)
    except ConfigError as err:
        raise ConfigError(f"{name}: {err}") from None
