"""Shared exception types, the readers of text files, key sets and values, and
the one writer of values that those parsers read back."""
import enum
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


def check_keys(found, expected, what: str) -> None:
    """Refuse `found` keys unless they are the `expected` ones, a missing `what` first."""
    for key in expected:
        if key not in found:
            raise ConfigError(f"missing {what} {key!r}")
    for key in found:
        if key not in expected:
            raise ConfigError(f"unknown {what} {key!r}")


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


def format_value(value) -> str:
    """A config value as the parsers read it back: a bool as true/false, an
    enum member such as a `NoiseModel` by the name config files use (its
    value), anything else by `repr`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    return repr(value)


def parse_named(name: str, parse, raw: str):
    """`parse(raw)`, whose ConfigError names `name`."""
    try:
        return parse(raw)
    except ConfigError as err:
        raise ConfigError(f"{name}: {err}") from None
