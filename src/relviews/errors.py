"""Shared exception types, and the text-file reader that raises them."""


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
