"""Shared exception types, and the one opener of input files."""

import configparser
import csv
import io
import json
from contextlib import contextmanager, suppress
from pathlib import Path


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


class SchemaError(ValidationError):
    """A schema spec file is malformed or references a missing column."""


class ReferentialError(ValidationError):
    """A child row references a crash or unit that does not exist."""


class UndefinedStatistic(ValueError):
    """A ratio, share, or weight is undefined for the given inputs."""


@contextmanager
def _opened(source, label: str):
    """A UTF-8 text handle (``newline=""``) on ``source``, a path or a file
    shipped with the package, for every reader of an input file.

    A file that cannot be opened, and a byte that is not UTF-8, a row that
    ``csv.reader(..., strict=True)`` rejects or text that is not JSON or
    INI, met while the handle is open, is a ValidationError naming
    ``label``, the file and the line.  The line is worked out only then.
    """
    path = Path(source) if isinstance(source, str) else source
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(
            f"{label} not found or not readable: {source} ({exc.strerror})") from None
    with handle:
        try:
            yield handle
        except (UnicodeDecodeError, csv.Error, json.JSONDecodeError,
                configparser.Error) as exc:
            raise ValidationError(f"{label} {source}{_fault(path, exc)}") from None


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", (int, float): "a number"}


def _json_check(label: str):
    """``check(value, kind, where)``: ``value`` when it is JSON of ``kind``,
    else a ValidationError naming ``label``'s file and ``where`` in it."""
    def check(value, kind, where: str):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(f"{label}: {where} must be {_JSON_KINDS[kind]}")
        return value

    return check


def _fault(path, exc: Exception) -> str:
    """':line: what' of ``exc``, met while reading ``path``."""
    if isinstance(exc, json.JSONDecodeError):
        return f":{exc.lineno}: not valid JSON: {exc.msg}"
    if isinstance(exc, configparser.Error):
        return f": {exc}"  # configparser names the line itself
    data = path.read_bytes()
    if isinstance(exc, UnicodeDecodeError):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as bad:
            line = data.count(b"\n", 0, bad.start) + 1
            return f":{line}: byte 0x{data[bad.start]:02x} at offset {bad.start} is not UTF-8"
    # A csv.Error: the line its row starts on.
    text = data.decode("utf-8", "replace")
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    line = 1
    with suppress(csv.Error):
        for _ in reader:
            line = reader.line_num + 1
    return f":{line}: {exc}"
