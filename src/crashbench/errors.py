"""Shared exception types, the one opener of input files, the record of
what a run read and the one INI reader."""

import csv
import io
import json
import os
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
    ``csv.reader(..., strict=True)`` rejects or text that is not JSON, met
    while the handle is open, is a ValidationError naming ``label``, the
    file and the line.  The line is worked out only then.  A file read
    without fault is hashed once into the open recording (``_reading``).
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
        except (UnicodeDecodeError, csv.Error, json.JSONDecodeError) as exc:
            raise ValidationError(f"{label} {source}{_fault(path, exc)}") from None
    if _record is not None and str(path) not in _record:
        # Hashed after the parse, into one reused buffer: the csv loops stay
        # fast, and no input is held whole.
        import hashlib  # only a recording run (the CLI) hashes
        digest, chunk = hashlib.sha256(), bytearray(1 << 16)
        with path.open("rb") as raw:
            while size := raw.readinto(chunk):
                digest.update(memoryview(chunk)[:size])
        _record[str(path)] = digest.hexdigest()


def _ends_a_line(handle) -> bool:
    """Whether the file that ``handle`` (from ``_opened``) reads, not empty
    and read to its end, ends with a line ending."""
    handle.buffer.seek(-1, os.SEEK_END)
    return handle.buffer.read(1) in (b"\n", b"\r")


# The sha256 of each file read without fault while a recording is open, by path.
_record: dict[str, str] | None = None


@contextmanager
def _reading():
    """A recording of the files ``_opened`` reads.  A nested one starts from
    what the enclosing one holds and leaves it as it was."""
    global _record
    outer, _record = _record, dict(_record or {})
    try:
        yield
    finally:
        _record = outer


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               (int, float): "a number"}


def _json_check(label: str):
    """``check(value, kind, where, among=None, text=False)``: ``value`` when
    it is JSON of ``kind`` (and one of ``among``, if given; a string that
    is not empty or all whitespace, if ``text``), else a ValidationError
    naming ``label``'s file and ``where`` in it.  ``check.label`` is
    ``label``, for callers that reject a value on other grounds."""
    def check(value, kind, where: str, among: tuple | None = None, text: bool = False):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValidationError(f"{label}: {where} must be {_JSON_KINDS[kind]}")
        if text and not value.strip():
            raise ValidationError(f"{label}: {where} must be a non-blank string")
        if among is not None and value not in among:
            raise ValidationError(f"{label}: {where} must be {' or '.join(among)}")
        return value

    check.label = label
    return check


class _Ini:
    """The sections and keys of one INI text (a spec, a population spec or
    a config file), read one way: no interpolation, ``#`` comments after a
    value, keys as written, no DEFAULT section, and a section or key given
    twice is an error.  Lines may end in \\n, \\r\\n or \\r.

    Every section and key a caller looks up is recorded, and ``check``
    rejects any other: a key is allowed because a reader reads it, as a
    raw file's column is required because a rule reads it.  Faults are
    ``error``s naming ``label``, the section and the key.
    """

    def __init__(self, text: str, label: str, error: type = ValidationError) -> None:
        import configparser  # imported only by the commands that read an INI text
        self.label, self._error, self._read = label, error, {}
        self._parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#",), default_section="")
        self._parser.optionxform = str  # type: ignore[method-assign]
        try:
            self._parser.read_file(io.StringIO(text, newline=None), source=label)
        except configparser.Error as exc:
            raise error(f"{label}: {exc}") from None

    def has(self, section: str) -> bool:
        """Whether ``[section]`` is given."""
        self._read.setdefault(section, set())
        return self._parser.has_section(section)

    def get(self, section: str, key: str, required: bool = False, parse=None):
        """``key``'s value in ``[section]``, read by ``parse(text, where)``
        if given; None when the value is empty or absent, an error then if
        ``required``."""
        self._read.setdefault(section, set()).add(key)
        text = self._parser.get(section, key, fallback="").strip()
        where = f"{self.label}: [{section}] {key}"
        if not text:
            if required:
                raise self._error(f"{where}: missing")
            return None
        return parse(text, where) if parse else text

    def items(self, section: str) -> list[tuple[str, str]]:
        """Every (key, value) of ``[section]``, whose keys are data."""
        if not self.has(section):
            raise self._error(f"{self.label}: [{section}] missing")
        pairs = self._parser.items(section)
        self._read[section].update(key for key, _ in pairs)
        return pairs

    def check(self, *sections: str) -> None:
        """Reject a section or key that no lookup has read: in every section,
        or only in ``sections`` if any are named."""
        for section in sections or self._parser.sections():
            if section not in self._read:
                raise self._error(f"{self.label}: unknown section [{section}]; "
                                  f"expected one of {sorted(self._read)}")
            for key in self._parser.options(section):
                if key not in self._read[section]:
                    raise self._error(
                        f"{self.label}: [{section}] {key}: unknown key; "
                        f"expected one of {sorted(self._read[section])}")


def _fault(path, exc: Exception) -> str:
    """':line: what' of ``exc``, met while reading ``path``."""
    if isinstance(exc, json.JSONDecodeError):
        return f":{exc.lineno}: not valid JSON: {exc.msg}"
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
