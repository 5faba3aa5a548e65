"""The package namespace: each public name is its defining module's; every
input file is read through one opener; and every INI text through one
reader."""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import crashbench


def test_every_public_name_is_its_modules_object():
    for module, names in crashbench._PUBLIC.items():
        defining = import_module(f"crashbench.{module}")
        for name in names:
            assert getattr(crashbench, name) is getattr(defining, name), name
    assert set(crashbench.__all__) == {
        *(name for names in crashbench._PUBLIC.values() for name in names),
        "__version__",
    }


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from crashbench import *", namespace)
    assert set(crashbench.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(crashbench.__all__) <= set(dir(crashbench))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'crashbench' has no attribute 'nope'"):
        crashbench.nope


def test_public_name_count():
    # The size of the public surface is tracked (ROADMAP aim 2).
    assert len(crashbench.__all__) == 53


def _file_reads(source: str):
    """(function, line, call) of each call in ``source`` that reads a file
    itself: ``open`` or ``.open`` in a mode that reads, ``.read_text``,
    ``.read_bytes``, ``json.load``, and ``.read`` given a path (as
    ``ConfigParser.read`` is); a handle's own ``.read()`` takes none."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            method = func.attr if isinstance(func, ast.Attribute) else None
            given = [k.value for k in node.keywords if k.arg == "mode"] + node.args
            mode = next((a.value for a in given if isinstance(a, ast.Constant)
                         and isinstance(a.value, str)), "r")
            if (method in ("read_text", "read_bytes")
                    or ("open" in (method, getattr(func, "id", None))
                        and not set(mode) & set("wax"))
                    or (method == "read" and node.args)
                    or ast.unparse(func) == "json.load"):
                found.append((function, node.lineno, ast.unparse(func)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_the_guard_finds_each_way_of_reading_a_file():
    source = (
        "def f(p, q, fh, cp):\n"
        "    open(p); open(p, 'rb'); p.open(); p.open(mode='r', encoding='utf-8')\n"
        "    p.read_text(); p.read_bytes(); json.load(fh); cp.read(p)\n"
        "    open(q, 'w'); q.open('a'); fh.read(); json.loads(fh.read()); cp.read_file(fh)\n"
    )
    calls = [call for _, _, call in _file_reads(source)]
    assert calls == ["open", "open", "p.open", "p.open", "p.read_text", "p.read_bytes",
                     "json.load", "cp.read"]


def test_only_the_opener_reads_input_files():
    # errors._opened opens every input file, so one rule decides how an
    # unreadable file, a byte that is not UTF-8 or a malformed row is named.
    package = Path(crashbench.__file__).parent
    found = [
        f"{path.name}:{line} {function}: {call}"
        for path in sorted(package.glob("*.py")) if path.name != "errors.py"
        for function, line, call in _file_reads(path.read_text(encoding="utf-8"))
    ]
    assert not found


def _ini_parsers(source: str) -> list[int]:
    """The line of each ``ConfigParser`` (or ``RawConfigParser``) built in
    ``source``, under any module prefix."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and ast.unparse(node.func).rpartition(".")[2]
            in ("ConfigParser", "RawConfigParser")]


def test_the_ini_guard_finds_each_parser_built():
    source = (
        "import configparser\n"
        "from configparser import ConfigParser, RawConfigParser\n"
        "a = configparser.ConfigParser(interpolation=None)\n"
        "b = ConfigParser(); c = RawConfigParser()\n"
        "d = configparser.Error; e = isinstance(a, configparser.ConfigParser)\n"
    )
    assert _ini_parsers(source) == [3, 4, 4]


def test_only_the_ini_reader_builds_a_config_parser():
    # errors._Ini reads every spec, population spec and config file, so one
    # rule decides how INI text parses and which sections and keys it may hold.
    package = Path(crashbench.__file__).parent
    found = {path.name: _ini_parsers(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == \
        {"errors.py": found["errors.py"]}
    assert len(found["errors.py"]) == 1
