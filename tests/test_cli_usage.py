"""Usage, help and argument errors of the command line, byte for byte, and
which argument parsers one call builds.

`cli_usage.json` holds stdout, stderr and exit code of `main(argv)` for each
argv below at three terminal widths.  Regenerate it, after a deliberate
change to the command line, with

    PYTHONPATH=src python tests/test_cli_usage.py
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import gen
import transcript
from silkcheck import cli, corpus_path
from silkcheck.cli import main

GOLDEN = Path(__file__).with_name("cli_usage.json")
WIDTHS = ("40", "80", "200")
COMMANDS = ("check-lk", "check-schema", "check-silk", "unroll", "ppsnf", "translate", "interpret", "stats")
ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["frob"],
    ["--bogus"],
    ["--bogus", "unroll"],
    *[[command, "-h"] for command in COMMANDS],
    *[[command] for command in COMMANDS],
    ["unroll", "a.sch"],
    ["stats", "a.sch"],
    ["stats", "a.sch", "--alpha-range", "2..1"],
    ["unroll", "a.sch", "--alpha", "x"],
    ["check-lk", "a.lkp", "--mode", "lkx"],
    ["unroll", "a.sch", "--alpha", "1", "--bogus"],
    ["interpret", "a", "b"],
    # Lines the plain reader refuses, which argparse alone reads and reports.
    ["unroll", "a.sch", "--alp", "1"],
    ["unroll", "a.sch", "--alpha=1"],
    ["ppsnf", "a.slk", "-oout.slk"],
    ["check-lk", "a.lkp", "--json", "--json"],
    ["unroll", "a.sch", "--alpha", "-1"],
    ["stats", "a.sch", "--alpha-range", "0..2", "--", "b"],
]


def record(argv, columns):
    """(exit code, stdout, stderr) of ``main(argv)`` at a terminal ``columns`` wide."""
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = columns
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return [code, out.getvalue(), err.getvalue()]


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # argparse lays out help differently from one Python release to the next.
    if data["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"recorded under Python {data['python']}'s argparse")
    return data["runs"]


@pytest.mark.parametrize("columns", WIDTHS)
@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_and_help_are_byte_identical(golden, argv, columns):
    assert record(argv, columns) == golden[columns][" ".join(argv)]


def _count_subparsers(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return built


def _count_parsers(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


# The options each command requires, with a value they read.
REQUIRED = {"unroll": ["--alpha", "1"], "stats": ["--alpha-range", "0..1"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_named_command_builds_only_its_parser(monkeypatch, capsys, command):
    # A plain line is read off the option table and builds no parser; a line
    # the plain reader refuses, an abbreviation or help, is read by the
    # top-level parser, which builds every command's subparser.
    plain = [command, "/nonexistent/file", *REQUIRED.get(command, [])]
    progs = _count_parsers(monkeypatch)
    assert main(plain) == 2
    assert progs == []
    built = _count_subparsers(monkeypatch)
    for word, code in (("--jso", 2), ("-h", 0)):
        assert main([*plain, word]) == code
        assert progs == ["silkcheck", *(f"silkcheck {name}" for name in COMMANDS)]
        assert built == list(COMMANDS)
        progs.clear()
        built.clear()


# Lines the benchmark sends, beyond the forms of transcript.py.
BENCHMARK_LINES = [
    ["unroll", "schema_exp.sch", "--alpha", "10", "--lk", "--check", "--quiet", "--json"],
    ["stats", "schema_shat.sch", "--alpha-range", "0..70"],
    ["check-lk", "lk_nu_shat.lkp", "--mode", "lks", "--env", "schema_shat.sch"],
]


@pytest.mark.parametrize(
    "argv",
    [[command, "a.sch", *options, *json] for command, *options in transcript.FORMS for json in ((), ("--json",))]
    + BENCHMARK_LINES,
    ids=" ".join,
)
def test_the_lines_users_and_the_benchmark_send_are_plain(argv):
    # A line the plain reader refused would still run, through argparse,
    # so only this notices a reader that refuses too much.
    assert cli._plain(argv) is not None


def test_every_option_uses_only_what_the_plain_reader_reads():
    # A keyword such as nargs or action="append" would make argparse read a
    # line the reader reads otherwise.
    for _, _, options in cli._COMMANDS.values():
        for flags, kwargs in cli._SHARED + options:
            assert set(kwargs) <= {"type", "choices", "default", "required", "action", "help", "metavar"}, flags
            assert kwargs.get("action", "store_true") == "store_true", flags


def test_the_plain_reader_builds_the_namespace_argparse_builds():
    gen.argv_reader_property(300)()


@pytest.mark.parametrize("argv", [[], ["-h"], ["frob"], ["--bogus", "unroll"]], ids=["none", "-h", "unknown", "option"])
def test_anything_else_builds_every_parser(monkeypatch, capsys, argv):
    built = _count_subparsers(monkeypatch)
    assert main(argv) in (0, 2)
    assert built == list(COMMANDS)


def test_each_call_reads_the_fuel_variable_again(monkeypatch, capsys):
    argv = ["check-lk", str(corpus_path("lk_pi_shat.lkp")), "--json"]
    fuels = []
    for value in ("17", "23"):
        monkeypatch.setenv("SILK_FUEL", value)
        assert main(argv) == 0
        fuels.append(json.loads(capsys.readouterr().out)["params"]["fuel"])
    assert fuels == [17, 23]


if __name__ == "__main__":
    runs = {columns: {" ".join(argv): record(argv, columns) for argv in ARGVS} for columns in WIDTHS}
    golden = {"python": "%d.%d" % sys.version_info[:2], "runs": runs}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
