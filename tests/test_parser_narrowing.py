"""``main`` builds the top-level parser and only the invoked subcommand's
parser; help, a missing and an unknown command get the full parser.  These
tests pin that the narrowed parser prints, parses and fails as the full one
does, comparing the two in the same interpreter, so they hold across Python
versions whose argparse layout differs."""

import argparse
import json
import runpy
import sys

import pytest

from lineact import cli
from lineact.cli import build_parser, main
from test_cli import _REQUIRED_ARGV
from test_golden_payloads import CASES


def _subcommands(ap: argparse.ArgumentParser) -> list[str]:
    """The names of the subcommand parsers that ap holds."""
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


COMMANDS = _subcommands(build_parser())

# argv that argparse answers itself, with help or an error, and exit
_TEXT_ARGV = {
    "help": ["--help"],
    **{f"{c}-help": [c, "--help"] for c in COMMANDS},
    "no-args": [],
    "unknown-command": ["zzz"],
    "eval-no-expr": ["eval", "--point", "0"],
    "eval-point-and-interval": ["eval", "--expr", "identity", "--point", "0",
                                "--interval", "0", "1"],
    # an unrecognized argument prints the top-level usage line
    "relations-format": ["relations", "--format", "csv"],
}


def _outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _TEXT_ARGV.values(), ids=_TEXT_ARGV.keys())
def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full = _outcome(capsys, build_parser().parse_args, argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _outcome(capsys, main, argv) == full


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["zzz"], "argument command: invalid choice: 'zzz'"),
], ids=["no-args", "unknown-command"])
def test_full_parser_names_the_command_argument(capsys, argv, error):
    # a subcommand list as the metavar of the full parser would name the
    # argument "{gallery-list,...}" in these errors
    code, out, err = _outcome(capsys, main, argv)
    assert (code, out) == (2, "") and error in err


_PARSE_ARGV = [[c, *rest] for c, rest in _REQUIRED_ARGV.items()]
_PARSE_ARGV += [argv for _, argv in CASES.values()]


def test_parse_cases_cover_every_subcommand():
    assert {argv[0] for argv in _PARSE_ARGV} == set(COMMANDS)


@pytest.mark.parametrize("argv", _PARSE_ARGV, ids=" ".join)
def test_narrowed_parse_matches_the_full_parse(argv):
    # equal namespaces give equal configs, which are worked out from them
    narrowed = vars(build_parser(argv[0]).parse_args(argv))
    assert narrowed == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", COMMANDS)
def test_narrowed_parser_holds_one_subcommand(command):
    assert _subcommands(build_parser(command)) == [command]


@pytest.mark.parametrize("only", ["zzz", "-h", "--help"])
def test_any_other_name_builds_the_full_parser(only):
    assert _subcommands(build_parser(only)) == COMMANDS


def test_main_builds_only_the_invoked_subcommand(capsys, monkeypatch):
    built = []

    def spy(only=None):
        ap = build_parser(only)
        built.append(_subcommands(ap))
        return ap

    monkeypatch.setattr(cli, "build_parser", spy)
    assert main(["eval", "--expr", "identity", "--point", "0"]) == 0
    assert built == [["eval"]]


def _untimed(text: str) -> dict:
    doc = json.loads(text)
    doc.pop("timestamp")
    return doc


# the module is imported already, so runpy warns that it runs it again
@pytest.mark.filterwarnings("ignore:'lineact.cli' found in sys.modules:RuntimeWarning")
def test_module_entry_point_reads_sys_argv(capsys, monkeypatch):
    _, argv = CASES["eval.json"]
    assert main(argv) == 0
    expected = _untimed(capsys.readouterr().out)
    monkeypatch.setattr(sys, "argv", ["line-act", *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("lineact.cli", run_name="__main__")
    assert exc.value.code == 0
    assert _untimed(capsys.readouterr().out) == expected
