import argparse
import sys

import pytest
from conftest import corpus_path

from lgmirror import cli
from lgmirror.cli import COMMANDS, main

SQUARE = corpus_path("square")

# Help, usage and error shapes: main builds only the subcommand argv names,
# and must print what the parser with every subcommand prints.
ARGV_SHAPES = (
    [["-h"], ["-h", "polytope"], [], ["bogus"], ["--bad"], ["bogus", "-h"]]
    + [[name, "-h"] for name in COMMANDS]
    + [[name] for name in COMMANDS]
    + [[name, "bogus"] for name in COMMANDS if name != "corpus"]
    + [["polytope", "points", SQUARE, "--format", "xml"],
       ["partition", "lift", corpus_path("square-vsplit"), "--bound", "z"],
       ["polytope", "points", SQUARE, "extra"],
       ["ss", "delta"],
       ["ss", "pw", corpus_path("elliptic-deg-complex")],
       ["lg", "emit", corpus_path("diamond-nef"), "--split"],
       ["euler", "check", corpus_path("elliptic-deg")],
       ["polytope", "--format", "json", "points", SQUARE],
       ["polytope", "points", SQUARE, "--format", "json"],
       ["corpus"], ["corpus", "square"], ["corpus", "square", "cube"]]
)


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("columns", ["80", "40"])
@pytest.mark.parametrize("argv", ARGV_SHAPES, ids=" ".join)
def test_cli_text_matches_the_full_parser(monkeypatch, capsys, argv, columns):
    # a narrow terminal wraps the usage line, which must wrap the same way
    monkeypatch.setenv("COLUMNS", columns)
    narrowed = _run(argv, capsys)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert narrowed == _run(argv, capsys)


def test_usage_line_wraps_on_a_narrow_terminal(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "40")
    assert _run(["polytope", "points", SQUARE, "extra"], capsys) == (2, "", (
        "usage: lgmirror [-h]\n"
        "                {polytope,partition,lg,euler,ss,corpus}\n"
        "                ...\n"
        "lgmirror: error: unrecognized arguments: extra\n"))


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize("name", COMMANDS)
def test_a_known_command_builds_only_its_subparser(monkeypatch, capsys, name):
    built = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main([name, "-h"])
    assert len(built) == 2
    built.clear()
    monkeypatch.setattr(sys, "argv", ["lgmirror", name, "-h"])
    with pytest.raises(SystemExit):
        main()
    assert len(built) == 2
    built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(built) == 1 + len(COMMANDS)
