import argparse
import os
import subprocess
import sys

import pytest
from conftest import corpus_path
from hypothesis import given, settings, strategies as st

from lgmirror import cli
from lgmirror.cli import COMMANDS, main

SQUARE = corpus_path("square")
VSPLIT = corpus_path("square-vsplit")

# Help, usage and error shapes, and spellings that only argparse reads:
# main must print what the parser with every subcommand prints.
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
       ["polytope", "points", SQUARE, "--format=json"],
       ["polytope", "points", SQUARE, "--form", "json"],
       ["polytope", "points", SQUARE, "--format", "json", "--format", "text"],
       ["polytope", "points", "--format", "json", SQUARE],
       ["partition", "lift", VSPLIT, "--bound", "-3"],
       ["partition", "lift", "--bound", "2", VSPLIT],
       ["ss", "pw", "--", corpus_path("elliptic-deg-complex"),
        corpus_path("elliptic-hyb-complex")],
       ["corpus"], ["corpus", "square"], ["corpus", "square", "cube"]]
)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Each of these costs milliseconds of every command line, and reading one
# needs none of them.
HEAVY_MODULES = ("dataclasses", "inspect", "typing", "importlib.resources")


def test_a_command_line_starts_without_heavy_modules():
    """`python -S` skips the site .pth files, which may import these first
    and so hide an import that lgmirror makes."""
    code = ("import sys, lgmirror.cli\n"
            "lgmirror.cli.build_parser()\n"
            f"print(sorted(set({HEAVY_MODULES!r}) & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


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
    plain = _run(argv, capsys)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert plain == _run(argv, capsys)


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


def test_a_plain_command_line_builds_no_parser(monkeypatch, capsys):
    built = _count_parsers(monkeypatch)
    assert main(["polytope", "points", SQUARE, "--format", "json"]) == 0
    assert built == []


# words that argparse reads otherwise than as a plain value, or not at all
_ODD = ["", "-", "--", "-h", "--help", "-3", "--bogus", "--form", "--boun",
        "--lambd", "--mod", "--spli"]
_WORDS = st.sampled_from(["f.json", "g h.json", "x=y", "3", "z", "xml", "pw",
                          "points", "square", "polytope"] + _ODD)


def _values(keywords):
    return st.sampled_from(keywords.get("choices") or ["3", "0:1", "a,b", "f.json"])


@st.composite
def _argv(draw):
    """A plain argv drawn from COMMANDS, each option in either spelling and
    at times repeated, then up to two edits that insert, replace or swap
    words, odd ones among them."""
    command = draw(st.sampled_from(list(COMMANDS)))
    words, options = [command], []
    for argument, keywords in COMMANDS[command][2]:
        if argument.startswith("--"):
            for value in draw(st.lists(_values(keywords), max_size=2)):
                options += ([f"{argument}={value}"] if draw(st.booleans())
                            else [argument, value])
        else:
            low, high = {None: (1, 1), "?": (0, 1), "+": (1, 3)}[keywords.get("nargs")]
            words += draw(st.lists(_values(keywords), min_size=low, max_size=high))
    words += options
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(words)))
        edit = draw(st.sampled_from(["insert", "replace", "swap"]))
        if edit == "insert":
            words.insert(i, draw(_WORDS))
        elif i < len(words):
            j = draw(st.integers(0, len(words) - 1))
            if edit == "replace":
                words[i] = draw(_WORDS)
            else:
                words[i], words[j] = words[j], words[i]
    return words


@settings(max_examples=400)
@given(_argv())
def test_the_reader_returns_what_argparse_returns(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


def test_lg_emit_rejects_lambda(capsys):
    # --lambda names compactify's fiber parameters; emit would ignore it
    assert main(["lg", "emit", corpus_path("diamond-nef"), "--lambda", "a,b,c"]) == 3
    assert capsys.readouterr() == ("", (
        "error: --lambda names the fiber parameters of lg compactify; "
        "lg emit takes none\n"))
