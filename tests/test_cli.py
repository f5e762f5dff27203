import argparse
import json
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction

import pytest
from conftest import corpus_path
from hypothesis import given, settings, strategies as st
from tests_data_helpers import UNREADABLE_FILES

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
       ["partition", "lift", VSPLIT, "--format", "-3"],
       ["partition", "lift", "--format", "json", VSPLIT],
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


def test_points_reads_both_lists_off_one_scan(monkeypatch, capsys):
    # the interior list was a second scan of the bounding box
    from lgmirror import lattice
    scans = []
    scan = lattice.lattice_points
    monkeypatch.setattr(lattice, "lattice_points", lambda p: scans.append(p) or scan(p))
    assert main(["polytope", "points", SQUARE, "--format", "json"]) == 0
    assert len(scans) == 1
    assert json.loads(capsys.readouterr().out)["interior"] == [[0, 0]]


def test_no_argument_has_a_type():
    # _plain returns each value as the str argparse gives without a type
    assert [argument for _, _, arguments in COMMANDS.values()
            for argument, keywords in arguments if "type" in keywords] == []


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


def _unreadable_message(name, path):
    if name == "syntax-error.json":  # json's own message, as before
        return (f"JSONDecodeError('{path}: Expecting property name enclosed in "
                f"double quotes: line 1 column 12 (char 11)')")
    return f"{path}: " + {
        "latin-1.json": "'utf-8' codec can't decode byte 0xe9 in position 21: "
                        "invalid continuation byte",
        "deep.json": "maximum recursion depth exceeded while decoding a JSON "
                     "array from a unicode string",
        "long-int.json": "Exceeds the limit (4300 digits) for integer string "
                         "conversion: value has 5000 digits; use "
                         "sys.set_int_max_str_digits() to increase the limit",
    }[name]


@pytest.mark.parametrize("name", UNREADABLE_FILES)
def test_a_file_json_cannot_read_exits_3_naming_it(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_bytes(UNREADABLE_FILES[name])
    message = _unreadable_message(name, path)
    for argv in (["polytope", "points", str(path)], ["ss", "weight", str(path)]):
        assert _run(argv, capsys) == (3, "", f"cannot read input: {message}\n")


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# every str json.dumps escapes: non-ASCII, control characters, lone surrogates
_TEXT = st.text(st.characters(blacklist_categories=()))
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(-10 ** 60, 10 ** 60) | _TEXT)
_VALUES = st.recursive(
    _LEAVES, lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                            | st.dictionaries(_TEXT, inner)
                            | st.lists(st.integers(-10 ** 30, 10 ** 30))),
    max_leaves=40)


@settings(max_examples=400)
@given(_VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert cli._json_text(value) == _dumps(value)


def test_the_writer_matches_json_dumps_on_every_corpus_payload(monkeypatch):
    from cli_snapshot import ONE_FILE_ACTIONS, TWO_FILE_CALLS
    payloads = []
    monkeypatch.setattr(cli, "emit", lambda payload, fmt, text_renderer=None:
                        payloads.append(payload))
    monkeypatch.chdir(cli.data_dir())
    for name in cli.corpus_names():
        for command, actions in ONE_FILE_ACTIONS.items():
            for action in actions:
                main([command, action, f"{name}.json", "--format", "json"])
    for call in TWO_FILE_CALLS:
        main([*call, "--format", "json"])
    assert len(payloads) == 51  # the corpus commands that print a report
    for payload in payloads:
        assert cli._json_text(payload) == _dumps(payload)


@pytest.mark.parametrize("value, kind", [
    (0.5, "float"), (Fraction(1, 2), "Fraction"), ({1: 2}, "int"),
    ({1, 2}, "set"), (namedtuple("Pair", "a b")(1, 2), "Pair"),
    ({"points": [[0, 0], [1, 0.0]]}, "float")])
def test_the_writer_refuses_what_no_report_holds(value, kind):
    with pytest.raises(TypeError, match=f"of type {kind} as JSON"):
        cli._json_text(value)


@pytest.mark.parametrize("absolute", [True, False])
def test_a_polytope_name_reaches_no_file_outside_the_corpus(tmp_path, capsys, absolute):
    # a name joined onto the data directory loaded any readable x.json
    (tmp_path / "x.json").write_text('{"rank": 2, "vertices": [[1, 0], [0, 1], [-1, -1]]}')
    name = str(tmp_path / "x")
    if not absolute:
        name = os.path.relpath(name, cli.data_dir())
    nef = tmp_path / "nef.json"
    nef.write_text(json.dumps({"polytope": name, "parts": [[0, 1, 2]]}))
    assert _run(["lg", "emit", str(nef)], capsys) == (
        3, "", f"cannot read input: no bundled polytope named '{name}'\n")
    assert _run(["corpus", name], capsys) == (
        3, "", f"cannot read input: no bundled document named '{name}'\n")
    assert _run(["corpus", "square"], capsys) == (0, f"{cli.data_dir() / 'square.json'}\n", "")
