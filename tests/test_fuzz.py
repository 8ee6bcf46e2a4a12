"""Fuzzed graph files through every CLI command.

Every run must end in exit 0 (result), 1 (input error) or 2 (capability
or deadline), never in 3 (a failed self-check) or an uncaught exception.
Graphs stay at n <= 5 and every run carries --timeout, so no example is
long; the examples are derandomized, so a failure reproduces.
"""

import codecs
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lamanmv import cli

GOOD_LENGTHS = ["1", "2", "3", "5", "7/2", "2.5", "1e-3", "10000"]
BAD_LENGTHS = ["0", "-1", "1/0", "x", "nan", "1e400", "1e-400", "1e9999999"]
LENGTHS = st.sampled_from(GOOD_LENGTHS * 10 + BAD_LENGTHS)
JUNK = st.sampled_from(
    ["", "# comment", "n", "n x", "n 3 4", "n 0", "n -2", "e", "e 1", "e 1 1", "e 1 9",
     "e 0 1", "e 1 2 3 4", "e a b", "q 1 2", "e 1 2 # trailing comment"]
)
COMMANDS = [
    ["check"], ["henneberg"], ["orient"], ["orient", "--base", "1,2"], ["orient", "--base", "9"],
    ["system"], ["system", "--form", "soe"], ["mv"], ["mv", "--form", "soe"], ["certify"],
    ["oracle"], ["oracle", "--form", "soe"], ["embed"], ["embed", "--tight"],
    ["report", "--no-timings"], ["report", "--tight"],
]


@st.composite
def graph_files(draw):
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # Degree-2 steps from a triangle (cut short below n = 3): Laman.
        edges = [(1, 2), (1, 3), (2, 3)][: max(2 * n - 3, 0)]
        for v in range(4, n + 1):
            a, b = draw(st.lists(st.integers(1, v - 1), min_size=2, max_size=2, unique=True))
            edges += [(a, v), (b, v)]
    else:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        edges = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]
    lengths = draw(st.sampled_from(["none", "none", "all", "all", "some"]))
    lines = [f"n {n}"]
    for a, b in edges:
        given_length = lengths == "all" or (lengths == "some" and draw(st.booleans()))
        lines.append(f"e {a} {b} {draw(LENGTHS)}" if given_length else f"e {a} {b}")
    lines += draw(st.sampled_from([[], [], [], [draw(JUNK)], [draw(JUNK), draw(JUNK)]]))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=graph_files(), fmt=st.sampled_from(["json", "text"]))
# Exact lengths that overflow or underflow a float, which the embedding search uses.
@example(text="n 3\ne 1 2 1e400\ne 1 3 1\ne 2 3 1\n", fmt="json")
@example(text="n 3\ne 1 2 1\ne 1 3 1e-400\ne 2 3 1\n", fmt="text")
def test_every_command_ends_in_a_documented_exit_code(tmp_path_factory, text, command, fmt):
    path = tmp_path_factory.getbasetemp() / "fuzz.graph"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = command + ["--format", fmt, "--timeout", "2", str(path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()


# Near the grammar: directives, labels and lengths of every kind, among
# them Unicode digits (which int() reads), too many digits to print
# squared, a vertex count no per-vertex table could hold, and junk.
TOKENS = st.sampled_from(
    ["n", "e", "#", "0", "1", "2", "3", "4", "5", "-1", "7/2", "2.5", "1e-4300", "1e2200",
     "99999999999999999999", "\u0663", "\u00bd", "nan", "inf", "0x10", "1_0", "e1", "n2"]
)
TEXT_LINES = st.one_of(st.text(max_size=12), st.lists(TOKENS, max_size=5).map(" ".join))


@st.composite
def text_files(draw):
    """Any text: arbitrary lines, or a graph file with a few words or lines changed."""
    lines = draw(graph_files()).splitlines() if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            words = lines[at].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(TOKENS)
            lines[at] = " ".join(words)
        else:
            lines[at:at + draw(st.integers(0, 1))] = [draw(TEXT_LINES)]
    return draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])).join(lines)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=text_files())
# Found by this test: a per-vertex table for an unbounded vertex count, and
# a squared length that `system` could not print.
@example(text="n 99999999999999999999\ne 1 2")
@example(text="n 3\ne 1 2 1e-4300\ne 1 3 1\ne 2 3 1")
def test_arbitrary_text_ends_in_a_documented_exit_code(tmp_path_factory, text, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-text.graph"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = command + ["--timeout", "0.5", str(path)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_nan_timeout_is_an_input_error(command):
    # No clock reading is ever past a NaN deadline, so the run would be unbounded.
    k33 = str(Path(__file__).resolve().parent / "golden" / "k33.graph")
    for spelling in ("nan", "NaN", "-nan", "+NAN"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(command + [f"--timeout={spelling}", k33])
        assert (code, out.getvalue()) == (cli.EXIT_INPUT, "")
        assert f"argument --timeout: invalid seconds value: '{spelling}'" in err.getvalue()


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize(
    "data",
    [b"n 3\ne 1 2\xff\ne 1 3\ne 2 3\n", codecs.BOM_UTF16_LE + "n 2\ne 1 2\n".encode("utf-16-le")],
    ids=["invalid-utf-8", "utf-16-bom"],
)
def test_undecodable_file_is_an_input_error(tmp_path, command, data):
    path = tmp_path / "raw.graph"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(command + ["--timeout", "2", str(path)])
    assert (code, out.getvalue()) == (cli.EXIT_INPUT, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
