import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graev.cli
import graev.tower
from graev.cli import build_parser, main, parse_corpus
from graev.freegroup import Letter, Word, format_word, is_reduced, parse_word, reduce_word
from graev.sampling import sample_corpus
from graev.scales import insertion_alphabet

from conftest import ALPHA3, DEEP_POINTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- computational fixtures ----------------------------------------------------


def test_dist_fixture(capsys):
    code, out, _ = run(capsys, "dist", "[1,2]", "[1,3]")
    assert (code, out) == (0, "1/1\n")


def test_dist_json(capsys):
    code, out, _ = run(capsys, "dist", "--json", "[1,2]", "[1,3]")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/1"
    assert payload["reduced_input"] == ["[1,2]", "[1,3]"]
    assert set(payload["witness"]) == {"delta", "delta_inverse"}


def test_norm_fixture(capsys):
    code, out, _ = run(capsys, "norm", "[1] [2]")
    assert (code, out) == (0, "1/1\n")


def test_norm_reduces_input(capsys):
    code, out, _ = run(capsys, "norm", "[1] [1]^-1")
    assert (code, out) == (0, "0/1\n")


def test_norm_json(capsys):
    code, out, _ = run(capsys, "norm", "--json", "[1,2]^-1 [1,3]")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "value": "1/2",
        "witness": "1 0",
        "reduced_input": "[1,2]^-1 [1,3]",
    }


def test_norm_scale_bounds_fixture(capsys):
    code, out, _ = run(
        capsys, "norm", "--scale", "weighted", "--budget", "0", "[1,2]^-1 [1,3]"
    )
    assert (code, out) == (0, "lower 1/2 upper 1/2\n")


def test_norm_scale_witness(capsys):
    code, out, _ = run(
        capsys, "norm", "--scale", "trivial", "--budget", "1", "--witness", "[1] [2]"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lower 1/1 upper 1/1"
    assert lines[1].startswith("witness-word ")
    assert lines[2].startswith("witness-match ")


def test_matches_count_fixture(capsys):
    code, out, _ = run(capsys, "matches", "--len", "4", "--count-only")
    assert (code, out) == (0, "9\n")


def test_matches_listing_fixture(capsys):
    code, out, _ = run(capsys, "matches", "--len", "3")
    assert code == 0
    assert out == "0 1 2\n0 2 1\n1 0 2\n2 1 0\n"


def test_project_fixture(capsys):
    code, out, _ = run(capsys, "project", "-n", "2", "[1,2,3]")
    assert (code, out) == (0, "[1,2]\n")


def test_seplevel_fixtures(capsys):
    code, out, _ = run(capsys, "seplevel", "[1,2,3]", "[1,2,4]")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "seplevel", "e", "e")
    assert (code, out) == (0, "equal\n")


def test_readme_cli_block_values(capsys):
    # each line of README's CLI block whose comment, or comment-only
    # continuation line, gives a value prints that value as its first line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    value = re.compile(r"lower \S+ upper \S+|\d+(/\d+)?|\[[\d,]*\]")
    checked, argv = [], None
    for line in block.splitlines():
        command, _, comment = line.partition(" # ")
        if command.strip():
            argv = shlex.split(command)[1:]  # drop "graev"
        expected = re.sub(r"\s*\(.*\)$", "", comment.strip())
        if value.fullmatch(expected):
            code, out, _ = run(capsys, *argv)
            assert (code, out.splitlines()[0]) == (0, expected), argv
            checked.append(expected)
    assert checked == ["1/1", "lower 1/1 upper 5/4", "1/1", "9", "[1,2]", "3"]


def test_seplevel_deep_points_bisect(capsys, monkeypatch):
    # two depth-8000 points: projecting at every level is quadratic in the depth,
    # bisection projects at about 14 levels
    project, levels = graev.tower.project_word, []
    monkeypatch.setattr(
        graev.tower, "project_word", lambda w, n: levels.append(n) or project(w, n)
    )
    depth = 8000
    left, right = (f"[{'0,' * (depth - 1)}{k}]" for k in (1, 2))
    start = time.perf_counter()
    assert run(capsys, "seplevel", left, right) == (0, f"{depth}\n", "")
    assert time.perf_counter() - start < 1
    # two projections per bisection step, plus the final check
    assert len(levels) <= 2 * (math.ceil(math.log2(depth + 1)) + 1)


def test_weighted_norm_of_deep_points_is_fast(capsys):
    # the insertion alphabet truncates only the word's own letters, once per
    # nonzero coordinate: re-truncating the whole alphabet at every level took
    # seconds at these depths
    for budget, point, letters in (
        ("1", f"[{'0,' * 7999}2]", 5),  # depth 8000: x, x^-1, e and the zero point's two
        ("0", f"[{','.join(['1'] * 500)}]", 2 * 500 + 3),  # a truncation per coordinate
    ):
        start = time.perf_counter()
        argv = ("norm", "--scale", "weighted", "--budget", budget, point)
        assert run(capsys, *argv) == (0, "lower 1/1 upper 1/1\n", "")
        assert time.perf_counter() - start < 1
        assert len(insertion_alphabet(reduce_word(parse_word(point)))) == letters


# --- exit codes ------------------------------------------------------------------


def test_malformed_word_names_token_and_position(capsys):
    code, _, err = run(capsys, "dist", "bogus", "[1]")
    assert code == 2
    assert "'b'" in err and "column 1" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_usage_error_exits_2(capsys):
    assert main(["matches"]) == 2  # --len is required
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_enumeration_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("GRAEV_MATCH_CAP", "6")
    assert run(capsys, "matches", "--len", "7") == (
        3,
        "",
        "error: listing matches of length 7 is above the match enumeration cap 6; "
        "set GRAEV_MATCH_CAP to raise it, or use --count-only\n",
    )
    long_word = " ".join(f"[{k}]" for k in range(1, 8))
    assert run(capsys, "norm", "--bruteforce", long_word) == (
        3,
        "",
        "error: brute-forcing a reduced word of length 7 is above the match enumeration "
        "cap 6; set GRAEV_MATCH_CAP to raise it, or use the dynamic program\n",
    )
    # DP path stays available; three unit-cost arcs plus one fixed point
    code, out, _ = run(capsys, "norm", long_word)
    assert (code, out) == (0, "4/1\n")


def test_over_cap_insertion_budgets_exit_3_at_once():
    # each budget level adds a longer spelling, so a budget of 20,000 or more
    # passes the cap; building e's spellings first took time cubic in the budget.
    # The last word closes at budget 0 (lower 2/1 upper 2/1), but its budget-3
    # spellings may pass the cap, so they are built, and refused, before any is
    # evaluated
    src = Path(graev.cli.__file__).resolve().parents[1]
    norm = [sys.executable, "-m", "graev.cli", "norm", "--scale", "weighted", "--budget"]
    for budget, w in (("20000", "e"), ("1000000000", "[1] [1]^-1"), ("3", "[1,2] [3]^-1 [0,0,4]")):
        start = time.perf_counter()
        done = subprocess.run(
            [*norm, budget, w],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            3,
            "",
            "error: insertion search exceeded the candidate cap 20000; lower the budget\n",
        )
        assert time.perf_counter() - start < 1


def test_norm_refuses_flags_it_would_ignore(capsys):
    code, out, err = run(capsys, "norm", "--bruteforce", "--scale", "weighted", "[1] [2]")
    assert (code, out) == (2, "")
    assert "argument --scale: not allowed with argument --bruteforce" in err
    assert run(capsys, "norm", "--budget", "2", "[1]") == (2, "", "error: --budget needs --scale\n")


@pytest.mark.parametrize(
    "value, shown",
    [
        ("0", "GRAEV_MATCH_CAP must be >= 1, got 0"),
        ("x", "GRAEV_MATCH_CAP must be an integer, got 'x'"),
    ],
)
def test_unparsable_enumeration_cap_exits_2(capsys, monkeypatch, value, shown):
    monkeypatch.setenv("GRAEV_MATCH_CAP", value)
    for argv in (("matches", "--len", "3"), ("norm", "--bruteforce", "[1]")):
        assert run(capsys, *argv) == (2, "", f"error: {shown}\n"), argv


@pytest.mark.parametrize(
    "exc, shown",
    [
        (AssertionError("words did not separate"), "words did not separate"),
        (AssertionError(), "AssertionError"),
        (RuntimeError("internal invariant violation: lifted map"), "lifted map"),
    ],
)
def test_invariant_violation_exits_4(capsys, monkeypatch, exc, shown):
    def broken(u, v):
        raise exc

    monkeypatch.setattr("graev.cli.separating_level", broken)
    code, out, err = run(capsys, "seplevel", "[1]", "[2]")
    assert (code, out) == (4, "")
    assert err == f"error: internal invariant violation: {shown}\n"


def test_count_only_above_the_digit_limit_exits_3(capsys, default_digit_limit):
    start = time.perf_counter()
    code, out, err = run(capsys, "matches", "--len", "20000", "--count-only")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert f"{sys.get_int_max_str_digits()} digits" in err


def test_numbers_too_long_to_print_exit_3(capsys, default_digit_limit):
    limit = f"{sys.get_int_max_str_digits()} digits"
    code, out, err = run(capsys, "verify", "--suite", "discreteness", "--level", "14300")
    assert (code, out) == (3, "")
    assert limit in err
    deep = ",".join(["0"] * 14300)
    code, out, err = run(capsys, "dist", f"[{deep},1]", f"[{deep},2]")
    assert (code, out) == (3, "")
    assert limit in err


def test_over_long_coordinates_exit_3_naming_the_column(capsys, tmp_path, default_digit_limit):
    digits = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "norm", f"[{'1' * digits}]")
    assert (code, out) == (0, "1/1\n")
    text = f"[2] [0,{'1' * (digits + 1)}]"
    code, out, err = run(capsys, "norm", text)
    assert (code, out) == (3, "")
    assert err == (
        f"error: the natural number at column 8 has more than {digits} digits, "
        "the interpreter's int-to-str limit; raise PYTHONINTMAXSTRDIGITS\n"
    )
    path = tmp_path / "corpus.txt"
    path.write_text(f"[1]\n{text}\n")
    code, out, err = run(
        capsys, "verify", "--suite", "discreteness", "--level", "1", "--corpus", str(path)
    )
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}:2: the natural number at column 8 has more than")


def test_over_long_scale_file_entries_exit_3_naming_the_line(
    capsys, tmp_path, default_digit_limit
):
    digits = sys.get_int_max_str_digits()
    at_limit = tmp_path / "at-limit.scale"
    at_limit.write_text(f"{'1' * digits} = 1/{'1' * digits}\n")
    code, out, _ = run(capsys, "norm", "--scale", f"file:{at_limit}", "--budget", "0", "[1]")
    assert (code, out) == (0, "lower 1/1 upper 1/1\n")
    long = "1" * (digits + 1)
    limit = (
        f"has more than {digits} digits, the interpreter's int-to-str limit; "
        "raise PYTHONINTMAXSTRDIGITS\n"
    )
    for what, text in (
        ("coordinate index", f"0 = 1/2\n{long} = 1/2\n"),
        ("coefficient", f"0 = 1/2\n# a comment\n1 = 1/{long}\n"),
        ("coefficient", f"1 = {long}.5\n"),
    ):
        path = tmp_path / "long.scale"
        path.write_text(text)
        line = text.count("\n")
        for argv in (
            ("norm", "--scale", f"file:{path}", "--budget", "0", "[1]"),
            ("verify", "--suite", "scale-axioms", "--scale", f"file:{path}"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == f"error: {path}:{line}: the {what} {limit}"
    path.write_text(f"x{'1' * digits} = 1/2\n")  # malformed, not over-long: still exit 2
    code, _, err = run(capsys, "norm", "--scale", f"file:{path}", "--budget", "0", "[1]")
    assert code == 2 and err.startswith(f"error: {path}:1: invalid literal for int()")


def test_scale_file_exponents_above_the_digit_limit_exit_3(capsys, tmp_path, default_digit_limit):
    digits = sys.get_int_max_str_digits()
    path = tmp_path / "exponent.scale"
    norm = ("norm", "--scale", f"file:{path}", "[1]")
    axioms = ("verify", "--suite", "scale-axioms", "--scale", f"file:{path}")
    # at the limit the coefficient converts; only 1e<limit> then prints a
    # rational too long for the axiom report
    for head, axioms_code in (("1e", 3), ("1.5e-", 0), ("0e", 0)):
        path.write_text(f"0 = {head}{digits}\n")
        assert run(capsys, *norm) == (0, "lower 1/1 upper 1/1\n", "")
        assert run(capsys, *axioms)[0] == axioms_code
    too_long = (
        f"error: {path}:2: the coefficient's power of ten has more than {digits} digits, "
        "the interpreter's int-to-str limit; raise PYTHONINTMAXSTRDIGITS\n"
    )
    for exponent in (f"1e{digits + 1}", f"1.5e-{digits + 1}", f"0e{digits + 1}", "1e100000000"):
        path.write_text(f"1 = 1/2\n0 = {exponent}\n")
        for argv in (norm, axioms):
            start = time.perf_counter()
            assert run(capsys, *argv) == (3, "", too_long)
            assert time.perf_counter() - start < 1
    path.write_text("1e100000000 = 1/2\n")  # an index is an int, which takes no exponent
    code, _, err = run(capsys, *norm)
    assert code == 2 and err.startswith(f"error: {path}:1: invalid literal for int()")


# sha256 of `verify --suite discreteness --level 14284` stdout, plain and --json,
# recorded before the bound's digit check: under the default limit of 4,300
# digits, 2^14284 is the last power of two that prints.
_LEVEL_14284_DIGESTS = {
    (): "b3e59d119306ec2df52008860d34d594f0d4f12e2bd9ded0a8c06adecb1cbf16",
    ("--json",): "c80e47c83c741dfac59a4c946533a83d253762fd0e556bd6b4c4f4e69d374ec6",
}
_RATIONAL_TOO_LONG = (
    "error: a rational has more than 4300 digits, the interpreter's int-to-str limit; "
    "raise PYTHONINTMAXSTRDIGITS\n"
)


def test_discreteness_bound_at_the_digit_limit(capsys, default_digit_limit):
    verify = ("verify", "--suite", "discreteness", "--level")
    for extra, digest in _LEVEL_14284_DIGESTS.items():
        code, out, err = run(capsys, *verify, "14284", *extra)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        for level in ("14285", "20000000", "1000000000000"):
            start = time.perf_counter()
            assert run(capsys, *verify, level, *extra) == (3, "", _RATIONAL_TOO_LONG)
            assert time.perf_counter() - start < 1


def test_huge_levels_keep_corpus_errors_first(capsys, tmp_path, default_digit_limit):
    corpus = tmp_path / "corpus.txt"
    verify = ("verify", "--corpus", str(corpus), "--level")
    start = time.perf_counter()
    corpus.write_text("[1]\n[2]^-1 [0,3]\n")
    assert run(capsys, *verify, "1000000000000", "--suite", "lipschitz") == (
        0,
        "suite: lipschitz\nseed: 0\nlevel: 1000000000000\npairs: 1\n"
        "total: 1  passed: 1  failed: 0\n",
        "",
    )
    for level in ("14285", "1000000000000"):
        assert run(capsys, *verify, level, "--suite", "discreteness") == (
            3,
            "",
            _RATIONAL_TOO_LONG,
        )
    corpus.write_text("[1]\n[2\n")
    for suite in ("discreteness", "lipschitz"):
        assert run(capsys, *verify, "1000000000000", "--suite", suite) == (
            2,
            "",
            f"error: {corpus}:2: expected ',' or ']' at column 3, found 'end of input'\n",
        )
    assert time.perf_counter() - start < 1
    corpus.write_text(f"[1]\n[{'0,' * 14285}1]\n")  # depth 14286
    code, out, err = run(capsys, *verify, "14285", "--suite", "discreteness")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {corpus}:2: corpus word [0,0,") and err.endswith(
        "1] has depth 14286 > level 14285\n"
    )


def test_lipschitz_default_points_past_the_digit_limit_exit_3(capsys, default_digit_limit):
    # the default points are level + 1 deep, so their distances print 2^-level
    verify = ("verify", "--suite", "lipschitz", "--level")
    for level in ("14285", "20000", "1000000000000"):
        for extra in ((), ("--json",), ("--cases", "3")):
            start = time.perf_counter()
            assert run(capsys, *verify, level, *extra) == (3, "", _RATIONAL_TOO_LONG)
            assert time.perf_counter() - start < 1
    code, out, err = run(capsys, *verify, "14284")
    assert (code, err) == (0, "") and "failed: 0" in out


def test_report_digit_limit_exits_name_the_suite_and_case(capsys, tmp_path, default_digit_limit):
    # 1e4300 converts, but a scale value it multiplies has more than 4,300 digits;
    # the text names the first failing case that cannot print, the JSON the first case
    path = tmp_path / "huge.scale"
    path.write_text("0 = 1e4300\n")
    axioms = ("verify", "--suite", "scale-axioms", "--scale", f"file:{path}")
    too_long = _RATIONAL_TOO_LONG.removeprefix("error: ")
    assert run(capsys, *axioms) == (
        3,
        "",
        "error: suite scale-axioms, case axiom=vanishes-near-zero (consistency) r=1/256 x=[1]: "
        + too_long,
    )
    assert run(capsys, *axioms, "--json") == (
        3,
        "",
        f"error: suite scale-axioms, case axiom=dominates-argument r=1/4 x=[1]: {too_long}",
    )


def test_missing_corpus_file_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "discreteness", "--corpus", "/nonexistent/c.txt"
    )
    assert code == 2
    assert "error" in err


def test_verify_refuses_flags_it_would_ignore(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("[1]\n[2]\n")
    for suite in ("discreteness", "lipschitz"):
        for scale in ("trivial", "weighted"):
            argv = ("verify", "--suite", suite, "--level", "1", "--scale", scale)
            assert run(capsys, *argv) == (2, "", f"error: --suite {suite} takes no --scale\n")
        argv = ("verify", "--suite", suite, "--cases", "3", "--corpus", str(corpus))
        assert run(capsys, *argv) == (2, "", "error: --cases cannot be given with --corpus\n")
        argv = ("verify", "--suite", suite, "--cases", "0", "--corpus", str(corpus))
        assert run(capsys, *argv)[0] == 0
    for suite in ("extension", "scale-axioms"):
        for flag, value in (("--corpus", str(corpus)), ("--cases", "3")):
            argv = ("verify", "--suite", suite, "--level", "1", flag, value)
            assert run(capsys, *argv) == (2, "", f"error: --suite {suite} takes no {flag}\n")
        argv = ("verify", "--suite", suite, "--level", "1", "--cases", "0", "--seed", "5")
        assert run(capsys, *argv)[0] == 0


def test_non_utf8_corpus_exits_2_naming_the_line(capsys, tmp_path):
    # the bad byte sits far past the first read buffer, after a valid non-ASCII comment
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes("[1]  # café\n".encode() + b"[2]\n" * 3000 + b"[1] \xff[2]\n[3]\n")
    for suite in ("discreteness", "lipschitz"):
        argv = ("verify", "--suite", suite, "--level", "1", "--corpus", str(corpus))
        assert run(capsys, *argv) == (2, "", f"error: {corpus}:3002: byte 0xff is not UTF-8\n")
    corpus.write_bytes("[1]  # café\n[2]\n".encode())
    argv = ("verify", "--suite", "discreteness", "--level", "2", "--corpus", str(corpus))
    assert run(capsys, *argv)[0] == 0


def test_non_utf8_scale_file_exits_2_naming_the_line(capsys, tmp_path):
    path = tmp_path / "bad.scale"
    path.write_bytes("# coefficients, één per line\n0 = 1/2\n".encode() + b"1 = 1/\xfe3\n")
    for argv in (
        ("norm", "--scale", f"file:{path}", "--budget", "0", "[1]"),
        ("verify", "--suite", "scale-axioms", "--scale", f"file:{path}"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {path}:3: byte 0xfe is not UTF-8\n")


# Each reader's two valid lines and its malformed line, with the message it gives.
_LINE_READERS = {
    "corpus": (
        ("[1]", "[2]^-1", "[1", "expected ',' or ']' at column 3, found 'end of input'"),
        lambda path: ("verify", "--suite", "discreteness", "--level", "2", "--corpus", path),
    ),
    "scale": (
        ("0 = 1/2", "2 = 3/8", "1 = 1/", "Invalid literal for Fraction: '1/'"),
        lambda path: ("norm", "--scale", f"file:{path}", "--budget", "1", "[0,0,1] [1]"),
    ),
}


@pytest.mark.parametrize("kind", sorted(_LINE_READERS))
def test_corpus_and_scale_files_share_one_line_format(capsys, tmp_path, kind):
    # CRLF ends, a comment-only line, a line of spaces and a tab and a trailing
    # comment read the same in both kinds; errors name "<path>:<line>:"
    (first, second, bad, message), argv = _LINE_READERS[kind]
    path = tmp_path / f"{kind}.txt"
    layout = f"# head\r\n{first}\r\n  \t \r\n{second}  # trailing\r\n".encode()
    path.write_bytes(layout)
    assert run(capsys, *argv(str(path)))[0] == 0
    path.write_bytes(layout + f"{bad}\r\n".encode())
    assert run(capsys, *argv(str(path))) == (2, "", f"error: {path}:5: {message}\n")
    path.write_bytes(layout + b"# a comment \xff is still read\r\n")
    assert run(capsys, *argv(str(path))) == (2, "", f"error: {path}:5: byte 0xff is not UTF-8\n")


# --- corpus parsing ------------------------------------------------------------------


def test_parse_corpus_reduces_each_line(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# corpus\n[1] [2]^-1\ne\n\n[1] [1]^-1  # cancels\n")
    words = parse_corpus(str(path))
    assert [format_word(w) for w in words] == ["[1] [2]^-1", "e", "e"]


def test_parse_corpus_empty_is_valid(tmp_path):
    path = tmp_path / "c.txt"
    for text in ("", "# only a comment\n"):
        path.write_text(text)
        assert parse_corpus(str(path)) == []


def test_parse_corpus_error_names_line_and_column(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("[1]\n[2] oops\n")
    with pytest.raises(ValueError) as exc:
        parse_corpus(str(path))
    assert str(exc.value).startswith(f"{path}:2: ")
    assert "column 5" in str(exc.value)


def test_corpus_errors_name_the_file_and_line(capsys, tmp_path):
    # syntax and depth errors start "<path>:<line>:" like the scale-file ones;
    # only the discreteness suite bounds the depth, and the first bad line wins
    path = tmp_path / "c.txt"
    verify = ("verify", "--level", "1", "--corpus", str(path), "--suite")
    path.write_text("[1]\n# comment\n\n[1] [2 ]\n")
    for suite in ("discreteness", "lipschitz"):
        assert run(capsys, *verify, suite) == (
            2,
            "",
            f"error: {path}:4: expected ',' or ']' at column 7, found ' '\n",
        )
    path.write_text("[1]\n[1,2,3,4] [1,2,3,4]^-1\n[2]\n[1,2,3,4]\n[2\n")
    assert run(capsys, *verify, "discreteness") == (
        2,
        "",
        f"error: {path}:4: corpus word [1,2,3,4] has depth 4 > level 1\n",
    )
    path.write_text("[1]\n[1,2,3,4]\n")
    code, out, err = run(capsys, *verify, "lipschitz")
    assert (code, err) == (0, "") and "failed: 0" in out
    path.write_text("[1]\n[1,2]\n")
    message = rf"^{re.escape(str(path))}:2: corpus word \[1,2\] has depth 2 > level 1$"
    with pytest.raises(ValueError, match=message):
        parse_corpus(str(path), max_depth=1)


def test_parse_corpus_rejects_non_decimal_digits(tmp_path):
    # '²' is a digit to str.isdigit but not to int()
    path = tmp_path / "c.txt"
    path.write_text("[1]\n[²]\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        parse_corpus(str(path))
    assert str(exc.value).startswith(f"{path}:2: ")
    assert "column 2" in str(exc.value)


def test_verify_with_corpus_file(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("[1]\n[2]\n[1] [2]\ne\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "discreteness", "--level", "1", "--corpus", str(path)
    )
    assert code == 0
    assert "failed: 0" in out


def test_verify_corpus_too_deep_exits_2(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("[1,2]\n")
    code, _, err = run(
        capsys, "verify", "--suite", "discreteness", "--level", "1", "--corpus", str(path)
    )
    assert code == 2
    assert "depth" in err


def test_verify_negative_level_exits_2_without_pairs(capsys, tmp_path):
    # the level is refused before any corpus line is read or word drawn, so a
    # valid word at depth 0 or a later bad line is never blamed
    refused = (2, "", "error: truncation level must be >= 0, got -1\n")
    sources = [["--cases", "3"], []]
    for k, text in enumerate(("[1]\n", "e\n", "e\n[1\n")):
        path = tmp_path / f"corpus{k}.txt"
        path.write_text(text)
        sources.append(["--corpus", str(path)])
    for suite in ("discreteness", "lipschitz"):
        for source in sources:
            assert run(capsys, "verify", "--suite", suite, "--level", "-1", *source) == refused
    code, out, _ = run(capsys, "verify", "--suite", "scale-axioms", "--level", "-1")
    assert code == 0 and "failed: 0" in out


def test_verify_negative_cases_exits_2(capsys, tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("[1]\n")
    for suite in ("discreteness", "lipschitz"):
        for corpus in ([], ["--corpus", str(path)]):
            argv = ["verify", "--suite", suite, "--level", "1", "--cases", "-3", *corpus]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "--cases" in err


def test_verify_max_len_below_one_names_the_flag(capsys):
    # with --cases, a --max-len below 1 is refused by its flag name after the
    # level check and before any draw; without --cases it is never read
    level_refused = (2, "", "error: truncation level must be >= 0, got -1\n")
    for suite in ("discreteness", "lipschitz"):
        for max_len in ("0", "-2"):
            refused = (2, "", f"error: --max-len must be >= 1, got {max_len}\n")
            argv = ("verify", "--suite", suite, "--max-len", max_len)
            assert run(capsys, *argv, "--level", "1", "--cases", "3") == refused
            assert run(capsys, *argv, "--level", "-1", "--cases", "3") == level_refused
            code, out, _ = run(capsys, *argv, "--level", "1")
            assert code == 0 and "failed: 0" in out


def test_verify_more_cases_than_words_exits_2_at_once(capsys):
    # level 1: 3 points, 6 + 30 + 150 + 750 = 936 reduced words of length <= 4;
    # level 0: 1 point, 2 per length, 8 words
    for level, points, words in (("1", 3, 936), ("0", 1, 8)):
        for cases in (20000, words + 1):
            argv = ("verify", "--suite", "discreteness", "--level", level, "--cases", str(cases))
            start = time.perf_counter()
            assert run(capsys, *argv) == (
                2,
                "",
                f"error: could not draw {cases} distinct words of length <= 4 "
                f"over {points} points\n",
            )
            assert time.perf_counter() - start < 1
        corpus = sample_corpus(random.Random(0), graev.cli._default_points(int(level)), words, 4)
        assert len(set(corpus)) == words


def test_verify_gives_up_drawing_after_the_attempt_bound(capsys):
    # level 0: 2 reduced words of each length, so exactly 32 of length <= 16;
    # 32 passes the count and the draw stops after 200 * 32 + 1000 attempts
    for cases in ("32", "33"):
        argv = ("verify", "--suite", "discreteness", "--level", "0", "--max-len", "16")
        start = time.perf_counter()
        assert run(capsys, *argv, "--cases", cases) == (
            2,
            "",
            f"error: could not draw {cases} distinct words of length <= 16 over 1 points\n",
        )
        assert time.perf_counter() - start < 1


# --- verification suites ----------------------------------------------------------------


def test_verify_discreteness_default(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "discreteness", "--level", "1")
    assert code == 0
    assert "bound: 1/2" in out
    assert "failed: 0" in out


def test_verify_discreteness_random_seeded_byte_identical(capsys):
    args = [
        "verify", "--suite", "discreteness", "--level", "2",
        "--cases", "25", "--seed", "9", "--json",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {"suite", "parameters", "cases", "summary", "seed"}
    assert payload["seed"] == 9
    assert payload["summary"]["failed"] == 0
    assert payload["summary"]["total"] == len(payload["cases"])
    case = payload["cases"][0]
    assert set(case) == {"inputs", "relation", "lhs", "rhs", "pass"}


def test_verify_lipschitz(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lipschitz", "--level", "1")
    assert code == 0
    assert "failed: 0" in out


def test_verify_lipschitz_seeded(capsys):
    args = [
        "verify", "--suite", "lipschitz", "--level", "1",
        "--cases", "20", "--seed", "4",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_extension(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "extension", "--level", "2")
    assert code == 0
    assert "failed: 0" in out


def test_verify_scale_axioms_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--suite", "scale-axioms")
    assert code == 0
    assert "failed: 0" in out

    bad = tmp_path / "bad.scale"
    bad.write_text("0 = -2\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "scale-axioms", "--scale", f"file:{bad}"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_scale_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "extension", "--scale", "mystery")
    assert code == 2
    assert "mystery" in err


# --- byte-identity of the tower suites ----------------------------------------------

# sha256 of stdout, recorded before the suites shared per-call norm memos;
# any change in a computed value, case order or rendering changes a digest.
_SUITE_CORPUS = (
    "# the identity, unreduced lines and duplicates after reduction\n"
    "e\n[1] [1]^-1\n[1] [2]\ne [1]\n[1,2]^-1 [0,1] e\n"
    "[2] [2]^-1 [1,1]\n[1] [2] [2]^-1  # reduces to [1]\n[0,2]\n[1,1]^-1 [2]^-1\n"
)
_SUITE_DIGESTS = {
    "discreteness --level 0": "c69c665e07d7ad60c3d54f837e6ee047e3597d6fbc3f015fe4b8117a19336f21",
    "discreteness --level 0 --json": "b6bf10eba999e7ac75dc2eb95346e33a40c1e1fd261134f023eaf363cf7ac518",
    "discreteness --level 1": "90f07daeb60f154cadc12189b8559f5b89dcb897800621727894bd8e88f15898",
    "discreteness --level 1 --json": "ddf8b33f83e98a3927ed7766035569fb7dbd934262951bb1db6ceb3cfd142a64",
    "discreteness --level 2": "2f69163d882c43615e3aa07758fe09b380ba46508d8078fe70d7a17d6cbd94f7",
    "discreteness --level 2 --json": "850e3a15841a9302b15b3f4676a78ab844e4d8ee195d44dfe57b0a0dbf63778e",
    "discreteness --level 3": "401111e7b056fb368e94bd49c0678b7bbe1e7db023c0a5e8615da1d44de44d98",
    "discreteness --level 3 --json": "1a8b0d1541d4efae63b5721be083fa28e996380a9bd3f2662e620f8aa69faa16",
    "lipschitz --level 0": "667b217e38a8ba10c711b32ab6dea7b4f67e145e10ad697e76013437f85453f8",
    "lipschitz --level 0 --json": "410d405d7760b2b904224bc0aafa83f7ed811a24dda2af64f1846d8620788a6e",
    "lipschitz --level 1": "faee5512cdc4488c0b78bf40f1ca7f4865fae9f19cb77781f5fd060ae97d63f1",
    "lipschitz --level 1 --json": "5fb334ef60ac4df693abde29408aa19a59a04312b201ab3567c546a0d8bea0a1",
    "lipschitz --level 2": "c711d74ad1d92e796e4827a4b98910db1e98379dd3bce08f45e8befca24924cb",
    "lipschitz --level 2 --json": "90440689a64ebd591f2a005eb3284bec4a06cc9f3a95801663b198de4fc344b3",
    "lipschitz --level 3": "a43dd764a08aef8a27b4a48c8cee48216ea543c8b9e30ed7e9e858b34e97f05e",
    "lipschitz --level 3 --json": "e4815a282326e13a49b1f33976b50d6ace518534c0576bcd1fad119b877d648e",
    "discreteness --level 2 --cases 25 --seed 9": "c8d2cf2c9da313b44272d94e98467a30ae416d7a149acf0735646e0058afb55c",
    "discreteness --level 2 --cases 25 --seed 9 --json": "a2584e3a773826f5d9417e396a90ada07febd01d0f4ac5380f1c885cc7ab03ce",
    "lipschitz --level 1 --cases 20 --seed 4": "1036454b40be355a20082d6662c18889bd94687656aff5413b10f4159962ede4",
    "lipschitz --level 1 --cases 20 --seed 4 --json": "3d822d450a3bed650fe6445d18d583ea466e057b0fe9d9f1d73ecbb3c609da64",
    "discreteness --level 2 --corpus corpus.txt": "7e25a808a2529f4c886c14e4d95d4f8b9a2d0a9ef23561f088221cd3715d4acb",
    "discreteness --level 2 --corpus corpus.txt --json": "f6b10a0271a5ecfa84a71b92559d2653d4aec70d5fbb6ce8c6c8e5c717b0affc",
    "lipschitz --level 1 --corpus corpus.txt": "4824ffc29f3097365c32513212d0ce31b6794190de7bba0be81f6eaeae6c7670",
    "lipschitz --level 1 --corpus corpus.txt --json": "58abc561e0602fb1ed6a0ec4179385a0fd81a913b023a2f9919b373ff67c9b88",
}


def test_verify_suites_byte_identical_digests(capsys, tmp_path, monkeypatch):
    # the discreteness report prints the corpus path, so it is given relative
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text(_SUITE_CORPUS)
    for shown, digest in _SUITE_DIGESTS.items():
        suite, *rest = shown.split()
        code, out, _ = run(capsys, "verify", "--suite", suite, *rest)
        assert code == 0, shown
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shown


# sha256 of `dist` stdout, plain and --json, recorded while `multiply` still
# cancelled only at the seam of its reduced inputs: the identity, unreduced
# input, words that cancel completely and points of depth >= 3.
_DIST_DIGESTS = {
    ("e", "e"): (
        "d61e82b5761ad27edd18ae5d67d671c6c8a4139b2c0f9f2606503976dad442d9",
        "ade59f039a22b887e735e6452ea5d6d9c8dded6beae4198c6ca45caf48623aa3",
    ),
    ("e", "[1,2,3]"): (
        "ed4ea85aeb9badc7d78cf58c5d2aa6d3be45e4371821c1be46132bced0c315f3",
        "3eeeb6c63857bd97f1a7864b6bfea2faabcba300c49341c0ac5b8454ac02a45c",
    ),
    ("[1] [1]^-1", "e"): (
        "d61e82b5761ad27edd18ae5d67d671c6c8a4139b2c0f9f2606503976dad442d9",
        "ade59f039a22b887e735e6452ea5d6d9c8dded6beae4198c6ca45caf48623aa3",
    ),
    ("[1] [2] [2]^-1 [1]^-1", "[0,0,1]"): (
        "ed4ea85aeb9badc7d78cf58c5d2aa6d3be45e4371821c1be46132bced0c315f3",
        "53f3012eb09dfbbd9500b15003ce152eda4849f3b3f2d08fbefb472435180646",
    ),
    ("[1,2,3] [4,5,6]^-1", "[1,2,3] [4,5,7]^-1"): (
        "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
        "9d9fa05b41949407c38461c6028de31923fb9d2aa2ad1d6cec11c0b98a36e7c6",
    ),
    ("[1,2,3,4] [0,0,1]", "[0,0,1]^-1 [1,2,3,4]^-1"): (
        "5c19babf1d6ceac9bd0556e76613d48b89f454b6822f7db4dc0fe2e1cb632d1c",
        "25d232a84133a2fb6ce9d2124a0c3aaef6b25582b324f9d6c4d4d2e70cf48341",
    ),
    ("e [1] e [2]^-1", "[2] [1]^-1"): (
        "5c19babf1d6ceac9bd0556e76613d48b89f454b6822f7db4dc0fe2e1cb632d1c",
        "d5cb0668e73c94b830089c8757f05ef0712f7fe4ea318ba508be76f5284260a5",
    ),
    ("[1,1,1] [2,2,2] [1,1,1]^-1", "[1,1,1] [2,2,3] [1,1,1]^-1"): (
        "de7e55cd172f2065828bdd6c2015c5e92fdd6271ab1bd0f30a5e15104e64678d",
        "7060245a65221dd6a8de2c1768822823a9a6ccbb928de403fc5aa2dc5d350e6e",
    ),
    ("[3]^-1 [3] [0,1,2]", "[0,1,2] [5]"): (
        "ed4ea85aeb9badc7d78cf58c5d2aa6d3be45e4371821c1be46132bced0c315f3",
        "fe195af4055fede72b902e888176d2120c4134f52a89ce11cd06b02c2a6064bd",
    ),
    ("[1,2] [1,3]^-1 [1,2]^-1", "[1,2] [1,3] [1,2]^-1 [1,2] [1,3]^-1"): (
        "ed4ea85aeb9badc7d78cf58c5d2aa6d3be45e4371821c1be46132bced0c315f3",
        "a2ba207f7091dbc4375bd4679de5d96b61c3350e657b2c440288660af83b022e",
    ),
    ("[1] [2] [3]", "[1] [2] [3]"): (
        "d61e82b5761ad27edd18ae5d67d671c6c8a4139b2c0f9f2606503976dad442d9",
        "f014e794a98d38f48ddcc7e4b8b5b66f4dc7305432d67747d0ffeaf11bb3fb22",
    ),
    ("[0,0,1] [0,0,2]^-1 [0,0,3]", "[0,0,3] [0,0,2]^-1 [0,0,1]"): (
        "3117b181de4d46b7ff8adb4c78adec272c019160d4adf27a901e90ec114e1845",
        "8815a7d552281fbad22ca1e4e77ee96c8032e9068869927ab6a10584784c2e7c",
    ),
}


def test_dist_byte_identical_digests(capsys):
    for (u, v), digests in _DIST_DIGESTS.items():
        for extra, digest in zip(([], ["--json"]), digests):
            code, out, _ = run(capsys, "dist", *extra, u, v)
            assert code == 0, (u, v, extra)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (u, v, extra)


# sha256 of the concatenated stdout of `norm --scale` over _SCALE_WORDS, and of
# the scale suites, recorded before the scale and search bookkeeping was
# simplified: the identity, unreduced input, depth >= 3, uppers that improve
# at budget 1, a search that never closes, and a negative file coefficient
# (no early exit).
_SCALE_FILES = {
    "plus.scale": "# sparse, with a gap\n1 = 1/3\n3 = 2/5\n",
    "minus.scale": "0 = -1/8\n2 = 1/2\n",
}
_SCALE_WORDS = (
    "e",
    "[1] [1]^-1 [2]",
    "e [1,2] e",
    "[2]^-1 [0,1]",
    "[1,2,3] [1,2,4]^-1",
    "[0,0,1]^-1 [1] [0]",
    "[0,3] [2]^-1 [0]^-1",
    "[1]^-1 [2] [1,2]",
)
_SCALE_NORM_DIGESTS = {
    "--scale weighted --budget 0": "db5a8aa836794bdedeb739d984ba9aa338021d9d332ffeb33d8b2505e5dbf8d3",
    "--scale weighted --budget 0 --witness": "c17e74c0f1e0876e45fd0aa2a6a2d0618480c87417e6da122e6d46023605dc2d",
    "--scale weighted --budget 0 --json": "0277439a6805358dcfb5879f08c975c9bd01b958ca3a29422f6edd1e54dad4b6",
    "--scale weighted --budget 1": "41c349466ea4ebd24dc39c83ced741e6fd7a40a41a6652b69779dc6d2d24c517",
    "--scale weighted --budget 1 --witness": "36c5b53f049cb0951f9f0ac9008e534f919736d2ac31822eb98ccd366b848a17",
    "--scale weighted --budget 1 --json": "72dd013f363d9f0f079dfc3573c68478a257d988631320144e21ded7a5dd479b",
    "--scale weighted --budget 2": "41c349466ea4ebd24dc39c83ced741e6fd7a40a41a6652b69779dc6d2d24c517",
    "--scale weighted --budget 2 --witness": "36c5b53f049cb0951f9f0ac9008e534f919736d2ac31822eb98ccd366b848a17",
    "--scale weighted --budget 2 --json": "72dd013f363d9f0f079dfc3573c68478a257d988631320144e21ded7a5dd479b",
    "--scale file:plus.scale --budget 0": "ec881902a25cdf505a48e9975958ab86ff0bce3ec9179c791159cb5d94dfdb37",
    "--scale file:plus.scale --budget 0 --witness": "2d2c7ad2dbe8212a03c9155ff0b4508a0cb38a1a6df55848858b761199a4a522",
    "--scale file:plus.scale --budget 0 --json": "3f4f3299d0a9253c57746b54d10ce5814e1862f0dfe74a7fa7fc5af08726dadb",
    "--scale file:plus.scale --budget 1": "a03c54ffab14225bd2cd7b5af62fa16f2c274596bdbc1ea55807445e7069269d",
    "--scale file:plus.scale --budget 1 --witness": "0362cba7f1fe096898e35793d6d733dc05ba63ab9f51d6f233dfa4dadb9c5a8e",
    "--scale file:plus.scale --budget 1 --json": "e67dae55036db811323ff902687f407adafb5b21db119015f7cd5e025654bea0",
    "--scale file:plus.scale --budget 2": "a03c54ffab14225bd2cd7b5af62fa16f2c274596bdbc1ea55807445e7069269d",
    "--scale file:plus.scale --budget 2 --witness": "0362cba7f1fe096898e35793d6d733dc05ba63ab9f51d6f233dfa4dadb9c5a8e",
    "--scale file:plus.scale --budget 2 --json": "e67dae55036db811323ff902687f407adafb5b21db119015f7cd5e025654bea0",
    "--scale file:minus.scale --budget 0": "bd84c6d7932773ad68cafcc3eccab90cd87f7a285fd506be03642d1a63755db1",
    "--scale file:minus.scale --budget 0 --witness": "65e6352503a58771505e20e992affce0fba3f4b5b0ba2f0091c4f030921a3d8c",
    "--scale file:minus.scale --budget 0 --json": "ad34b254e21f8856d1bc68481cd18f6e1d6a1515ebae5bd82740aebc8508c2ee",
    "--scale file:minus.scale --budget 1": "582adef15ef8a3e741fa469ce9fe63cbc863acd573311e25f3e85f59fd5bfb33",
    "--scale file:minus.scale --budget 1 --witness": "6a0ca422bf601a0de03b4e8e59a70c533777a072d0625a382b109eba401b289a",
    "--scale file:minus.scale --budget 1 --json": "7edf644ec81cab8ce8c8e16b228cdb01e34c0b135e4e380cbdfc8c91e6dee759",
    "--scale file:minus.scale --budget 2": "415c2bd255d82bc98de667931b0f1aff0f7f119684933b35ce9a65073a40f36b",
    "--scale file:minus.scale --budget 2 --witness": "749294badcc12ba08466606a5fd031719fbb1ee3fbf0364eebe8a556c303f56b",
    "--scale file:minus.scale --budget 2 --json": "4c26866c5bc6a5472082055f0d03237e02ffb191b052995ec8d472bb9a7e6ca6",
}
_SCALE_SUITE_DIGESTS = {
    "scale-axioms --scale weighted": "921ccaddd6ea31c33cca964329bd0530352ff0574c82493b65a3ae8bb61db403",
    "scale-axioms --scale weighted --json": "8c028bfba1d1cb14c0139f10bd97cd48211e76cdabe70d915a1b515aa17f8268",
    "scale-axioms --scale file:plus.scale": "735af4839a40249c49cb9cbd968ae8839abdd6210c211e3f300e6641f5f02f68",
    "scale-axioms --scale file:plus.scale --json": "bb0275c06065c49fcb3d1c00f2001cc12b37da9f0191bae0c19d4530424206d4",
    "scale-axioms --scale file:minus.scale": "c1ddb18c78a9717c3fcb6aa59718345d4210ddc3f87fbc6728588862608d09cd",
    "scale-axioms --scale file:minus.scale --json": "ef291efdfe1974007c92ad5caff9049e077aefea3b70b9c7887547a95a537f8e",
    "extension --scale weighted": "fd52cb33fc8624afe7ffff01740ab130045f5bb26707e1b531b9c47cc8418e13",
    "extension --scale weighted --json": "8963bc739ea6270a6088c827cfa54308d0fc1bf659bded8364add0ac2b7ab2e6",
    "extension --scale file:plus.scale": "eada515542f6bd777efee383ff268412d493fc8991aba62b6fc0ebe16b242ebf",
    "extension --scale file:plus.scale --json": "4d0c326372ab0071f9753a9d4812c7dc31f403395f9dfb1d6193191243ddfb25",
    "extension --scale file:minus.scale": "9fdfe3aab80061d004ca0ecaa5dc65a6275f0371833e15868cf3ea81ad8426d4",
    "extension --scale file:minus.scale --json": "63afb1e127f2275d0ff9a54b0ae850e25c69572388a92e15595e004e8e1b7a47",
}


def test_scale_paths_byte_identical_digests(capsys, tmp_path, monkeypatch):
    # the scale-axioms and extension reports print the scale file path
    monkeypatch.chdir(tmp_path)
    for name, text in _SCALE_FILES.items():
        (tmp_path / name).write_text(text)
    for shown, digest in _SCALE_NORM_DIGESTS.items():
        out = ""
        for w in _SCALE_WORDS:
            code, text, _ = run(capsys, "norm", *shown.split(), w)
            assert code == 0, (shown, w)
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shown
    for shown, digest in _SCALE_SUITE_DIGESTS.items():
        suite, *rest = shown.split()
        code, out, _ = run(capsys, "verify", "--suite", suite, *rest)
        assert code in (0, 1), shown
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shown


def _bruteforce_words() -> list[str]:
    # three seeded reduced words of each length 1-12; the 3-point alphabet
    # makes ties between matches common, so the pins also cover the tie-break
    rng = random.Random(9)
    words = []
    for n in range(1, 13):
        for points in (ALPHA3, DEEP_POINTS, ALPHA3):
            letters: list[Letter] = []
            while len(letters) < n:
                x = Letter(rng.choice((1, -1)), rng.choice(points))
                if not letters or x != letters[-1].inverse():
                    letters.append(x)
            words.append(format_word(Word(tuple(letters))))
    return words


# sha256 of the concatenated stdout of `norm --bruteforce` over
# _bruteforce_words(), recorded while the brute force still costed one match
# tuple at a time.
_BRUTEFORCE_DIGESTS = {
    "": "983ffb0876d0cc41ce606e58e02dbcf75d60ebcb5231bd30bc04e3d235c7e486",
    "--witness": "7071822f973f1d2332af759ebee8440ff1a60bc4bf343be3f3f94bbe5c224da7",
    "--json": "22b3ec9d54669004a8165a8122ab93d61496a2c3a8c5a74a8c1e73e17c5b3246",
}


def test_bruteforce_byte_identical_digests(capsys):
    words = _bruteforce_words()
    assert [len(parse_word(w)) for w in words] == [n for n in range(1, 13) for _ in range(3)]
    for shown, digest in _BRUTEFORCE_DIGESTS.items():
        out = ""
        for w in words:
            code, text, _ = run(capsys, "norm", "--bruteforce", *shown.split(), w)
            assert code == 0, (shown, w)
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest, shown


# --- fuzz over the grammar, the subcommands and small flags --------------------------

_points = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda cs: "[" + ",".join(map(str, cs)) + "]"
)
_terms = st.one_of(st.just("e"), st.tuples(_points, st.sampled_from(["", "^-1"])).map("".join))
_words = st.lists(_terms, min_size=1, max_size=4).map(" ".join)
# mostly grammatical text, plus short strings the grammar rejects
_texts = st.one_of(_words, _words, st.text(alphabet="[]0123,^-1e x\t#²", max_size=10))
_scale_lines = st.tuples(
    st.sampled_from(["0", "1", "2", str(10**12), "-1", "x"]),
    st.sampled_from(["1/4", "-1/2", "0", "1/0", "y"]),
).map(" = ".join)


_COMMANDS = ["norm", "dist", "matches", "project", "seplevel"] + [
    f"verify {suite}" for suite in ("discreteness", "lipschitz", "extension", "scale-axioms")
]


@st.composite
def _cli_call(draw, command: str):
    def flag(name: str) -> list[str]:
        return [name] if draw(st.booleans()) else []

    small = st.integers(-1, 3)
    scale = draw(st.sampled_from([[], ["--scale", "trivial"], ["--scale", "weighted"],
                                  ["--scale", "file:@scale.txt"], ["--scale", "mystery"]]))
    if command == "norm":
        # budgets stay <= 1: a budget-2 search under the weighted scale may
        # evaluate thousands of spellings
        budget = ["--budget", str(draw(st.integers(-1, 1)))] if scale else flag("--bruteforce")
        argv = ["norm", draw(_texts), *scale, *budget, *flag("--witness"), *flag("--json")]
    elif command in ("dist", "seplevel"):
        argv = [command, draw(_texts), draw(_texts), *(flag("--json") if command == "dist" else [])]
    elif command == "matches":
        count_only = flag("--count-only")
        lengths = [-1, 0, 1, 3, 6, 15, 40] if count_only else [-1, 0, 1, 3, 6, 15]
        argv = ["matches", "--len", str(draw(st.sampled_from(lengths))), *count_only]
    elif command == "project":
        argv = ["project", "-n", str(draw(small)), draw(_texts)]
    else:
        suite = command.split()[1]
        argv = ["verify", "--suite", suite, "--level", str(draw(small)), *scale, *flag("--json")]
        source = draw(st.sampled_from(["default", "cases", "corpus"]))
        if source == "cases":
            argv += ["--cases", str(draw(st.integers(-1, 8))), "--seed", str(draw(small)),
                     "--max-len", str(draw(small))]
        elif source == "corpus":
            argv += ["--corpus", "@corpus.txt"]
    corpus = draw(st.lists(_texts, max_size=5))
    scale_file = draw(st.lists(_scale_lines, max_size=3))
    return argv, "\n".join(corpus), "\n".join(scale_file)


def _call(argv: list[str], fresh_parser: bool = False) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process main call, through the
    shared parser or through a parser built for this call alone."""
    builder = build_parser.__wrapped__ if fresh_parser else build_parser
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(graev.cli, "build_parser", builder):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", _COMMANDS)
@given(data=st.data())
@settings(max_examples=10, deadline=None, derandomize=True)
def test_main_fuzz_ends_with_an_exit_code(tmp_path_factory, command, data):
    argv, corpus, scale_file = data.draw(_cli_call(command))
    where = tmp_path_factory.getbasetemp() / "fuzz"
    where.mkdir(exist_ok=True)
    (where / "corpus.txt").write_text(corpus)
    (where / "scale.txt").write_text(scale_file)
    argv = [a.replace("@", f"{where}/") for a in argv]  # no drawn text holds "@"
    shared = _call(argv)
    assert shared[0] in (0, 1, 2, 3), argv
    assert _call(argv, fresh_parser=True) == shared, argv


# Every subcommand, plain and --json, interleaved with help and usage errors,
# so that a parse leaving state in the shared parser shows in a later call.
_PARSER_CALLS = [
    ["norm", "[1] [2]^-1 [1,2]"],
    ["--help"],
    ["norm", "--json", "--witness", "[1] [2]^-1 [1,2]"],
    [],
    ["norm", "--scale", "weighted", "--budget", "1", "--witness", "[1] [1,2]^-1"],
    ["nosuch"],
    ["norm", "--scale", "weighted", "--json", "[1] [1,2]^-1"],
    ["norm", "--help"],
    ["norm"],
    ["dist", "[1,2]", "[1,3]"],
    ["norm", "--budget"],
    ["dist", "--json", "[1,2]", "[1,3]"],
    ["matches", "--len", "x"],
    ["matches", "--len", "4"],
    ["matches", "--len", "30", "--count-only"],
    ["verify", "--suite", "bogus"],
    ["project", "-n", "1", "[1,2] [3]^-1"],
    ["seplevel", "[1,2]", "[1,3]"],
    ["verify", "--suite", "discreteness", "--level", "1"],
    ["verify", "--suite", "discreteness", "--level", "2", "--cases", "5", "--json"],
    ["verify", "--suite", "lipschitz", "--level", "0", "--cases", "4", "--seed", "3"],
    ["verify", "--suite", "lipschitz", "--level", "0", "--json"],
    ["verify", "--suite", "extension", "--level", "1"],
    ["verify", "--suite", "extension", "--level", "1", "--json"],
    ["verify", "--suite", "scale-axioms"],
    ["verify", "--suite", "scale-axioms", "--json"],
    ["norm", "[1] [2]^-1 [1,2]"],
    ["--help"],
]


def test_shared_parser_gives_the_bytes_of_a_fresh_one():
    shared = [_call(argv) for argv in _PARSER_CALLS]
    fresh = [_call(argv, fresh_parser=True) for argv in _PARSER_CALLS]
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 2}
    assert build_parser.cache_info().misses == 1


def test_import_builds_no_parser():
    src = Path(graev.cli.__file__).resolve().parents[1]
    probe = "import graev.cli as c; print(c.build_parser.cache_info().misses)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "0\n"


def test_out_of_memory_exits_3_with_one_line():
    # a 12,000-letter norm and a dist whose product has 12,000 letters, in a
    # child capped at 400 MB: the letter-cost table alone holds 72,006,000
    # pointers, about 0.58 GB, and cost_dp's (n+1) x n value matrix about 1.15 GB
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    cap = 400 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, resource.getrlimit(resource.RLIMIT_AS)[1]))

    src = Path(graev.cli.__file__).resolve().parents[1]
    letters = [f"[{k}]" for k in range(1, 12_001)]
    for argv in (
        ["norm", " ".join(letters)],
        ["dist", " ".join(letters[:6_000]), " ".join(letters[6_000:])],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "graev.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            preexec_fn=limit,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: out of memory\n")
        assert "Traceback" not in done.stderr


@given(st.lists(st.one_of(_texts, _texts.map(lambda t: t + "  # comment"))))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_parse_corpus_fuzz(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz-corpus.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        words = parse_corpus(str(path))
    except ValueError as exc:
        where = re.match(rf"{re.escape(str(path))}:(\d+): .*column (\d+)", str(exc))
        assert where and 1 <= int(where[1]) <= len(lines) and int(where[2]) >= 1, str(exc)
    else:
        assert all(is_reduced(w) for w in words)
