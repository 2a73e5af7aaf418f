import io
import json

import pytest

from graev.cli import CorpusSyntaxError, main, parse_corpus
from graev.freegroup import format_word


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
    code, _, err = run(capsys, "matches", "--len", "7")
    assert code == 3
    assert "cap 6" in err
    long_word = " ".join(f"[{k}]" for k in range(1, 8))
    code, _, err = run(capsys, "norm", "--bruteforce", long_word)
    assert code == 3
    assert "cap 6" in err
    # DP path stays available; three unit-cost arcs plus one fixed point
    code, out, _ = run(capsys, "norm", long_word)
    assert (code, out) == (0, "4/1\n")


def test_missing_corpus_file_exits_2(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "discreteness", "--corpus", "/nonexistent/c.txt"
    )
    assert code == 2
    assert "error" in err


# --- corpus parsing ------------------------------------------------------------------


def test_parse_corpus_stream():
    text = "# corpus\n[1] [2]^-1\ne\n\n[1] [1]^-1  # cancels\n"
    words = parse_corpus(io.StringIO(text))
    assert [format_word(w) for w in words] == ["[1] [2]^-1", "e", "e"]


def test_parse_corpus_empty_is_valid():
    assert parse_corpus(io.StringIO("")) == []
    assert parse_corpus(io.StringIO("# only a comment\n")) == []


def test_parse_corpus_error_names_line_and_column():
    with pytest.raises(CorpusSyntaxError) as exc:
        parse_corpus(io.StringIO("[1]\n[2] oops\n"))
    assert exc.value.line == 2
    assert exc.value.column == 5
    assert "line 2" in str(exc.value)


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
