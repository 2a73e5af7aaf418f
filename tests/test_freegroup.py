import itertools
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graev.freegroup import (
    IDENTITY,
    IDENTITY_WORD,
    Letter,
    Point,
    Word,
    WordSyntaxError,
    first_difference,
    format_word,
    invert,
    is_reduced,
    letter_distance,
    multiply,
    neg,
    parse_word,
    point_distance,
    pos,
    reduce_word,
    word,
)

from conftest import ALPHA3


def letters_over(points):
    out = [IDENTITY]
    for p in points:
        out.append(Letter(1, p))
        out.append(Letter(-1, p))
    return out


TEST_LETTERS = letters_over([Point(()), Point((1,)), Point((2,)), Point((1, 2))])


# --- points and letters ------------------------------------------------------


def test_point_canonical_form():
    assert Point((1, 2, 0, 0)) == Point((1, 2))
    assert Point((0, 0)) == Point(())
    assert Point((1, 0, 3)).coords == (1, 0, 3)
    assert Point((1, 2)).depth == 2
    with pytest.raises(ValueError):
        Point((1, -2))
    with pytest.raises(ValueError, match="truncation level must be >= 0"):
        Point(()).truncate(-1)


def test_long_runs_of_trailing_zeros_strip_in_linear_time():
    zeros = 200_000
    start = time.perf_counter()
    w = parse_word(f"[3,{'0,' * zeros}0]^-1 [{'0,' * zeros}0]")
    assert w == word(neg(3), pos())
    point = Point((3,) + (0,) * zeros + (4,))
    assert point.truncate(zeros + 1) == Point((3,))
    assert point.truncate(zeros + 2) == point
    assert time.perf_counter() - start < 2


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter(2, Point((1,)))
    with pytest.raises(ValueError):
        Letter(1, None)
    with pytest.raises(ValueError):
        Letter(0, Point((1,)))


def test_letter_inverse_is_involution():
    for x in TEST_LETTERS:
        assert x.inverse().inverse() == x
    assert IDENTITY.inverse() == IDENTITY
    assert pos(1).inverse() == neg(1)


# --- letter distance ---------------------------------------------------------


def test_letter_distance_examples():
    assert letter_distance(pos(1, 2), pos(1, 2)) == 0
    assert letter_distance(pos(1, 2), pos(1, 3)) == F(1, 2)
    assert letter_distance(neg(1), pos(2)) == 1


def test_first_difference():
    assert first_difference(Point((1, 2)), Point((1, 2))) is None
    assert first_difference(Point(()), Point((0, 3))) == 1
    # coordinates past the shorter point are zero, not a difference
    assert first_difference(Point((1,)), Point((1, 0, 3))) == 2
    assert point_distance(Point((1,)), Point((1, 0, 3))) == F(1, 4)


def test_letter_distance_identity_and_signs():
    assert letter_distance(IDENTITY, pos(1)) == 1
    assert letter_distance(neg(1, 2), IDENTITY) == 1
    assert letter_distance(pos(1), neg(1)) == 1
    assert letter_distance(neg(1, 2), neg(1, 3)) == F(1, 2)


def test_letter_distance_is_metric_on_test_alphabet():
    ls = TEST_LETTERS
    for a in ls:
        for b in ls:
            d = letter_distance(a, b)
            assert 0 <= d <= 1
            assert (d == 0) == (a == b)
            assert d == letter_distance(b, a)
    for a, b, c in itertools.product(ls, repeat=3):
        assert letter_distance(a, c) <= letter_distance(a, b) + letter_distance(b, c)


def test_letter_distance_inverse_invariant():
    for a in TEST_LETTERS:
        for b in TEST_LETTERS:
            assert letter_distance(a, b) == letter_distance(a.inverse(), b.inverse())


def test_depth_separation_bound():
    # distinct points of depth <= n are at distance >= 2^{-n}
    for n in (1, 2, 3):
        pts = [
            Point(c)
            for c in itertools.product(range(3), repeat=n)
        ]
        for p, q in itertools.combinations(pts, 2):
            if p != q:
                assert letter_distance(Letter(1, p), Letter(1, q)) >= F(1, 2**n)


# --- words and reduction -----------------------------------------------------


def test_word_rejects_empty():
    with pytest.raises(ValueError):
        Word(())


def test_reduce_examples():
    assert reduce_word(word(pos(1), neg(1))) == IDENTITY_WORD
    assert reduce_word(word(pos(1), IDENTITY, pos(2))) == word(pos(1), pos(2))
    assert reduce_word(word(pos(1), neg(2), pos(2), pos(1))) == word(pos(1), pos(1))


def test_reduce_idempotent_and_reduced():
    w = word(pos(1), neg(2), pos(2), neg(1), pos(3))
    r = reduce_word(w)
    assert is_reduced(r)
    assert reduce_word(r) == r
    assert not is_reduced(word(pos(1), IDENTITY))  # e is reduced only on its own


def random_order_reduce(w: Word, rng: random.Random) -> Word:
    """Independent oracle: apply the two rewrite moves (replace an adjacent
    inverse pair by the identity letter; drop an identity letter when the
    word has another letter) in random order until irreducible."""
    letters = list(w.letters)
    while True:
        moves = []
        for i in range(len(letters) - 1):
            if letters[i + 1] == letters[i].inverse():
                moves.append(("cancel", i))
        if len(letters) > 1:
            for i, x in enumerate(letters):
                if x.is_identity:
                    moves.append(("drop", i))
        if not moves:
            break
        kind, i = rng.choice(moves)
        if kind == "cancel":
            letters[i : i + 2] = [IDENTITY]
        else:
            del letters[i]
    return Word(tuple(letters))


@st.composite
def raw_words(draw, max_len=8):
    pool = TEST_LETTERS
    n = draw(st.integers(1, max_len))
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    return Word(tuple(pool[i] for i in idx))


@given(raw_words(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_reduction_order_independent(w, seed):
    assert random_order_reduce(w, random.Random(seed)) == reduce_word(w)


def small_group_elements():
    letters = [Letter(s, p) for p in ALPHA3[:2] for s in (1, -1)]
    words = [IDENTITY_WORD]
    words += [word(a) for a in letters]
    words += [
        word(a, b) for a in letters for b in letters if b != a.inverse()
    ]
    return words


def test_group_axioms_exhaustive():
    elems = small_group_elements()
    for u in elems:
        assert multiply(u, IDENTITY_WORD) == u
        assert multiply(IDENTITY_WORD, u) == u
        assert multiply(u, invert(u)) == IDENTITY_WORD
        assert multiply(invert(u), u) == IDENTITY_WORD
    for u, v, w_ in itertools.product(elems[:9], repeat=3):
        assert multiply(multiply(u, v), w_) == multiply(u, multiply(v, w_))


def test_multiply_invert_examples():
    assert multiply(word(pos(1)), word(neg(1))) == IDENTITY_WORD
    assert multiply(word(pos(1)), IDENTITY_WORD) == word(pos(1))
    assert multiply(word(pos(1), pos(2)), word(neg(2), pos(3))) == word(pos(1), pos(3))
    assert invert(IDENTITY_WORD) == IDENTITY_WORD
    assert invert(word(pos(1), pos(2))) == word(neg(2), neg(1))
    assert invert(word(neg(1))) == word(pos(1))


# --- grammar -----------------------------------------------------------------


def test_parse_basic():
    assert parse_word("e") == IDENTITY_WORD
    assert parse_word("[1,2]") == word(pos(1, 2))
    assert parse_word("[1,2]^-1") == word(neg(1, 2))
    assert parse_word("[1] [2]^-1 e") == word(pos(1), neg(2), IDENTITY)


def test_parse_canonicalizes_points_but_does_not_reduce():
    assert parse_word("[1,0]") == word(pos(1))
    assert parse_word("[0]") == word(Letter(1, Point(())))
    assert parse_word("[1] [1]^-1") == word(pos(1), neg(1))  # unreduced
    # printing any parse result yields the canonical spelling of the input
    assert format_word(parse_word("[1,0] e  [2,0,0]^-1")) == "[1] e [2]^-1"


def test_print_minimal_canonical():
    assert format_word(word(pos(1, 2), neg(3))) == "[1,2] [3]^-1"
    assert format_word(word(Letter(1, Point(())))) == "[0]"
    assert format_word(IDENTITY_WORD) == "e"


@given(raw_words())
@settings(max_examples=200, deadline=None)
def test_parse_print_round_trip(w):
    assert parse_word(format_word(w)) == w


def test_print_parse_round_trip_on_canonical_text():
    for text in ("e", "[0]", "[1,2] [3]^-1 e", "[0]^-1 [5]"):
        assert format_word(parse_word(text)) == text


@pytest.mark.parametrize(
    "text,column,token",
    [
        ("", 1, ""),
        ("x", 1, "x"),
        ("[", 2, ""),
        ("[1,]", 4, "]"),
        ("[1", 3, ""),
        ("[1]x", 4, "x"),
        ("[1]^2", 4, "^"),
        ("[-1]", 2, "-"),
        ("e[1]", 2, "["),
    ],
)
def test_parse_errors_report_position(text, column, token):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text)
    assert exc.value.position == column - 1
    assert exc.value.token == token
