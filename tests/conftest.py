from __future__ import annotations

import random
import sys
from fractions import Fraction as F
from typing import Iterator

import pytest

from graev.freegroup import IDENTITY, Letter, Point, Word
from graev.scales import load_scale_file, weighted_scale

# The standard 3-point test alphabet: the zero point and two depth-1 points.
ALPHA3 = (Point(()), Point((1,)), Point((2,)))

# Points of depth up to 3, for tests that need the projection tower to act.
DEEP_POINTS = (
    Point(()),
    Point((1,)),
    Point((2,)),
    Point((1, 2)),
    Point((0, 0, 1)),
    Point((1, 0, 2)),
)


# random_raw_word's letters: both signs of every DEEP_POINTS point, then the identity.
RAW_LETTERS = [Letter(s, p) for p in DEEP_POINTS for s in (1, -1)] + [IDENTITY]


def random_raw_word(rng: random.Random, length: int) -> Word:
    """Arbitrary word over DEEP_POINTS, identity letters and adjacent
    cancellations allowed."""
    return Word(tuple(rng.choice(RAW_LETTERS) for _ in range(length)))


def one_table(fix, pair):
    """Fold square tables, fix[j] for letter j alone and pair[i][j] (i < j) for
    pairing i with j, into the kernels' lower-triangular costs[j][i]."""
    return [[pair[i][j] for i in range(j)] + [fix[j]] for j in range(len(fix))]


def long_word_families(rng):
    """Seeded words of 20-60 letters, one family per kind of letter-cost table:
    raw words with identity letters, points sharing the deep prefix (1,1,1,1,1),
    letters of one sign, nested conjugates x_1...x_k c x_k^-1...x_1^-1, and
    points of depth 10 over {0, 1}."""
    prefix = [Point((1, 1, 1, 1, 1, k)) for k in range(4)]
    binary = [Point(tuple(rng.randint(0, 1) for _ in range(10))) for _ in range(12)]

    def signed(points, n, signs=(1, -1)):
        return [Letter(rng.choice(signs), rng.choice(points)) for _ in range(n)]

    for n in (20, 33, 47, 60):
        k = rng.randint(8, (n - 1) // 2)  # the conjugator's length
        outer = signed(DEEP_POINTS, k)
        inner = signed(DEEP_POINTS, n - 2 * k)
        yield "raw", random_raw_word(rng, n)
        yield "prefix", Word(tuple(signed(prefix, n)))
        yield "one sign", Word(tuple(signed(DEEP_POINTS, n, (rng.choice((1, -1)),))))
        yield "nested", Word(tuple(outer + inner + [x.inverse() for x in reversed(outer)]))
        yield "binary", Word(tuple(signed(binary, n)))


def factor_scales(tmp_path):
    """Every kind of scale with a factor: weighted and file scales with
    nonnegative, negative (factors 0 and below 0), non-dyadic, far-index
    and near-2^61 coefficients."""
    files = {
        "nonneg": "0 = 1/4\n2 = 3/8\n",
        "negative": "0 = -1\n1 = -3\n",
        "far": "1000000000000 = 5/2\n",
        "huge-denominator": f"0 = 1/{2**61 - 1}\n2 = -5/{2**61 + 3}\n",
    }
    scales = [weighted_scale(), weighted_scale({0: F(3, 7), 1: F(5, 11), 2: F(-2, 3)})]
    for name, text in files.items():
        path = tmp_path / f"{name}.scale"
        path.write_text(text)
        scales.append(load_scale_file(str(path)))
    return scales


def involutions(n: int) -> Iterator[tuple[int, ...]]:
    """All involutions on {0,...,n-1}: the brute-force oracle behind the
    match enumeration tests."""

    def build(free: tuple[int, ...]) -> Iterator[dict[int, int]]:
        if not free:
            yield {}
            return
        first, rest = free[0], free[1:]
        for sub in build(rest):
            yield {first: first, **sub}
        for k, partner in enumerate(rest):
            for sub in build(rest[:k] + rest[k + 1 :]):
                yield {first: partner, partner: first, **sub}

    for mapping in build(tuple(range(n))):
        yield tuple(mapping[i] for i in range(n))


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, 4,300, for the test's
    duration, whatever PYTHONINTMAXSTRDIGITS says; the old limit after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
