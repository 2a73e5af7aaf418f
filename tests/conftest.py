from __future__ import annotations

import random
import sys
from typing import Iterator

import pytest

from graev.freegroup import IDENTITY, Letter, Point, Word

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
def alpha3() -> tuple[Point, ...]:
    return ALPHA3


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, 4,300, for the test's
    duration, whatever PYTHONINTMAXSTRDIGITS says; the old limit after."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
