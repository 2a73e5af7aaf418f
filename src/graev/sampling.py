"""Seeded word and match sampling for the randomized suites.

The generator is fully specified so that a fixed seed reproduces the exact
case list: letters are drawn uniformly from a configured point list with a
uniform sign, lengths follow a half-chance geometric distribution capped
at a maximum (or a uniform one when requested), immediate cancellations
are re-drawn so words are born reduced, and duplicates are rejected.
"""

from __future__ import annotations

import random
from typing import Sequence

from .freegroup import IDENTITY_WORD, Letter, Point, Word
from .matching import Match, check_enumeration_cap, count_matches, unrank_match


def exhaustive_reduced_words(points: Sequence[Point], max_len: int) -> list[Word]:
    """Every reduced word of length <= max_len over the signed letters of
    the given points, plus the identity word, in a fixed order."""
    letters = [Letter(s, p) for p in points for s in (1, -1)]
    out: list[Word] = [IDENTITY_WORD]
    layer: list[tuple[Letter, ...]] = [()]
    for _ in range(max_len):
        grown: list[tuple[Letter, ...]] = []
        for base in layer:
            for x in letters:
                if base and base[-1] == x.inverse():
                    continue
                grown.append(base + (x,))
        out.extend(Word(t) for t in grown)
        layer = grown
    return out


def sample_reduced_word(
    rng: random.Random,
    points: Sequence[Point],
    max_len: int,
    uniform_length: bool = False,
) -> Word:
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if uniform_length:
        length = rng.randint(1, max_len)
    else:
        length = 1
        while length < max_len and rng.random() < 0.5:
            length += 1
    letters: list[Letter] = []
    while len(letters) < length:
        cand = Letter(rng.choice((1, -1)), rng.choice(points))
        if letters and cand == letters[-1].inverse():
            continue
        letters.append(cand)
    return Word(tuple(letters))


def sample_corpus(
    rng: random.Random,
    points: Sequence[Point],
    count: int,
    max_len: int,
) -> list[Word]:
    """count distinct reduced words; raises if the space is too small, before
    any draw when count is above the number of reduced words there are."""
    failure = (
        f"could not draw {count} distinct words of length <= {max_len} over {len(points)} points"
    )
    # max_len < 1 is left to sample_reduced_word, whose error comes first
    if max_len >= 1 and count > _reduced_words_up_to(len(set(points)), max_len, count):
        raise ValueError(failure)
    out: list[Word] = []
    seen: set[tuple[Letter, ...]] = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise ValueError(failure)
        w = sample_reduced_word(rng, points, max_len)
        if w.letters not in seen:
            seen.add(w.letters)
            out.append(w)
    return out


def _reduced_words_up_to(p: int, max_len: int, enough: int) -> int:
    """The number of reduced words of length 1..max_len over p points,
    sum 2p (2p-1)^(k-1), or a partial sum once it reaches enough."""
    if p <= 1:
        return 2 * p * max_len
    total, layer = 0, 2 * p
    for _ in range(max_len):
        total += layer
        if total >= enough:
            break
        layer *= 2 * p - 1
    return total


def sample_distinct_pairs(
    rng: random.Random,
    points: Sequence[Point],
    count: int,
    max_len: int,
) -> list[tuple[Word, Word]]:
    pairs: list[tuple[Word, Word]] = []
    while len(pairs) < count:
        u = sample_reduced_word(rng, points, max_len)
        v = sample_reduced_word(rng, points, max_len)
        if u != v:
            pairs.append((u, v))
    return pairs


def sample_match(rng: random.Random, length: int) -> Match:
    """Uniform draw from all matches on {0,...,length-1}: the index rng.choice
    over the listed matches would draw, unranked, so no match list is built.
    Lengths above the match enumeration cap are refused."""
    if length < 1:
        raise ValueError("match sampling needs interval length >= 1")
    check_enumeration_cap(length, "sampling a match")
    return unrank_match(length, rng.randrange(count_matches(length)))
