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

from .errors import ResourceLimitError
from .freegroup import IDENTITY_WORD, Letter, Point, Word
from .graevmetric import MATCH_CAP_ENV, enumeration_cap
from .matching import Match, count_matches, unrank_match


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
    """count distinct reduced words; raises if the space is too small."""
    out: list[Word] = []
    seen: set[tuple[Letter, ...]] = set()
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count + 1000:
            raise ValueError(
                f"could not draw {count} distinct words of length <= {max_len} "
                f"over {len(points)} points"
            )
        w = sample_reduced_word(rng, points, max_len)
        if w.letters not in seen:
            seen.add(w.letters)
            out.append(w)
    return out


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
    cap = enumeration_cap()
    if length > cap:
        raise ResourceLimitError(
            f"sampling a match of length {length} is above the match enumeration cap "
            f"{cap}; set {MATCH_CAP_ENV} to raise it"
        )
    return unrank_match(length, rng.randrange(count_matches(length)))
