"""Free-group words over finitely supported Baire-space points.

Points are finite sequences of naturals (all omitted coordinates are zero),
letters are signed points or the identity marker, and words reduce to a
canonical normal form.  The base metric on letters is the classical
max-of-2^{-k}-disagreements distance, lifted so that the identity and any
oppositely signed letter sit at distance one.  All values are exact
rationals; there is no floating point anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import digit_limit_error

Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


@dataclass(frozen=True)
class Point:
    """Finitely supported sequence of naturals, stored without trailing zeros."""

    coords: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        if any(c < 0 for c in coords):
            raise ValueError(f"point coordinates must be naturals, got {coords}")
        if coords and coords[-1] == 0:
            end = len(coords) - 1
            while end and coords[end - 1] == 0:
                end -= 1
            coords = coords[:end]
        object.__setattr__(self, "coords", coords)

    @property
    def depth(self) -> int:
        return len(self.coords)

    def truncate(self, n: int) -> "Point":
        """Zero out every coordinate at index >= n."""
        if n < 0:
            raise ValueError("truncation level must be >= 0")
        return Point(self.coords[:n])


@dataclass(frozen=True)
class Letter:
    """Identity marker (sign 0), or a point with sign +1 / -1."""

    sign: int
    point: Point | None = None

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"letter sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.point is None):
            raise ValueError("exactly the identity letter carries no point")

    @property
    def is_identity(self) -> bool:
        return self.sign == 0

    def inverse(self) -> "Letter":
        if self.sign == 0:
            return self
        return Letter(-self.sign, self.point)


IDENTITY = Letter(0, None)


def pos(*coords: int) -> Letter:
    return Letter(1, Point(coords))


def neg(*coords: int) -> Letter:
    return Letter(-1, Point(coords))


def first_difference(p: Point, q: Point) -> int | None:
    """Least k with p(k) != q(k), or None when the points are equal."""
    for k, (a, b) in enumerate(zip_longest(p.coords, q.coords, fillvalue=0)):
        if a != b:
            return k
    return None


def point_distance(p: Point, q: Point) -> Rat:
    """max{2^{-k} : p(k) != q(k)}, and 0 when the points are equal."""
    k = first_difference(p, q)
    return ZERO if k is None else Rat(1, 1 << k)


def letter_distance(a: Letter, b: Letter) -> Rat:
    """Base metric on letters: 1 across signs or against the identity."""
    if a == b:
        return ZERO
    if a.sign != b.sign:
        return ONE
    assert a.point is not None and b.point is not None
    return point_distance(a.point, b.point)


@dataclass(frozen=True)
class Word:
    """Nonempty finite sequence of letters; [identity] is the group identity."""

    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if not letters:
            raise ValueError("words must contain at least one letter")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def max_depth(self) -> int:
        return max((x.point.depth for x in self.letters if x.point is not None), default=0)


# Reduced words are ordinary Word values in the canonical form produced by
# reduce_word(); the alias documents intent in signatures.
ReducedWord = Word

IDENTITY_WORD = Word((IDENTITY,))


def word(*letters: Letter) -> Word:
    return Word(letters)


def is_reduced(w: Word) -> bool:
    ls = w.letters
    if len(ls) == 1 and ls[0].is_identity:
        return True
    if any(x.is_identity for x in ls):
        return False
    return all(ls[i + 1] != ls[i].inverse() for i in range(len(ls) - 1))


def reduce_word(w: Word) -> ReducedWord:
    """Canonical irreducible form: drop identity letters, cancel adjacent
    inverse pairs.  The result does not depend on the cancellation order."""
    stack: list[Letter] = []
    for x in w.letters:
        if not x.sign:
            continue
        if stack and stack[-1].sign == -x.sign and stack[-1].point == x.point:
            stack.pop()
        else:
            stack.append(x)
    if not stack:
        return IDENTITY_WORD
    return Word(tuple(stack))


def multiply(u: Word, v: Word) -> ReducedWord:
    """Group multiplication: reduce the concatenation."""
    return reduce_word(Word(u.letters + v.letters))


def invert(u: Word) -> ReducedWord:
    """Group inverse: reverse the reduced word and invert each letter."""
    return Word(tuple(x.inverse() for x in reversed(reduce_word(u).letters)))


# ---------------------------------------------------------------------------
# Word grammar:
#   word  := term (WS term)* ;
#   term  := "e" | point inv? ;
#   point := "[" nat ("," nat)* "]" ;
#   inv   := "^-1" ;
# Parsing canonicalizes points (trailing zeros dropped) and does NOT reduce.


class WordSyntaxError(ValueError):
    """Malformed word text; carries the offending position and token."""

    def __init__(self, message: str, position: int, token: str = "") -> None:
        super().__init__(message)
        self.position = position
        self.token = token


def _parse_nat(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and text[i].isdecimal():  # int() rejects other digits, e.g. '²'
        i += 1
    if i == start:
        found = text[start] if start < len(text) else "end of input"
        raise WordSyntaxError(
            f"expected a natural number at column {start + 1}, found {found!r}",
            start,
            found if start < len(text) else "",
        )
    try:
        return int(text[start:i]), i
    except ValueError:  # decimal digits fail int() only above the digit limit
        raise digit_limit_error(f"the natural number at column {start + 1}") from None


def _parse_point(text: str, i: int) -> tuple[tuple[int, ...], int]:
    # precondition: text[i] == "["
    i += 1
    coords = []
    value, i = _parse_nat(text, i)
    coords.append(value)
    while i < len(text) and text[i] == ",":
        value, i = _parse_nat(text, i + 1)
        coords.append(value)
    if i >= len(text) or text[i] != "]":
        found = text[i] if i < len(text) else "end of input"
        raise WordSyntaxError(
            f"expected ',' or ']' at column {i + 1}, found {found!r}",
            i,
            found if i < len(text) else "",
        )
    return tuple(coords), i + 1


def parse_word(text: str) -> Word:
    """Parse grammar text into an (unreduced) word."""
    letters: list[Letter] = []
    i, n = 0, len(text)
    while True:
        while i < n and text[i] in " \t":
            i += 1
        if i == n:
            break
        if text[i] == "e":
            letters.append(IDENTITY)
            i += 1
        elif text[i] == "[":
            coords, i = _parse_point(text, i)
            sign = 1
            if text.startswith("^-1", i):
                sign = -1
                i += 3
            letters.append(Letter(sign, Point(coords)))
        else:
            raise WordSyntaxError(
                f"unexpected token {text[i]!r} at column {i + 1}", i, text[i]
            )
        if i < n and text[i] not in " \t":
            raise WordSyntaxError(
                f"unexpected token {text[i]!r} at column {i + 1} (terms are separated by spaces)",
                i,
                text[i],
            )
    if not letters:
        raise WordSyntaxError("empty word", 0, "")
    return Word(tuple(letters))


def format_point(p: Point) -> str:
    return "[%s]" % ",".join(str(c) for c in p.coords) if p.coords else "[0]"


def format_letter(x: Letter) -> str:
    if x.is_identity:
        return "e"
    assert x.point is not None
    text = format_point(x.point)
    return text if x.sign > 0 else text + "^-1"


def format_word(w: Word) -> str:
    return " ".join(format_letter(x) for x in w.letters)


def format_rat(r: Rat) -> str:
    """Exact rational as "p/q" (q = 1 printed as "p/1").

    A numerator or denominator with more decimal digits than the
    interpreter converts raises errors.digit_limit_error.
    """
    try:
        return f"{r.numerator}/{r.denominator}"
    except ValueError:
        raise digit_limit_error("a rational") from None
