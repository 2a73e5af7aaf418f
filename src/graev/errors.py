import re
import sys
from typing import Iterator

digit_limit = sys.get_int_max_str_digits  # the most decimal digits int <-> str converts; 0: none


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured enumeration or search cap, or
    the interpreter's int-to-str digit limit (digit_limit())."""


def text_lines(path: str) -> Iterator[tuple[str, str]]:
    """(where, content) for each line of the UTF-8 text file at path whose content,
    the line before its "#" comment, is not all whitespace; where is "<path>:<line>"
    and content has no line end.  A byte that is not UTF-8, even in a comment,
    raises ValueError naming where and the byte."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = not line.isascii() and re.search("[\udc80-\udcff]", line)
            if bad:  # surrogateescape maps an undecodable byte b to U+DC00 + b
                raise ValueError(f"{path}:{lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
            content = line.split("#", 1)[0].rstrip("\n")
            if content.strip():
                yield f"{path}:{lineno}", content


def digit_limit_error(subject: str) -> ResourceLimitError:
    """The error for a subject with more decimal digits than digit_limit()."""
    return ResourceLimitError(
        f"{subject} has more than {digit_limit()} digits, the interpreter's int-to-str "
        "limit; raise PYTHONINTMAXSTRDIGITS"
    )
