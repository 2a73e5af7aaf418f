import re
import sys
from typing import Iterator

digit_limit = sys.get_int_max_str_digits  # the most decimal digits int <-> str converts; 0: none


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured enumeration or search cap, or
    the interpreter's int-to-str digit limit (digit_limit())."""


def text_lines(path: str) -> Iterator[str]:
    """The lines of the UTF-8 text file at path, as open() splits them; a line holding
    a byte that is not UTF-8 raises ValueError naming the path, the line and the byte."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = not line.isascii() and re.search("[\udc80-\udcff]", line)
            if bad:  # surrogateescape maps an undecodable byte b to U+DC00 + b
                raise ValueError(f"{path}:{lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8")
            yield line


def digit_limit_error(subject: str) -> ResourceLimitError:
    """The error for a subject with more decimal digits than digit_limit()."""
    return ResourceLimitError(
        f"{subject} has more than {digit_limit()} digits, the interpreter's int-to-str "
        "limit; raise PYTHONINTMAXSTRDIGITS"
    )
