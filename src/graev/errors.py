import sys

digit_limit = sys.get_int_max_str_digits  # the most decimal digits int <-> str converts; 0: none


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured enumeration or search cap, or
    the interpreter's int-to-str digit limit (digit_limit())."""


def digit_limit_error(subject: str) -> ResourceLimitError:
    """The error for a subject with more decimal digits than digit_limit()."""
    return ResourceLimitError(
        f"{subject} has more than {digit_limit()} digits, the interpreter's int-to-str "
        "limit; raise PYTHONINTMAXSTRDIGITS"
    )
