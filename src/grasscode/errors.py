"""Shared exception types."""


def _count_text(n) -> str:
    """n in decimal, or by its size when it has more digits than Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


class BudgetExceededError(RuntimeError):
    """An enumeration or scan would exceed its configured budget."""

    def __init__(self, what, needed, limit):
        super().__init__(f"{what} needs {_count_text(needed)} > budget {limit}")
        self.what = what
        self.needed = needed
        self.limit = limit


class SpecParseError(ValueError):
    """A variety-spec string or export file failed to parse."""
