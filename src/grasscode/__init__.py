"""Linear codes from linear sections of Grassmannians over finite fields."""

from .errors import BudgetExceededError, SpecParseError
from .field import GF, field_for_order

__all__ = [
    "GF",
    "field_for_order",
    "BudgetExceededError",
    "SpecParseError",
]
