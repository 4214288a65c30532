"""Small argument-validation helpers shared across configuration objects."""

from __future__ import annotations

from typing import Union

Number = Union[int, float]


def ensure_positive(name: str, value: Number) -> Number:
    """Raise :class:`ValueError` unless ``value > 0``; return the value."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def ensure_positive_int(name: str, value: int) -> int:
    """Raise unless ``value`` is a positive integer; return the value."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value
