"""Tests for the validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import ensure_positive, ensure_positive_int


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert ensure_positive("x", 3.5) == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            ensure_positive("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ensure_positive("x", -1)


class TestEnsurePositiveInt:
    def test_accepts_positive_int(self):
        assert ensure_positive_int("n", 4) == 4

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            ensure_positive_int("n", 0)
        with pytest.raises(ValueError):
            ensure_positive_int("n", -2)

    def test_rejects_bool_and_float(self):
        with pytest.raises(TypeError):
            ensure_positive_int("n", True)
        with pytest.raises(TypeError):
            ensure_positive_int("n", 2.0)
