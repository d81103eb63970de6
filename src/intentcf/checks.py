"""Value tests shared by the argument checks at the library's entry points
and the config and checkpoint-header validation."""

from __future__ import annotations

import numbers
import sys


def is_int(v) -> bool:
    """An integer (a Python or numpy one), not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A real number (a Python or numpy one), not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """A real number inside the float range: false for nan, the infinities
    and integers beyond the largest float."""
    return is_real(v) and abs(v) <= sys.float_info.max
