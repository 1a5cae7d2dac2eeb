"""Small shared helpers: angle arithmetic."""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a > math.pi:
        a -= TWO_PI
    elif a <= -math.pi:
        a += TWO_PI
    return a
