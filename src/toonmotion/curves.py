"""Shared easing curves."""

from __future__ import annotations

import numpy as np


def smoothstep(t):
    """Classic 3t^2 - 2t^3 ease, input clamped to [0, 1], elementwise."""
    u = np.clip(t, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)
