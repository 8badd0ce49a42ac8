"""Checkerboard-in-time masks whose block length follows the global period.

A mask is a time pattern only: it varies along time and every channel
shares it, so the flow broadcasts the (T,) pattern over its channels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MaskError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicMask:
    """Binary (T,) pattern alternating blocks of `period` zeros and ones:
    entry t equals floor(t / period) mod 2."""

    time_pattern: np.ndarray
    period: int


def build_mask(period: int, window_length: int) -> PeriodicMask:
    """Block-alternating mask; a period >= T is clamped to ceil(T/2) so both
    mask values always occur."""
    if period <= 0:
        raise MaskError(f"period must be positive, got {period}")
    if window_length < 2:
        raise MaskError("window length must be >= 2")
    p = period if period < window_length else int(np.ceil(window_length / 2))
    pattern = (np.arange(window_length) // p) % 2
    return PeriodicMask(pattern.astype(np.float64), p)


def complement(mask: PeriodicMask) -> PeriodicMask:
    return PeriodicMask(1.0 - mask.time_pattern, mask.period)
