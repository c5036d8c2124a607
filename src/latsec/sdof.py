"""Rational decomposition of the cross gain and the secure-degrees-of-freedom formulas.

The cross gain sqrt(ab) is written as (p + gamma)/q with positive integers
p, q and a fractional remainder gamma in (-1, 1).  The achievable high-SNR
slope is a closed form in (p, q, gamma), valid only for 0 < |gamma| < 0.5;
outside that window no value is emitted rather than extrapolated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, ResourceCapError

# (gain, q) pairs one landscape may try: about a second at 0.5-0.6 us a pair
# (2-vCPU x86 VM, Python 3.11)
SDOF_WORK_CAP = 1 << 21


@dataclass(frozen=True)
class GainDecomposition:
    p: int
    q: int
    gamma: float


@dataclass(frozen=True)
class DofPoint:
    sqrt_ab: float
    p: int | None
    q: int | None
    gamma: float | None
    alpha: float | None
    beta: float | None
    sdof: float | None


def decompose_gain(sqrt_ab: float, q_max: int) -> GainDecomposition | None:
    """Best (p, q, gamma) with q <= q_max, minimizing |gamma| over the valid window.

    For each q the optimal numerator is the nearest integer (clamped to be
    positive); candidates need 0 < |gamma| < 0.5.  Ties prefer the smallest
    q.  Returns None when no candidate lands in the open window, e.g. when
    the gain is exactly rational at every admissible q (gamma = 0) or only
    boundary remainders |gamma| = 0.5 exist.
    """
    if not sqrt_ab > 0:
        raise DomainError("sqrt(ab) must be positive")
    if q_max < 1:
        raise DomainError("q_max must be at least 1")
    if not math.isfinite(q_max * sqrt_ab):
        raise DomainError(f"q_max * sqrt(ab) overflows at sqrt(ab) = {sqrt_ab!r}")
    best: GainDecomposition | None = None
    for q in range(1, q_max + 1):
        scaled = q * sqrt_ab
        p = max(1, math.floor(scaled + 0.5))
        gamma = scaled - p
        if not (0 < abs(gamma) < 0.5):
            continue
        if best is None or abs(gamma) < abs(best.gamma):
            best = GainDecomposition(p, q, gamma)
    return best


def alpha_of(gamma: float) -> float:
    """(1 - 2 gamma^2 + sqrt(1 - 4 gamma^2)) / (2 gamma^4); needs 0 < |gamma| < 0.5."""
    if not (0 < abs(gamma) < 0.5):
        raise DomainError("alpha is defined only for 0 < |gamma| < 0.5")
    g2 = gamma * gamma
    return (1 - 2 * g2 + math.sqrt(1 - 4 * g2)) / (2 * g2 * g2)


def beta_of(p: int, q: int, gamma: float) -> float:
    """q^2 + (p + gamma)^2; at least q^2 for any remainder."""
    if p < 1 or q < 1:
        raise DomainError("p and q must be positive integers")
    return q * q + (p + gamma) ** 2


def sdof_of(alpha: float, beta: float) -> float:
    """[(0.25 log2 alpha - 1) / (0.5 log2(alpha beta + 1))]^+, clamped into [0, 1)."""
    if not alpha > 0 or not beta > 0:
        raise DomainError("alpha and beta must be positive")
    numer = 0.25 * math.log2(alpha) - 1.0
    denom = 0.5 * math.log2(alpha * beta + 1.0)
    return max(0.0, numer / denom)


def sdof_landscape(gains: Sequence[float], q_max: int) -> list[DofPoint]:
    """One row per gain; rows without a valid decomposition carry no sdof.  At
    most SDOF_WORK_CAP (gain, q) pairs are tried."""
    if len(gains) * q_max > SDOF_WORK_CAP:
        raise ResourceCapError(f"{len(gains)} gains x {q_max} denominators exceed "
                               f"cap {SDOF_WORK_CAP}")
    out = []
    for gain in gains:
        dec = decompose_gain(gain, q_max)
        if dec is None:
            out.append(DofPoint(float(gain), None, None, None, None, None, None))
            continue
        alpha = alpha_of(dec.gamma)
        beta = beta_of(dec.p, dec.q, dec.gamma)
        out.append(DofPoint(float(gain), dec.p, dec.q, dec.gamma,
                            alpha, beta, sdof_of(alpha, beta)))
    return out
