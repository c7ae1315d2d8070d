"""Landau levels of constant magnetic fields on the hyperbolic plane.

A constant field of intensity b > 1/2 carries finitely many Landau levels
below the essential spectrum [1/4 + b^2, oo):

    (2j+1) b - j (j+1),   j = 0, 1, ...,  j < b - 1/2.

The pointwise counting weight for the phase-space integral is

    N(mu, b) = b * #{ k >= 0 : (2k+1) b < mu }     (b > 0),
    N(mu, 0) = mu / 2,

with N(mu, b) = 0 for mu <= 0 on both branches.  The inequality is
strict: a level sitting exactly at mu does not count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import finite


def landau_count(mu: float, b: float) -> float:
    """Scaled count of Landau levels strictly below mu for intensity b >= 0."""
    mu, b = finite("mu", mu), finite("b", b)
    if b < 0.0:
        raise ValueError(f"intensity b must be >= 0, got {b}")
    if mu <= 0.0:
        return 0.0
    if b == 0.0:
        return 0.5 * mu
    # #{k >= 0 : (2k+1) b < mu} = ceil(x), x = (mu - b)/b/2 (2b may overflow),
    # clipped at 0: exact at the jump points mu = (2k+1) b.  If x overflows,
    # b ceil(x) is in [(mu - b)/2, (mu - b)/2 + b), b < mu 2^-1023: mu/2.
    x = (mu - b) / b / 2.0
    return 0.5 * mu if math.isinf(x) else b * max(0, math.ceil(x))


def ess_bottom(beta: float) -> float:
    """Bottom of the essential spectrum for constant intensity |beta|."""
    return 0.25 + beta * beta


@dataclass(frozen=True)
class LandauLevelSet:
    """Finite set of Landau levels of a constant field, sorted ascending."""

    beta: float
    levels: tuple[float, ...]


_MAX_LEVELS = 1 << 20  # also weyl's bound, which holds four pieces a level


def landau_level_set(beta: float) -> LandauLevelSet:
    """Levels (2j+1)|beta| - j(j+1) for j < |beta| - 1/2; empty iff |beta| <= 1/2.

    More than _MAX_LEVELS levels are refused."""
    beta = finite("beta", beta)
    a = abs(beta)
    if a - 0.5 > _MAX_LEVELS:
        raise ValueError(f"beta={beta} has more than {_MAX_LEVELS} Landau levels")
    return LandauLevelSet(beta=beta, levels=tuple(
        (2 * j + 1) * a - j * (j + 1) for j in range(max(0, math.ceil(a - 0.5)))))
