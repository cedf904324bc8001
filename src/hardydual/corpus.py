"""Reference datasets shared by the tests, the demos and the benchmark (``perfbench``).

Two cases have closed-form kernel values (a single point mass, and a
rank-one Hankel symbol); the five mixed cases combine smooth contractive
symbols with one or two point masses and are exercised numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (
    CircleGrid,
    MassSet,
    symbol_from_expression,
    zero_symbol,
)
from .spaces import SpaceData


@dataclass(frozen=True)
class CorpusCase:
    name: str
    formula: str | None  # None means the zero symbol
    masses: tuple[tuple[complex, float], ...]

    def space(self, grid_size: int = 4096) -> SpaceData:
        grid = CircleGrid(grid_size)
        symbol = zero_symbol(grid) if self.formula is None \
            else symbol_from_expression(grid, self.formula)
        if self.masses:
            points, weights = zip(*self.masses)
            masses = MassSet(np.array(points, dtype=complex),
                             np.array(weights, dtype=float))
        else:
            masses = MassSet.empty()
        return SpaceData(symbol, masses)


CASES = (
    CorpusCase("mass_single", None, ((0.5, 3.0),)),
    CorpusCase("hankel_rank1", "0.6*conj(t)", ()),
    CorpusCase("mixed_basic", "0.3*conj(t)",
               ((0.5, 1.0), (-1 / 3, 0.8))),
    CorpusCase("mixed_two_mass", "0.25*conj(t) + 0.15*conj(t)**3",
               ((1 / 3, 0.5), (-0.25, 2.0))),
    CorpusCase("mixed_deg2", "0.5*conj(t)**2",
               ((0.4j, 1.5), (0.2, 0.7))),
    CorpusCase("mixed_complex", "(0.2+0.1j)*conj(t) + 0.2*conj(t)**2 + 0.1*t",
               ((0.3 + 0.3j, 1.2),)),
    CorpusCase("mixed_rational", "0.55*conj(t)/(1 - 0.35*conj(t))",
               ((0.5, 3.0), (1 / 3, 1.0))),
)

BY_NAME = {case.name: case for case in CASES}
MIXED_NAMES = tuple(case.name for case in CASES if case.name.startswith("mixed"))


def rank_one_kernel_value(point: complex, weight: float) -> float:
    """K(0) for the zero symbol with a single mass, in closed form.

    With s = 1/(1 - |zeta|^2), the (0,0) entry of the inverse Gram is
    1 - w/(1 + w s) by the rank-one update formula.
    """
    s = 1.0 / (1.0 - abs(point) ** 2)
    return float(np.sqrt(1.0 - weight / (1.0 + weight * s)))


def mass_single_trace(n: int, point: complex = 0.5, weight: float = 3.0) -> float:
    """Closed-form K^{alpha_n}(0) for the single-mass case."""
    return rank_one_kernel_value(point, weight * abs(point) ** (2 * n))
