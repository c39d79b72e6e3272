"""Linear fits for the figure 6 analysis.

The paper fits lines to its three latency series ("The slopes are
linear as expected ... y = -7E-05x + 9.105" for the overhead).  Same
treatment here, with the fit quality exposed so tests can assert
linearity rather than eyeball it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float

    def __str__(self) -> str:
        return (
            f"y = {self.slope:+.6g}*x + {self.intercept:.4g} "
            f"(R^2 = {self.r_squared:.5f})"
        )


def linear_fit(xs, ys) -> LinearFit:
    """Ordinary least squares over the points."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError(f"need >= 2 paired points, got {x.size}/{y.size}")
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(float(slope), float(intercept), r_squared)
