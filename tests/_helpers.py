"""Helpers the tests share that the package itself does not need."""

import numpy as np


def region_supremum(func, region):
    """Grid estimate of sup over D of a pointwise function.

    Evaluates ``func`` on 10,000 evenly spaced points over [a, b],
    masked by the indicator of the open interval.
    """
    pts = np.linspace(region.a, region.b, 10_000)
    inside = region.indicator(pts)
    if not inside.any():
        raise ValueError("no grid point falls inside the region")
    return float(np.max(np.asarray(func(pts))[inside]))
