"""Uniform rectangular grids carrying height functions u(x, y).

GridFunction is the graph representation of a surface used by the geometry,
catalog, elliptic and analysis modules.  Scalar fields defined on a grid are
plain (nx, ny) float arrays aligned with GridFunction.values; nodes where a
stencil is not applicable hold NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TranslabError


@dataclass
class GridFunction:
    """Scalar heights on a uniform rectangular grid.

    values[i, j] is u(x0 + i*hx, y0 + j*hy); axis 0 is x, axis 1 is y.
    """

    nx: int
    ny: int
    hx: float
    hy: float
    x0: float
    y0: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise TranslabError(f"grid needs nx, ny >= 3, got {self.nx}x{self.ny}")
        if not (self.hx > 0 and self.hy > 0):
            raise TranslabError("grid spacings must be positive")
        # x0 + hx (nx - 1) is finite only if x0, hx and every x node are
        x1 = float(self.x0) + float(self.hx) * (self.nx - 1)
        y1 = float(self.y0) + float(self.hy) * (self.ny - 1)
        if not (math.isfinite(x1) and math.isfinite(y1)):
            raise TranslabError(f"grid nodes must be finite, got x0 = {self.x0}, "
                                f"hx = {self.hx}, y0 = {self.y0}, hy = {self.hy}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.nx, self.ny):
            raise TranslabError(
                f"values shape {self.values.shape} != ({self.nx}, {self.ny})")
        if not np.all(np.isfinite(self.values)):
            raise TranslabError("grid values must be finite")

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.hx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.hy * np.arange(self.ny)

    def meshgrid(self):
        """(X, Y) node coordinate arrays, shape (nx, ny)."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")
