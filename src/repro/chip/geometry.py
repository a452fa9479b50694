"""Planar geometry primitives: rectangles and regular grids.

These are the shared geometric vocabulary of the library: floorplan blocks
are rectangles, the spatial-correlation model partitions the die into a
regular grid of cells (Fig. 2 of the paper), and the thermal solver meshes
the die with another regular grid. Overlap-area computations link the three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, FloorplanError


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle: origin ``(x, y)`` plus width and height.

    Dimensions are in millimetres by convention but the class is unit
    agnostic. Width and height must be strictly positive.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if not (self.width > 0.0 and self.height > 0.0):
            raise FloorplanError(
                f"rectangle must have positive size, got {self.width} x {self.height}"
            )

    @property
    def x2(self) -> float:
        """Right edge coordinate."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge coordinate."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Centre point ``(cx, cy)``."""
        return (self.x + 0.5 * self.width, self.y + 0.5 * self.height)

    def contains_point(self, px: float, py: float) -> bool:
        """Return True if ``(px, py)`` lies inside or on the boundary."""
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def contains_rect(self, other: "Rect", tol: float = 1e-9) -> bool:
        """Return True if ``other`` is entirely inside this rectangle."""
        return (
            other.x >= self.x - tol
            and other.y >= self.y - tol
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection of this rectangle with ``other``.

        Returns 0.0 when the rectangles do not overlap (touching edges
        count as zero overlap).
        """
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def intersection(self, other: "Rect") -> "Rect | None":
        """The intersection rectangle, or None when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 - x1 <= 0.0 or y2 - y1 <= 0.0:
            return None
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def split_horizontal(self, fraction: float) -> tuple["Rect", "Rect"]:
        """Split into a left/right pair at ``fraction`` of the width."""
        _check_fraction(fraction)
        w_left = self.width * fraction
        left = Rect(self.x, self.y, w_left, self.height)
        right = Rect(self.x + w_left, self.y, self.width - w_left, self.height)
        return left, right

    def split_vertical(self, fraction: float) -> tuple["Rect", "Rect"]:
        """Split into a bottom/top pair at ``fraction`` of the height."""
        _check_fraction(fraction)
        h_bottom = self.height * fraction
        bottom = Rect(self.x, self.y, self.width, h_bottom)
        top = Rect(self.x, self.y + h_bottom, self.width, self.height - h_bottom)
        return bottom, top

    def distance_to(self, other: "Rect") -> float:
        """Euclidean distance between the two rectangle centres."""
        cx1, cy1 = self.center
        cx2, cy2 = other.center
        return float(np.hypot(cx2 - cx1, cy2 - cy1))


def _check_fraction(fraction: float) -> None:
    if not 0.0 < fraction < 1.0:
        raise FloorplanError(f"split fraction must be in (0, 1), got {fraction}")


@dataclass(frozen=True)
class GridSpec:
    """A regular ``nx`` x ``ny`` partition of a ``width`` x ``height`` die.

    Cells are indexed in row-major order: cell ``k`` sits at column
    ``k % nx`` and row ``k // nx``, with the origin cell in the lower-left
    corner of the die. This is the "grid" of the spatial-correlation model
    of eq. (2); it is in general different from the temperature-uniform
    "blocks" of the floorplan (footnote 2 of the paper).
    """

    nx: int
    ny: int
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise FloorplanError(f"grid must be at least 1x1, got {self.nx}x{self.ny}")
        if not (self.width > 0.0 and self.height > 0.0):
            raise FloorplanError(
                f"grid extent must be positive, got {self.width} x {self.height}"
            )

    @property
    def n_cells(self) -> int:
        """Total number of grid cells."""
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        """Width of a single cell."""
        return self.width / self.nx

    @property
    def cell_height(self) -> float:
        """Height of a single cell."""
        return self.height / self.ny

    @property
    def diagonal(self) -> float:
        """Die diagonal, the natural normalisation for correlation length."""
        return float(np.hypot(self.width, self.height))

    def cell_rect(self, index: int) -> Rect:
        """The rectangle covered by cell ``index`` (row-major)."""
        self._check_index(index)
        col = index % self.nx
        row = index // self.nx
        return Rect(
            col * self.cell_width,
            row * self.cell_height,
            self.cell_width,
            self.cell_height,
        )

    def cell_of_point(self, px: float, py: float) -> int:
        """Index of the cell containing point ``(px, py)``.

        Points on the die boundary are clamped into the outermost cells.
        """
        if not (0.0 <= px <= self.width and 0.0 <= py <= self.height):
            raise FloorplanError(
                f"point ({px}, {py}) outside die {self.width} x {self.height}"
            )
        col = min(int(px / self.cell_width), self.nx - 1)
        row = min(int(py / self.cell_height), self.ny - 1)
        return row * self.nx + col

    def cell_centers(self) -> np.ndarray:
        """``(n_cells, 2)`` array of cell centre coordinates, row-major."""
        xs = (np.arange(self.nx) + 0.5) * self.cell_width
        ys = (np.arange(self.ny) + 0.5) * self.cell_height
        grid_x, grid_y = np.meshgrid(xs, ys)
        return np.column_stack([grid_x.ravel(), grid_y.ravel()])

    def pairwise_center_distances(self) -> np.ndarray:
        """``(n_cells, n_cells)`` matrix of centre-to-centre distances."""
        centers = self.cell_centers()
        deltas = centers[:, None, :] - centers[None, :, :]
        return np.sqrt(np.sum(deltas**2, axis=-1))

    def overlap_fractions(self, rect: Rect) -> np.ndarray:
        """Fraction of ``rect``'s area falling in each grid cell.

        The result has one entry per cell (row-major) and sums to 1 when the
        rectangle is entirely on the die. Only the cells actually straddled
        by the rectangle are visited, so this is cheap even for fine grids.

        The per-axis clipped-interval evaluation performs the same float
        operations as :meth:`Rect.overlap_area` per straddled cell, so the
        result is bit-identical to the loop-per-cell oracle
        :func:`repro.kernels.reference.overlap_fractions`.
        """
        fractions = np.zeros(self.n_cells)
        col_lo = max(int(rect.x / self.cell_width), 0)
        col_hi = min(int(np.ceil(rect.x2 / self.cell_width)), self.nx)
        row_lo = max(int(rect.y / self.cell_height), 0)
        row_hi = min(int(np.ceil(rect.y2 / self.cell_height)), self.ny)
        if col_hi <= col_lo or row_hi <= row_lo:
            return fractions
        cell_x = np.arange(col_lo, col_hi) * self.cell_width
        cell_y = np.arange(row_lo, row_hi) * self.cell_height
        dx = np.minimum(cell_x + self.cell_width, rect.x2) - np.maximum(
            cell_x, rect.x
        )
        dy = np.minimum(cell_y + self.cell_height, rect.y2) - np.maximum(
            cell_y, rect.y
        )
        overlap = np.where(
            (dx[None, :] > 0.0) & (dy[:, None] > 0.0), dx[None, :] * dy[:, None], 0.0
        )
        window = fractions.reshape(self.ny, self.nx)[row_lo:row_hi, col_lo:col_hi]
        window[:] = overlap / rect.area
        return fractions

    def field_to_image(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat per-cell vector into an ``(ny, nx)`` image."""
        values = np.asarray(values)
        if values.shape != (self.n_cells,):
            raise ConfigurationError(
                f"expected {self.n_cells} cell values, got shape {values.shape}"
            )
        return values.reshape(self.ny, self.nx)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_cells:
            raise FloorplanError(
                f"cell index {index} out of range for {self.nx}x{self.ny} grid"
            )
