"""Loop-per-element reference implementations of the production kernels.

Each function here is the plain, one-element-at-a-time form of a
vectorised kernel the pipeline runs.  They are test and benchmark
oracles, never a runtime branch: only ``tests/``, ``benchmarks/`` and
:mod:`repro.kernels.bench` import this module.  The equivalence tests
hold every production kernel to its oracle here:

==========================================  ==========================================
oracle                                      production kernel
==========================================  ==========================================
:func:`build_conductance_matrix`            ``repro.thermal.solver._build_conductance_matrix``
:func:`overlap_fractions`                   ``GridSpec.overlap_fractions``
:func:`block_failure_probabilities`         ``_EnsembleAnalyzerBase.block_failure_probabilities``
:func:`hybrid_block_table`                  ``HybridAnalyzer._build_tables_batched``
:func:`hybrid_block_failure_probabilities`  ``HybridAnalyzer.block_failure_probabilities``
==========================================  ==========================================

The adaptive Imhof inversion is not here: it stays in production
(``QuadraticForm._imhof_sf_adaptive``) because it is the only path for
spectra the batched rule cannot bound, and the tests use it directly as
the oracle for the batched inversion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.closed_form import _EXP_MAX, _EXP_MIN
from repro.errors import ConfigurationError
from repro.stats.integration import midpoint_rule

if TYPE_CHECKING:
    from repro.chip.geometry import GridSpec, Rect
    from repro.core.ensemble import BlockReliability, _EnsembleAnalyzerBase
    from repro.core.hybrid import HybridAnalyzer
    from repro.thermal.grid import PackageModel

__all__ = [
    "block_failure_probabilities",
    "build_conductance_matrix",
    "hybrid_block_failure_probabilities",
    "hybrid_block_table",
    "overlap_fractions",
]


def build_conductance_matrix(grid: GridSpec, package: PackageModel) -> csr_matrix:
    """Per-cell-loop assembly of the thermal conductance matrix."""
    g_x, g_y = package.lateral_conductance(grid)
    g_v = package.vertical_conductance(grid)
    nx, ny = grid.nx, grid.ny
    n = grid.n_cells

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    diag = np.full(n, g_v)

    def couple(i: int, j: int, g: float) -> None:
        rows.extend((i, j))
        cols.extend((j, i))
        vals.extend((-g, -g))
        diag[i] += g
        diag[j] += g

    for row in range(ny):
        for col in range(nx):
            index = row * nx + col
            if col + 1 < nx:
                couple(index, index + 1, g_x)
            if row + 1 < ny:
                couple(index, index + nx, g_y)

    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def overlap_fractions(grid: GridSpec, rect: Rect) -> np.ndarray:
    """Loop-per-cell :meth:`GridSpec.overlap_fractions` (bit-identical)."""
    fractions = np.zeros(grid.n_cells)
    col_lo = max(int(rect.x / grid.cell_width), 0)
    col_hi = min(int(np.ceil(rect.x2 / grid.cell_width)), grid.nx)
    row_lo = max(int(rect.y / grid.cell_height), 0)
    row_hi = min(int(np.ceil(rect.y2 / grid.cell_height)), grid.ny)
    for row in range(row_lo, row_hi):
        for col in range(col_lo, col_hi):
            index = row * grid.nx + col
            overlap = grid.cell_rect(index).overlap_area(rect)
            if overlap > 0.0:
                fractions[index] = overlap / rect.area
    return fractions


def block_failure_probabilities(
    analyzer: _EnsembleAnalyzerBase, times: np.ndarray | float
) -> np.ndarray:
    """``(n_blocks, n_times)`` failure probabilities, one block at a time.

    Loops the analyzer's public per-block ``block_expectation`` instead
    of its fused all-blocks kernel.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((len(analyzer.blocks), times.size))
    for j in range(len(analyzer.blocks)):
        out[j] = 1.0 - analyzer.block_expectation(j, times)
    return out


def hybrid_block_table(
    hybrid: HybridAnalyzer,
    block: BlockReliability,
    l0: int = 10,
    tail: float = 1e-6,
    include_residual_fluctuation: bool = True,
) -> np.ndarray:
    """One block's log-failure table over ``hybrid``'s index axes.

    The per-block tensor-rule form of the fused table build: tabulates
    ``log(1 - E[exp(-A_j g)])`` over the ``(ln(t/alpha), b)`` grid.
    """
    u_rule = midpoint_rule(block.blod.u_dist(), n_points=l0, tail=tail)
    v_rule = midpoint_rule(
        block.blod.v_chi2_match(include_residual_fluctuation),
        n_points=l0,
        tail=tail,
    )
    scaled = (
        hybrid.log_t_axis[:, None, None, None] * hybrid.b_axis[None, :, None, None]
    )
    log_g = (
        scaled * u_rule.points[None, None, :, None]
        + 0.5 * scaled**2 * v_rule.points[None, None, None, :]
    )
    exponent = np.clip(np.log(block.blod.area) + log_g, _EXP_MIN, _EXP_MAX)
    survival = np.exp(-np.exp(exponent))
    expectation = np.einsum(
        "abpq,p,q->ab", survival, u_rule.weights, v_rule.weights
    )
    failure = np.clip(1.0 - expectation, 1e-300, None)
    return np.log(failure)


def _interpolate(
    hybrid: HybridAnalyzer, table: np.ndarray, log_t_ratio: np.ndarray, b: float
) -> np.ndarray:
    """Bilinear look-up of one block's log-failure table."""
    log_t_axis, b_axis = hybrid.log_t_axis, hybrid.b_axis
    if not b_axis[0] <= b <= b_axis[-1]:
        raise ConfigurationError(
            f"b = {b} outside the table range "
            f"[{b_axis[0]:.3f}, {b_axis[-1]:.3f}]"
        )
    finite = np.isfinite(log_t_ratio)
    clamped_low = log_t_ratio <= log_t_axis[0]
    if np.any(log_t_ratio[finite] > log_t_axis[-1]):
        raise ConfigurationError(
            "query time beyond the table's ln(t/alpha) range; rebuild "
            "the table with a wider log_t_ratio_range"
        )
    x = np.clip(log_t_ratio, log_t_axis[0], log_t_axis[-1])
    x = np.where(finite, x, log_t_axis[0])

    ix = np.clip(np.searchsorted(log_t_axis, x) - 1, 0, len(log_t_axis) - 2)
    tx = (x - log_t_axis[ix]) / (log_t_axis[ix + 1] - log_t_axis[ix])
    iy = int(np.clip(np.searchsorted(b_axis, b) - 1, 0, len(b_axis) - 2))
    ty = (b - b_axis[iy]) / (b_axis[iy + 1] - b_axis[iy])

    log_value = (
        table[ix, iy] * (1.0 - tx) * (1.0 - ty)
        + table[ix + 1, iy] * tx * (1.0 - ty)
        + table[ix, iy + 1] * (1.0 - tx) * ty
        + table[ix + 1, iy + 1] * tx * ty
    )
    return np.where(clamped_low | ~finite, 0.0, np.exp(log_value))


def hybrid_block_failure_probabilities(
    hybrid: HybridAnalyzer,
    times: np.ndarray | float,
    alphas: np.ndarray | None = None,
    bs: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block bilinear look-ups of :meth:`HybridAnalyzer.block_failure_probabilities`."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if alphas is None:
        alphas = np.array([block.alpha for block in hybrid.blocks])
    if bs is None:
        bs = np.array([block.b for block in hybrid.blocks])
    out = np.empty((len(hybrid.blocks), times.size))
    with np.errstate(divide="ignore"):
        for j in range(len(hybrid.blocks)):
            log_t_ratio = np.where(times > 0.0, np.log(times / alphas[j]), -np.inf)
            out[j] = _interpolate(hybrid, hybrid.tables[j], log_t_ratio, float(bs[j]))
    return out
