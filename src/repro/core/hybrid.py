"""Hybrid analytical/table-look-up reliability evaluation (Sec. IV-E).

Designers re-evaluate the same design under many setup/application
profiles; each profile changes only the per-block ``(alpha_j, b_j)``. Since
the eq. (28) double integral of block ``j`` depends on time, temperature
and voltage solely through ``ln(t/alpha_j)`` and ``b_j``, a per-block 2-D
table over those two indices is computed once per design and thereafter
any profile is evaluated by bilinear interpolation — the 0.02 s "hybrid"
rows of Table III. All blocks share the same index axes (footnote 5); the
entries differ through ``A_j`` and each block's BLOD marginals.
"""

from __future__ import annotations

import numpy as np

from repro.core.ensemble import BlockReliability
from repro.errors import ConfigurationError
from repro.kernels.artifacts import memoize_artifact
from repro.kernels.survival import batched_rule_expectations, pad_rule_tables
from repro.obs import metrics
from repro.obs.trace import is_enabled, span
from repro.stats.integration import midpoint_rule


class HybridAnalyzer:
    """Pre-tabulated per-block expectations with bilinear interpolation.

    Parameters
    ----------
    blocks:
        Per-block BLOD + *nominal* Weibull parameters (used only to centre
        the default table ranges; queries may pass any other profile).
    n_alpha, n_b:
        Table resolution along ``ln(t/alpha)`` and ``b`` (paper: 100x100).
    log_t_ratio_range:
        Index range for ``ln(t/alpha)``; the default [-40, -1] covers
        lifetimes from ~1e-18 alpha to 0.37 alpha, far beyond any ppm
        target of interest.
    b_range:
        Index range for the slope coefficient; defaults to +/-30 % around
        the blocks' nominal values (covering any realistic temperature
        profile of the same process).
    l0, tail:
        Integration rule parameters (same midpoint rule as st_fast).
    include_residual_fluctuation:
        See :class:`repro.core.ensemble.StFastAnalyzer`.
    """

    def __init__(
        self,
        blocks: list[BlockReliability],
        n_alpha: int = 100,
        n_b: int = 100,
        log_t_ratio_range: tuple[float, float] | None = None,
        b_range: tuple[float, float] | None = None,
        l0: int = 10,
        tail: float = 1e-6,
        include_residual_fluctuation: bool = True,
    ) -> None:
        if not blocks:
            raise ConfigurationError("need at least one block")
        if n_alpha < 2 or n_b < 2:
            raise ConfigurationError("table needs at least 2 indices per axis")
        self.blocks = list(blocks)
        if log_t_ratio_range is None:
            log_t_ratio_range = (-40.0, -1.0)
        if b_range is None:
            bs = np.array([block.b for block in blocks])
            b_range = (0.7 * bs.min(), 1.3 * bs.max())
        lo, hi = log_t_ratio_range
        if not lo < hi:
            raise ConfigurationError("log_t_ratio_range must be increasing")
        b_lo, b_hi = b_range
        if not 0.0 < b_lo < b_hi:
            raise ConfigurationError("b_range must be positive and increasing")
        self.log_t_axis = np.linspace(lo, hi, n_alpha)
        self.b_axis = np.linspace(b_lo, b_hi, n_b)
        self.tables = np.empty((len(blocks), n_alpha, n_b))
        with span(
            "hybrid.build_table",
            blocks=len(blocks),
            n_alpha=n_alpha,
            n_b=n_b,
        ):
            # The batched build is memoized across processes: the tables
            # depend only on the blocks' BLODs, the index axes and the rule
            # knobs — all of which the payload captures exactly.
            arrays = memoize_artifact(
                "hybrid_tables",
                {
                    "u_nominal": [b.blod.u_nominal for b in self.blocks],
                    "u_sensitivities": [
                        b.blod.u_sensitivities for b in self.blocks
                    ],
                    "v_matrix": [b.blod.v_matrix for b in self.blocks],
                    "v_deterministic": [
                        b.blod.v_deterministic for b in self.blocks
                    ],
                    "sigma_independent": [
                        b.blod.sigma_independent for b in self.blocks
                    ],
                    "n_devices": [b.blod.n_devices for b in self.blocks],
                    "areas": [b.blod.area for b in self.blocks],
                    "log_t_axis": self.log_t_axis,
                    "b_axis": self.b_axis,
                    "l0": l0,
                    "tail": tail,
                    "include_residual_fluctuation": (
                        include_residual_fluctuation
                    ),
                },
                lambda: {
                    "tables": self._build_tables_batched(
                        l0, tail, include_residual_fluctuation
                    )
                },
                required=("tables",),
            )
            tables = np.asarray(arrays["tables"])
            if tables.shape != self.tables.shape:
                tables = self._build_tables_batched(
                    l0, tail, include_residual_fluctuation
                )
            self.tables[:] = tables
            metrics.inc("hybrid.table_entries", len(blocks) * n_alpha * n_b)

    def _build_tables_batched(
        self,
        l0: int,
        tail: float,
        include_residual_fluctuation: bool,
    ) -> np.ndarray:
        """Build every block's table in one fused pass.

        All blocks share the index axes (footnote 5), so the
        ``ln(t/alpha) * b`` grid is computed once and broadcast across
        blocks, and the per-block tensor-rule loop collapses into the
        fused kernel of :func:`repro.kernels.survival
        .batched_rule_expectations` over the flattened ``(A * B,)`` index
        grid with padded per-block node tables.

        The tables store the *log* of the block failure probability:
        failure varies as ``exp(beta_chip * ln(t/alpha))`` across the axis,
        so bilinear interpolation in log space is near-exact while raw
        bilinear interpolation would overestimate by the chord-vs-curve gap
        of an exponential (~10-20 % at 100x100 resolution).
        """
        u_rules = []
        v_rules = []
        for block in self.blocks:
            u_rules.append(
                midpoint_rule(block.blod.u_dist(), n_points=l0, tail=tail)
            )
            v_rules.append(
                midpoint_rule(
                    block.blod.v_chi2_match(include_residual_fluctuation),
                    n_points=l0,
                    tail=tail,
                )
            )
        u_points, u_weights = pad_rule_tables(
            [r.points for r in u_rules], [r.weights for r in u_rules]
        )
        v_points, v_weights = pad_rule_tables(
            [r.points for r in v_rules], [r.weights for r in v_rules]
        )
        log_areas = np.log([block.blod.area for block in self.blocks])

        scaled = self.log_t_axis[:, None] * self.b_axis[None, :]
        flat = np.broadcast_to(
            scaled.reshape(1, -1), (len(self.blocks), scaled.size)
        )
        expectation = batched_rule_expectations(
            flat, log_areas, u_points, u_weights, v_points, v_weights
        )
        failure = np.clip(1.0 - expectation, 1e-300, None)
        return np.log(failure).reshape(self.tables.shape)

    def _interpolate_batched(
        self, log_t_ratios: np.ndarray, bs: np.ndarray
    ) -> np.ndarray:
        """All blocks' bilinear log-failure-table look-ups in one pass.

        A ``b`` outside its axis or a finite ``ln(t/alpha)`` beyond the
        right edge raises, because that means the tables were built for a
        different operating envelope; values below the left edge clamp to
        failure 0 (times far below any tabulated point have negligible
        failure).
        """
        outside = (bs < self.b_axis[0]) | (bs > self.b_axis[-1])
        if np.any(outside):
            b = float(bs[int(np.argmax(outside))])
            raise ConfigurationError(
                f"b = {b} outside the table range "
                f"[{self.b_axis[0]:.3f}, {self.b_axis[-1]:.3f}]"
            )
        finite = np.isfinite(log_t_ratios)
        clamped_low = log_t_ratios <= self.log_t_axis[0]
        if np.any(log_t_ratios[finite] > self.log_t_axis[-1]):
            raise ConfigurationError(
                "query time beyond the table's ln(t/alpha) range; rebuild "
                "the table with a wider log_t_ratio_range"
            )
        x = np.clip(log_t_ratios, self.log_t_axis[0], self.log_t_axis[-1])
        x = np.where(finite, x, self.log_t_axis[0])

        ix = np.clip(
            np.searchsorted(self.log_t_axis, x) - 1, 0, len(self.log_t_axis) - 2
        )
        tx = (x - self.log_t_axis[ix]) / (
            self.log_t_axis[ix + 1] - self.log_t_axis[ix]
        )
        iy = np.clip(
            np.searchsorted(self.b_axis, bs) - 1, 0, len(self.b_axis) - 2
        )
        ty = ((bs - self.b_axis[iy]) / (self.b_axis[iy + 1] - self.b_axis[iy]))[
            :, None
        ]
        rows = np.arange(len(self.blocks))[:, None]
        iy = iy[:, None]

        f00 = self.tables[rows, ix, iy]
        f10 = self.tables[rows, ix + 1, iy]
        f01 = self.tables[rows, ix, iy + 1]
        f11 = self.tables[rows, ix + 1, iy + 1]
        log_value = (
            f00 * (1.0 - tx) * (1.0 - ty)
            + f10 * tx * (1.0 - ty)
            + f01 * (1.0 - tx) * ty
            + f11 * tx * ty
        )
        missed = clamped_low | ~finite
        if is_enabled():
            n_miss = int(np.count_nonzero(missed))
            metrics.inc("hybrid.lut_hits", int(np.size(missed)) - n_miss)
            metrics.inc("hybrid.lut_misses", n_miss)
        return np.where(missed, 0.0, np.exp(log_value))

    def block_failure_probabilities(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(n_blocks, n_times)`` interpolated block failure probabilities.

        ``alphas``/``bs`` override the per-block Weibull parameters —
        the table-reuse path for a different setup/application profile.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < 0.0):
            raise ConfigurationError("times must be non-negative")
        if alphas is None:
            alphas = np.array([block.alpha for block in self.blocks])
        else:
            alphas = np.asarray(alphas, dtype=float)
        if bs is None:
            bs = np.array([block.b for block in self.blocks])
        else:
            bs = np.asarray(bs, dtype=float)
        if alphas.shape != (len(self.blocks),) or bs.shape != (len(self.blocks),):
            raise ConfigurationError("need one (alpha, b) pair per block")
        with np.errstate(divide="ignore"):
            log_t_ratios = np.where(
                times[None, :] > 0.0,
                np.log(times[None, :] / alphas[:, None]),
                -np.inf,
            )
        return self._interpolate_batched(log_t_ratios, bs)

    def reliability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
        clip: bool = True,
    ) -> np.ndarray:
        """Ensemble chip reliability via table look-up (eq. (18) combine)."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        failures = self.block_failure_probabilities(times_arr, alphas, bs)
        value = 1.0 - failures.sum(axis=0)
        if clip:
            value = np.clip(value, 0.0, 1.0)
        return float(value[0]) if scalar else value

    def failure_probability(
        self,
        times: np.ndarray | float,
        alphas: np.ndarray | None = None,
        bs: np.ndarray | None = None,
    ) -> np.ndarray:
        """``1 - R_c(t)`` via table look-up."""
        times_arr = np.asarray(times, dtype=float)
        scalar = times_arr.ndim == 0
        value = 1.0 - np.atleast_1d(self.reliability(times_arr, alphas, bs))
        return float(value[0]) if scalar else value
