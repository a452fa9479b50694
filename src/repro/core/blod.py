"""Block-level oxide-thickness distribution (BLOD) characterisation.

The central projection of the paper (Sec. IV): the millions of correlated
per-device thickness variables of a block collapse into just two random
variables over the chip ensemble —

- the BLOD sample mean ``u_j`` (eq. (22)): a Gaussian, being a linear
  combination of the principal components,
- the BLOD sample variance ``v_j`` (eq. (24)): a shifted quadratic normal
  form, approximated by a scaled chi-square (eq. (29)-(30)).

Derivation used here (matching eq. (22)/(24) with the grid-based canonical
model): let device ``i`` of block ``j`` sit in grid ``g_i`` with
sensitivity row ``s_{g_i}``; then

    u_j = mean_i(lambda_{g_i,0}) + mean_i(s_{g_i}) . z + (lambda_r/sqrt(m_j)) eps_bar
    v_j = lambda_r^2 * W + z' C_j z,   W = chi2(m_j - 1)/(m_j - 1)

with ``C_j = m_j/(m_j-1) * sum_g f_g (s_g - s_bar)(s_g - s_bar)'`` (``f_g``
the device fraction of the block in grid ``g``), dropping the O(1/sqrt(m))
cross terms. The residual sampling factor ``W`` concentrates at 1 for large
blocks; the paper keeps only its mean ``lambda_r^2`` (its ``v_{j,0}``), and
this module optionally folds its fluctuation into the chi-square moment
matching (exact for single-grid blocks, where the spatial part vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chip.floorplan import Floorplan
from repro.chip.geometry import GridSpec
from repro.errors import ConfigurationError
from repro.kernels.artifacts import (
    load_artifact,
    memoize_artifact,
    store_artifact,
)
from repro.obs import metrics
from repro.obs.trace import span
from repro.stats.integration import NormalDist, PointMass
from repro.stats.quadform import Chi2Match, QuadraticForm
from repro.variation.pca import CanonicalThicknessModel
from repro.variation.sampling import BlockGridAssignment, assign_devices_to_grid


@dataclass(frozen=True)
class BlodModel:
    """The two-random-variable summary of one block's oxide thicknesses.

    Attributes
    ----------
    name:
        Block name.
    area:
        Total normalized oxide area ``A_j``.
    n_devices:
        Device count ``m_j``.
    u_nominal:
        Nominal BLOD mean ``u_{j,0}`` (device-fraction-weighted grid
        nominal).
    u_sensitivities:
        ``(n_factors,)`` sensitivities of ``u_j`` to the factors.
    sigma_independent:
        The model's residual sigma ``lambda_r``.
    v_matrix:
        ``(n_factors, n_factors)`` quadratic-form matrix ``C_j`` of
        ``v_j``.
    v_deterministic:
        Chip-independent contribution to the BLOD variance caused by
        *deterministic* thickness-mean differences between the grids a
        block spans (nonzero only with a wafer-level systematic pattern).
    """

    name: str
    area: float
    n_devices: int
    u_nominal: float
    u_sensitivities: np.ndarray
    sigma_independent: float
    v_matrix: np.ndarray
    v_deterministic: float = 0.0

    def __post_init__(self) -> None:
        u_sens = np.asarray(self.u_sensitivities, dtype=float)
        v_matrix = np.asarray(self.v_matrix, dtype=float)
        if u_sens.ndim != 1:
            raise ConfigurationError("u_sensitivities must be 1-D")
        if v_matrix.shape != (u_sens.size, u_sens.size):
            raise ConfigurationError(
                "v_matrix must be square with the factor dimension"
            )
        if self.n_devices < 2:
            raise ConfigurationError(
                f"block {self.name!r} needs >= 2 devices for a sample variance"
            )
        if self.area <= 0.0:
            raise ConfigurationError(f"block {self.name!r} area must be positive")
        object.__setattr__(self, "u_sensitivities", u_sens)
        object.__setattr__(self, "v_matrix", 0.5 * (v_matrix + v_matrix.T))

    @property
    def n_factors(self) -> int:
        """Number of canonical factors."""
        return self.u_sensitivities.size

    @property
    def u_sigma(self) -> float:
        """Standard deviation of the BLOD mean ``u_j``.

        Includes the vanishing ``lambda_r / sqrt(m_j)`` residual term the
        paper notes "can be safely neglected for a typical industrial
        chip"; keeping it costs nothing and is exact.
        """
        factor_var = float(self.u_sensitivities @ self.u_sensitivities)
        residual_var = self.sigma_independent**2 / self.n_devices
        return float(np.sqrt(factor_var + residual_var))

    @property
    def v_offset(self) -> float:
        """The paper's ``v_{j,0} = lambda_r^2`` (plus any deterministic
        within-block spread from a wafer-level systematic pattern)."""
        return self.sigma_independent**2 + self.v_deterministic

    def u_dist(self) -> NormalDist:
        """Marginal distribution of the BLOD mean (exactly normal)."""
        return NormalDist(mean=self.u_nominal, sigma=self.u_sigma)

    def v_quadratic_form(self) -> QuadraticForm:
        """``v_j`` as a shifted quadratic form (spatial part only).

        This is the paper's representation: offset ``lambda_r^2`` plus the
        quadratic form ``z' C_j z``; the residual sampling fluctuation is
        not in the matrix (see :meth:`v_chi2_match`).
        """
        return QuadraticForm(offset=self.v_offset, matrix=self.v_matrix)

    def v_traces(self, include_residual_fluctuation: bool = True) -> tuple[float, float]:
        """``(tr, tr_sq)`` of the full mixture defining ``v_j - 0``.

        The eigenvalue mixture of ``v_j`` is ``eig(C_j)`` plus, when the
        residual sampling fluctuation is kept, ``m_j - 1`` copies of
        ``lambda_r^2 / (m_j - 1)``. Traces are available in closed form.
        """
        trace = float(np.trace(self.v_matrix))
        trace_sq = float(np.sum(self.v_matrix * self.v_matrix))
        if include_residual_fluctuation:
            trace += self.sigma_independent**2
            trace_sq += self.sigma_independent**4 / (self.n_devices - 1)
        return trace, trace_sq

    def v_chi2_match(
        self, include_residual_fluctuation: bool = True
    ) -> Chi2Match | PointMass:
        """Chi-square surrogate for the BLOD variance (eq. (29)-(30)).

        With ``include_residual_fluctuation=False`` this is exactly the
        paper's match: offset ``lambda_r^2`` plus the moment-matched
        quadratic part. With the flag on (default) the chi-square
        additionally absorbs the ``chi2(m_j-1)`` residual-sampling term,
        which makes the match exact for single-grid blocks and removes the
        degenerate point-mass corner case for them.
        """
        if include_residual_fluctuation:
            trace, trace_sq = self.v_traces(include_residual_fluctuation=True)
            if trace <= 0.0 or trace_sq <= 0.0:
                return PointMass(self.v_offset)
            scale = trace_sq / trace
            dof = trace**2 / trace_sq
            return Chi2Match(offset=self.v_deterministic, scale=scale, dof=dof)
        trace, trace_sq = self.v_traces(include_residual_fluctuation=False)
        if trace <= 0.0 or trace_sq <= 0.0:
            return PointMass(self.v_offset)
        scale = trace_sq / trace
        dof = trace**2 / trace_sq
        return Chi2Match(offset=self.v_offset, scale=scale, dof=dof)

    def v_mean(self) -> float:
        """``E[v_j] = lambda_r^2 + tr(C_j)``."""
        return self.v_offset + float(np.trace(self.v_matrix))

    def u_samples(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``u_j`` on factor draws ``z`` (see :class:`BlodSampling`)."""
        return self.sampling().u_samples(z)

    def v_samples(
        self,
        z: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Evaluate ``v_j`` on factor draws ``z`` (see :class:`BlodSampling`)."""
        return self.sampling().v_samples(z, rng=rng)

    def sampling(self) -> BlodSampling:
        """The cached sampling record of this block.

        Resolves the nonzero eigenpairs of ``C_j`` once (frozen dataclass:
        the cache is installed with ``object.__setattr__``).  The
        in-process cache is backed by a cross-process artifact entry keyed
        on ``C_j`` itself, so a service worker pays the dense ``eigh`` at
        most once per distinct block matrix; the stored low-rank pair
        round-trips bit-exactly.
        """
        cached = getattr(self, "_sampling_cache", None)
        if cached is None:
            payload = {"v_matrix": self.v_matrix}
            stored = load_artifact("v_eigensystem", payload)
            if (
                stored is not None
                and "eigvals" in stored
                and "eigvecs" in stored
            ):
                eigvals, eigvecs = stored["eigvals"], stored["eigvecs"]
            else:
                eigvals, eigvecs = np.linalg.eigh(self.v_matrix)
                scale = max(float(np.abs(eigvals).max(initial=0.0)), 1e-300)
                keep = np.abs(eigvals) > 1e-12 * scale
                eigvals, eigvecs = eigvals[keep], eigvecs[:, keep]
                store_artifact(
                    "v_eigensystem",
                    payload,
                    {"eigvals": eigvals, "eigvecs": eigvecs},
                )
            cached = BlodSampling(
                u_nominal=self.u_nominal,
                u_sensitivities=self.u_sensitivities,
                eigvals=eigvals,
                eigvecs=eigvecs,
                lambda_r_sq=self.sigma_independent**2,
                n_devices=self.n_devices,
                v_deterministic=self.v_deterministic,
            )
            object.__setattr__(self, "_sampling_cache", cached)
        return cached


@dataclass(frozen=True)
class BlodSampling:
    """What sampling ``(u_j, v_j)`` on factor draws reads of one block.

    The dense ``C_j`` is replaced by its nonzero eigenpairs: a block
    spanning ``r`` grid cells has rank <= r, far below the factor
    dimension, so the quadratic form costs O(n_samples * k * r) instead
    of O(n_samples * k^2) — and the record is small enough to ship to a
    process-pool worker with every st_mc shard task.
    """

    u_nominal: float
    u_sensitivities: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    lambda_r_sq: float
    n_devices: int
    v_deterministic: float

    def u_samples(self, z: np.ndarray) -> np.ndarray:
        """Evaluate ``u_j`` on factor draws ``z`` of shape ``(n, k)``.

        Deterministic given ``z`` (the negligible residual-mean term is
        dropped here, matching eq. (22) usage in st_mc).
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self.u_nominal + z @ self.u_sensitivities

    def v_samples(
        self,
        z: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Evaluate ``v_j`` on factor draws ``z`` of shape ``(n, k)``.

        With an ``rng`` the residual sampling factor ``W`` is drawn
        exactly; without one it is fixed at its mean (the paper's usage).
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if self.eigvals.size:
            projections = z @ self.eigvecs
            quadratic = (projections**2) @ self.eigvals
        else:
            quadratic = np.zeros(z.shape[0])
        if rng is None:
            residual = np.full(z.shape[0], self.lambda_r_sq)
        else:
            dof = self.n_devices - 1
            residual = (
                self.lambda_r_sq * rng.chisquare(dof, size=z.shape[0]) / dof
            )
        return self.v_deterministic + residual + quadratic


def characterize_blods(
    floorplan: Floorplan,
    grid: GridSpec,
    model: CanonicalThicknessModel,
    assignments: list[BlockGridAssignment] | None = None,
) -> list[BlodModel]:
    """Characterise every block's BLOD from the canonical thickness model.

    This is step 1 of the overall algorithm (Fig. 9): closed-form
    evaluation of the eq. (22) sensitivities and the eq. (24) quadratic
    form for each block.
    """
    if model.n_grids != grid.n_cells:
        raise ConfigurationError(
            f"model has {model.n_grids} grids but grid has {grid.n_cells} cells"
        )
    if assignments is None:
        assignments = assign_devices_to_grid(floorplan, grid)
    if len(assignments) != floorplan.n_blocks:
        raise ConfigurationError("one grid assignment per block is required")

    with span(
        "blod.characterize",
        blocks=floorplan.n_blocks,
        factors=model.n_factors,
    ):
        # The counter lives here (not in the compute path) so it counts
        # characterised blocks whether they came from the artifact cache
        # or from a fresh closed-form evaluation.
        metrics.inc("blod.blocks", floorplan.n_blocks)
        arrays = memoize_artifact(
            "blod_characterization",
            {
                "names": [block.name for block in floorplan.blocks],
                "areas": [block.total_oxide_area for block in floorplan.blocks],
                "n_devices": [block.n_devices for block in floorplan.blocks],
                "grid_indices": [a.grid_indices for a in assignments],
                "fractions": [a.fractions for a in assignments],
                "grid_means": model.grid_means,
                "sensitivities": model.sensitivities,
                "sigma_independent": model.sigma_independent,
            },
            lambda: _stack_blods(
                _characterize(floorplan, model, assignments)
            ),
            required=(
                "names",
                "areas",
                "n_devices",
                "u_nominal",
                "u_sensitivities",
                "v_matrix",
                "v_deterministic",
            ),
        )
        return _blods_from_arrays(arrays, model.sigma_independent)


def _stack_blods(blods: list[BlodModel]) -> dict[str, np.ndarray]:
    """Flatten a characterisation into one array bundle for the cache."""
    return {
        "names": np.array([blod.name for blod in blods]),
        "areas": np.array([blod.area for blod in blods], dtype=np.float64),
        "n_devices": np.array(
            [blod.n_devices for blod in blods], dtype=np.int64
        ),
        "u_nominal": np.array(
            [blod.u_nominal for blod in blods], dtype=np.float64
        ),
        "u_sensitivities": np.stack(
            [blod.u_sensitivities for blod in blods]
        ),
        "v_matrix": np.stack([blod.v_matrix for blod in blods]),
        "v_deterministic": np.array(
            [blod.v_deterministic for blod in blods], dtype=np.float64
        ),
    }


def _blods_from_arrays(
    arrays: dict[str, np.ndarray], sigma_independent: float
) -> list[BlodModel]:
    """Rebuild the model list from a (possibly cached) array bundle.

    ``BlodModel.__post_init__`` re-symmetrises ``v_matrix``; on an
    already-symmetric stored matrix ``0.5 * (M + M.T)`` is bitwise
    idempotent, so cache hits reproduce the computed models exactly.
    """
    return [
        BlodModel(
            name=str(arrays["names"][j]),
            area=float(arrays["areas"][j]),
            n_devices=int(arrays["n_devices"][j]),
            u_nominal=float(arrays["u_nominal"][j]),
            u_sensitivities=arrays["u_sensitivities"][j],
            sigma_independent=sigma_independent,
            v_matrix=arrays["v_matrix"][j],
            v_deterministic=float(arrays["v_deterministic"][j]),
        )
        for j in range(arrays["names"].shape[0])
    ]


def _characterize(
    floorplan: Floorplan,
    model: CanonicalThicknessModel,
    assignments: list[BlockGridAssignment],
) -> list[BlodModel]:
    blods: list[BlodModel] = []
    for block, assignment in zip(floorplan.blocks, assignments, strict=True):
        fractions = assignment.fractions
        grid_idx = assignment.grid_indices
        sens = model.sensitivities[grid_idx, :]
        means = model.grid_means[grid_idx]

        u_nominal = float(fractions @ means)
        u_sens = fractions @ sens

        deviations = sens - u_sens
        m = block.n_devices
        weighted = deviations * fractions[:, None]
        v_matrix = (m / (m - 1)) * (deviations.T @ weighted)
        # Grid-mean differences within a block (wafer systematic pattern)
        # contribute a chip-independent spread to the sample variance.
        mean_dev = means - u_nominal
        deterministic_spread = (m / (m - 1)) * float(fractions @ mean_dev**2)

        blod = BlodModel(
            name=block.name,
            area=block.total_oxide_area,
            n_devices=m,
            u_nominal=u_nominal,
            u_sensitivities=u_sens,
            sigma_independent=model.sigma_independent,
            v_matrix=v_matrix,
            v_deterministic=deterministic_spread,
        )
        blods.append(blod)
    return blods
