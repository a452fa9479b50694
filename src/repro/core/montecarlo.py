"""Monte-Carlo reference analyses over sample chips.

Two engines, both honouring the full variation model (shared inter-die +
spatial factors per chip, independent residual per device):

- :meth:`MonteCarloEngine.reliability_curve` — the paper's "1000 samples of
  MC" reference: draw sample chips, evaluate each chip's *conditional*
  reliability exactly from eq. (11) (every device's thickness enters the
  Weibull exponent), and average across chips. Resolves ppm-level targets
  because the conditional reliability is computed analytically.
- :meth:`MonteCarloEngine.failure_times` — the Fig. 10 reference: draw
  sample chips *and* every device's breakdown time, recording the chip's
  weakest-link failure time.

Device modes
------------
``exact``
    Per-device residual draws. Faithful but O(m) memory/time per chip —
    use for designs up to ~100K devices.
``binned`` (default)
    The residual standard normal is discretised into fine equal-width
    bins; per grid cell the device count per bin is drawn from the exact
    multinomial distribution. Because the devices of a cell are
    exchangeable, this is *distributionally identical* to per-device
    sampling up to the within-bin thickness quantisation (default 128 bins
    over +/-5 sigma, i.e. < 0.08 sigma quantisation — far below any other
    model error), while running orders of magnitude faster. The
    weakest-link property collapses each bin's minimum breakdown time to a
    single Weibull draw with the bin's aggregate area, keeping the
    failure-time engine exact under the same quantisation.

Execution
---------
Both engines run through :mod:`repro.exec`: chips are split into
fixed-size shards, each with its own ``SeedSequence.spawn`` child, and the
shard tasks are submitted to a serial/thread/process backend.  Per-shard
partial results are reduced in shard-index order, so for a given seed the
curves are **bit-identical** across backends, worker counts and
``chunk_size`` settings (``shard_size``, by contrast, is part of the
stream definition).  The per-chip math lives on :class:`ChipKernel`, the
only engine state a shard task ships to a worker.  Long runs can pass
``checkpoint_path`` to persist per-shard state atomically and resume
after a kill to the same curve.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np
from scipy.special import ndtr

from repro.core.ensemble import BlockReliability
from repro.errors import ConfigurationError, NumericalError
from repro.exec.backends import ExecBackend, resolve_backend
from repro.exec.checkpoint import Checkpoint
from repro.exec.runner import run_sharded
from repro.exec.sharding import (
    DEFAULT_SHARD_SIZE,
    Shard,
    plan_shards,
    resolve_seed_sequence,
)
from repro.obs import metrics
from repro.obs.logging import get_logger
from repro.obs.trace import span
from repro.variation.sampling import ChipSampler

if TYPE_CHECKING:
    SeedLike = int | np.random.SeedSequence | np.random.Generator

logger = get_logger("core.montecarlo")

#: Exponent clip bound for survival exponent sums.
_EXP_CLIP = 700.0


@dataclass(frozen=True)
class ResidualBinning:
    """Equal-width discretisation of the residual standard normal."""

    n_bins: int = 128
    z_max: float = 5.0

    def __post_init__(self) -> None:
        if self.n_bins < 8:
            raise ConfigurationError(f"need >= 8 bins, got {self.n_bins}")
        if self.z_max <= 0.0:
            raise ConfigurationError(f"z_max must be positive, got {self.z_max}")

    @property
    def centers(self) -> np.ndarray:
        """Bin-centre z-scores."""
        edges = np.linspace(-self.z_max, self.z_max, self.n_bins + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    @property
    def probabilities(self) -> np.ndarray:
        """Exact standard-normal bin probabilities (tails folded into the
        outermost bins so they sum to one)."""
        edges = np.linspace(-self.z_max, self.z_max, self.n_bins + 1)
        cdf = ndtr(edges)
        probs = np.diff(cdf)
        probs[0] += cdf[0]
        probs[-1] += 1.0 - cdf[-1]
        return probs


@dataclass(frozen=True)
class ReliabilityCurve:
    """An ensemble reliability curve estimated by Monte Carlo."""

    times: np.ndarray
    reliability: np.ndarray
    std_error: np.ndarray
    n_chips: int

    def failure_probability(self) -> np.ndarray:
        """``1 - R(t)`` along the curve."""
        return 1.0 - self.reliability


#: Per-block inputs of the chip kernel: ``(alpha, b, area, n_devices)``.
BlockWeibull = tuple[float, float, float, int]


@dataclass(frozen=True)
class ChipKernel:
    """The sample-chip math, holding only what a shard task reads.

    A shard task ships this kernel to its worker: the chip sampler plus
    each block's Weibull scale and slope, oxide area and device count —
    never the BLOD models (their dense ``C_j`` matrices) or the engine.
    """

    sampler: ChipSampler
    blocks: tuple[BlockWeibull, ...]
    binning: ResidualBinning
    device_mode: str

    def exponents(
        self, times: np.ndarray, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(n_chips, n_times)`` Weibull exponent sums for a chip batch."""
        if self.device_mode == "binned":
            return self._exponents_binned(times, n_chips, rng)
        return self._exponents_exact(times, n_chips, rng)

    def failure_times(
        self, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Weakest-link failure times for a chip batch."""
        if self.device_mode == "binned":
            return self._failure_times_binned(n_chips, rng)
        return self._failure_times_exact(n_chips, rng)

    def _exponents_binned(
        self, times: np.ndarray, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        z = self.sampler.sample_factors(n_chips, rng)
        bases = self.sampler.block_base_thickness(z)
        centers = self.binning.centers
        probs = self.binning.probabilities
        sigma_r = self.sampler.model.sigma_independent
        exponents = np.zeros((n_chips, times.size))
        with np.errstate(divide="ignore"):
            log_times = np.where(times > 0.0, np.log(times), -np.inf)
        for j, (alpha, b, area, n_devices) in enumerate(self.blocks):
            log_t_ratio = log_times - np.log(alpha)
            scaled = b * log_t_ratio  # (nt,)
            finite = np.isfinite(scaled)
            scaled_safe = np.where(finite, scaled, 0.0)
            # Residual weight matrix shared by every cell of the block.
            w = np.exp(
                np.clip(
                    np.outer(centers * sigma_r, scaled_safe), -_EXP_CLIP, _EXP_CLIP
                )
            )  # (n_bins, nt)
            assignment = self.sampler.assignments[j]
            a_avg = area / n_devices
            block_bases = bases[j]  # (n_chips, n_cells)
            cell_sums = np.zeros((n_chips, times.size))
            for c, m_cell in enumerate(assignment.device_counts):
                counts = rng.multinomial(int(m_cell), probs, size=n_chips)
                residual_sum = counts @ w  # (n_chips, nt)
                base_factor = np.exp(
                    np.clip(
                        np.outer(block_bases[:, c], scaled_safe),
                        -_EXP_CLIP,
                        _EXP_CLIP,
                    )
                )
                cell_sums += base_factor * residual_sum
            contribution = a_avg * cell_sums
            contribution[:, ~finite] = 0.0
            exponents += contribution
        return exponents

    def _exponents_exact(
        self, times: np.ndarray, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        z = self.sampler.sample_factors(n_chips, rng)
        exponents = np.zeros((n_chips, times.size))
        with np.errstate(divide="ignore"):
            log_times = np.where(times > 0.0, np.log(times), -np.inf)
        for c in range(n_chips):
            for j, (alpha, b, area, n_devices) in enumerate(self.blocks):
                thickness = self.sampler.device_thicknesses(z[c], j, rng)
                log_t_ratio = log_times - np.log(alpha)
                scaled = b * log_t_ratio
                finite = np.isfinite(scaled)
                scaled_safe = np.where(finite, scaled, 0.0)
                a_avg = area / n_devices
                arg = np.clip(
                    np.outer(thickness, scaled_safe), -_EXP_CLIP, _EXP_CLIP
                )
                contribution = a_avg * np.exp(arg).sum(axis=0)
                contribution[~finite] = 0.0
                exponents[c] += contribution
        return exponents

    def _failure_times_binned(
        self, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        z = self.sampler.sample_factors(n_chips, rng)
        bases = self.sampler.block_base_thickness(z)
        centers = self.binning.centers
        probs = self.binning.probabilities
        sigma_r = self.sampler.model.sigma_independent
        chip_min = np.full(n_chips, np.inf)
        for j, (alpha, b, area, n_devices) in enumerate(self.blocks):
            assignment = self.sampler.assignments[j]
            a_avg = area / n_devices
            block_bases = bases[j]  # (n_chips, n_cells)
            for c, m_cell in enumerate(assignment.device_counts):
                counts = rng.multinomial(int(m_cell), probs, size=n_chips)
                thickness = (
                    block_bases[:, c : c + 1] + sigma_r * centers[None, :]
                )  # (n_chips, n_bins)
                beta = b * np.clip(thickness, 1e-3, None)
                # Weakest link within a bin: min of k iid Weibulls is a
                # Weibull with k-fold area.
                exponential = rng.exponential(size=(n_chips, counts.shape[1]))
                with np.errstate(divide="ignore"):
                    log_t = (
                        np.log(exponential) - np.log(counts * a_avg)
                    ) / beta + np.log(alpha)
                log_t = np.where(counts > 0, log_t, np.inf)
                chip_min = np.minimum(chip_min, log_t.min(axis=1))
        return np.exp(chip_min)

    def _failure_times_exact(
        self, n_chips: int, rng: np.random.Generator
    ) -> np.ndarray:
        z = self.sampler.sample_factors(n_chips, rng)
        chip_min = np.full(n_chips, np.inf)
        for c in range(n_chips):
            for j, (alpha, b, area, n_devices) in enumerate(self.blocks):
                thickness = self.sampler.device_thicknesses(z[c], j, rng)
                beta = b * np.clip(thickness, 1e-3, None)
                a_avg = area / n_devices
                exponential = rng.exponential(size=thickness.size)
                log_t = (
                    np.log(exponential) - np.log(a_avg)
                ) / beta + np.log(alpha)
                chip_min[c] = min(chip_min[c], float(log_t.min()))
        return np.exp(chip_min)


class MonteCarloEngine:
    """Sample-chip Monte-Carlo reference for a prepared design.

    Parameters
    ----------
    sampler:
        Chip sampler binding the floorplan, grid and thickness model.
    blocks:
        Per-block BLOD + Weibull parameters (block order must match the
        sampler's floorplan).
    device_mode:
        ``"binned"`` (default) or ``"exact"`` — see the module docstring.
    binning:
        Residual discretisation for the binned mode.
    chunk_size:
        Target chips per submitted task (scheduling granularity only —
        never affects results).
    shard_size:
        Chips per seed shard.  Part of the deterministic stream
        definition: changing it redraws the sample, while backend, worker
        count and ``chunk_size`` never do.
    backend:
        Execution backend for shard tasks; defaults to the environment
        selection (``REPRO_EXEC_BACKEND``/``REPRO_JOBS``, serial when
        unset).
    """

    def __init__(
        self,
        sampler: ChipSampler,
        blocks: list[BlockReliability],
        device_mode: str = "binned",
        binning: ResidualBinning | None = None,
        chunk_size: int = 100,
        shard_size: int = DEFAULT_SHARD_SIZE,
        backend: ExecBackend | None = None,
    ) -> None:
        if device_mode not in ("binned", "exact"):
            raise ConfigurationError(f"unknown device mode {device_mode!r}")
        if len(blocks) != sampler.floorplan.n_blocks:
            raise ConfigurationError(
                "need one BlockReliability per floorplan block"
            )
        for block, fp_block in zip(blocks, sampler.floorplan.blocks, strict=True):
            if block.blod.name != fp_block.name:
                raise ConfigurationError(
                    f"block order mismatch: {block.blod.name!r} vs "
                    f"{fp_block.name!r}"
                )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if shard_size < 1:
            raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
        self.sampler = sampler
        self.blocks = list(blocks)
        self.device_mode = device_mode
        self.binning = binning if binning is not None else ResidualBinning()
        self.chunk_size = chunk_size
        self.shard_size = shard_size
        self.backend = backend if backend is not None else resolve_backend()
        self.kernel = ChipKernel(
            sampler=sampler,
            blocks=tuple(
                (block.alpha, block.b, block.blod.area, block.blod.n_devices)
                for block in self.blocks
            ),
            binning=self.binning,
            device_mode=device_mode,
        )

    @property
    def _shards_per_task(self) -> int:
        """Consecutive shards bundled into one backend task."""
        return max(1, self.chunk_size // self.shard_size)

    def _checkpoint(
        self,
        checkpoint_path: str | Path | None,
        kind: str,
        n_chips: int,
        root: np.random.SeedSequence,
        times: np.ndarray | None,
        save_every: int,
    ) -> Checkpoint | None:
        """A checkpoint bound to this exact run, or None when not requested."""
        if checkpoint_path is None:
            return None
        meta: dict[str, Any] = {
            "kind": kind,
            "n_chips": n_chips,
            "shard_size": self.shard_size,
            "entropy": str(root.entropy),
            "device_mode": self.device_mode,
            "binning": {
                "n_bins": self.binning.n_bins,
                "z_max": self.binning.z_max,
            },
            "blocks": [
                {
                    "name": block.name,
                    "alpha": block.alpha,
                    "b": block.b,
                    "area": block.blod.area,
                }
                for block in self.blocks
            ],
        }
        if times is not None:
            meta["times"] = times
        return Checkpoint(checkpoint_path, meta, save_every=save_every)

    # ------------------------------------------------------------------
    # Conditional-reliability MC (Table III reference)
    # ------------------------------------------------------------------

    def reliability_curve(
        self,
        times: np.ndarray,
        n_chips: int,
        rng: SeedLike,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 16,
        cancel_check: Callable[[], bool] | None = None,
    ) -> ReliabilityCurve:
        """Ensemble reliability by averaging conditional chip reliability.

        ``R_hat(t) = mean_c exp(-sum_j sum_i a_i (t/alpha_j)^(b_j x_i))``
        over ``n_chips`` sample chips.  ``rng`` may be an integer seed, a
        ``SeedSequence`` or a ``Generator``; the sample is sharded
        deterministically (see the module docstring), so the curve depends
        only on the seed, ``n_chips`` and ``shard_size`` — never on the
        backend, worker count or ``chunk_size``.

        With ``checkpoint_path``, accumulated per-shard state is written
        atomically every ``checkpoint_every`` shards (plus on abnormal
        exit); rerunning the same call resumes from the file and produces
        a curve bit-identical to an uninterrupted run.  Pass an ``int`` or
        ``SeedSequence`` seed for resumable runs — a ``Generator`` draws
        fresh entropy per call, which a resume cannot reproduce.

        ``cancel_check`` (polled between task groups) cooperatively stops
        the run with :class:`~repro.errors.ExecutionInterrupted` after
        flushing the checkpoint — the hook the service layer uses for job
        cancellation and graceful shutdown.

        Chips whose exponent sum comes out non-finite (numerical blow-up in
        a pathological sample) are dropped with a warning and counted in
        the ``mc.nonfinite_chunks`` / ``mc.nonfinite_chips`` metrics; the
        returned curve then averages the remaining valid chips (its
        ``n_chips`` reflects the valid count).  Only when *every* chip is
        invalid does the method raise.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        with span(
            "mc.reliability_curve",
            chips=n_chips,
            times=times.size,
            device_mode=self.device_mode,
            backend=self.backend.name,
        ) as curve_span:
            payloads = self.shard_payloads(
                times,
                n_chips,
                rng,
                checkpoint_path=checkpoint_path,
                checkpoint_every=checkpoint_every,
                cancel_check=cancel_check,
            )
            curve = reduce_curve_payloads(times, payloads)
            curve_span.set(valid_chips=curve.n_chips)
        return curve

    def shard_payloads(
        self,
        times: np.ndarray,
        n_chips: int,
        rng: SeedLike,
        shard_indices: list[int] | tuple[int, ...] | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 16,
        cancel_check: Callable[[], bool] | None = None,
    ) -> dict[int, dict[str, np.ndarray]]:
        """Per-shard partial survival sums for (a subset of) the plan.

        The deterministic shard plan for ``(rng, n_chips, shard_size)`` is
        laid out in full, then only ``shard_indices`` (default: every
        shard) are evaluated — so a fleet worker handed an index subset
        draws exactly the streams a serial run would, and the merged
        payloads reduce to the identical curve via
        :func:`reduce_curve_payloads`.  Checkpoint entries are keyed by
        shard index, so partial checkpoints from *different* subsets of
        the same plan merge losslessly.  On success the checkpoint file is
        removed.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if np.any(times < 0.0):
            raise ConfigurationError("times must be non-negative")
        if n_chips < 2:
            raise ConfigurationError(f"n_chips must be >= 2, got {n_chips}")
        root = resolve_seed_sequence(rng)
        shards = plan_shards(n_chips, root, self.shard_size)
        if shard_indices is not None:
            wanted = sorted({int(index) for index in shard_indices})
            out_of_range = [
                index for index in wanted if not 0 <= index < len(shards)
            ]
            if out_of_range:
                raise ConfigurationError(
                    f"shard indices {out_of_range} outside the plan "
                    f"(0..{len(shards) - 1} for {n_chips} chips of "
                    f"shard_size {self.shard_size})"
                )
            shards = [shards[index] for index in wanted]
        checkpoint = self._checkpoint(
            checkpoint_path,
            "reliability_curve",
            n_chips,
            root,
            times,
            checkpoint_every,
        )
        payloads = run_sharded(
            self.backend,
            partial(_curve_shard_task, self.kernel, times),
            shards,
            shards_per_task=self._shards_per_task,
            checkpoint=checkpoint,
            cancel_check=cancel_check,
        )
        if checkpoint is not None:
            checkpoint.clear()
        # A checkpoint may have restored indices beyond the requested
        # subset; hand back exactly what was asked for.
        return {shard.index: payloads[shard.index] for shard in shards}

    # ------------------------------------------------------------------
    # Failure-time MC (Fig. 10 reference)
    # ------------------------------------------------------------------

    def failure_times(
        self,
        n_chips: int,
        rng: SeedLike,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 16,
    ) -> np.ndarray:
        """Weakest-link chip failure times for ``n_chips`` sample chips.

        Sharded like :meth:`reliability_curve`: samples land at fixed
        positions in the output array, so the result is bit-identical for
        every backend and ``chunk_size``, and checkpointed runs resume to
        the same sample.
        """
        if n_chips < 1:
            raise ConfigurationError(f"n_chips must be >= 1, got {n_chips}")
        root = resolve_seed_sequence(rng)
        shards = plan_shards(n_chips, root, self.shard_size)
        checkpoint = self._checkpoint(
            checkpoint_path,
            "failure_times",
            n_chips,
            root,
            None,
            checkpoint_every,
        )
        out = np.empty(n_chips)
        with span(
            "mc.failure_times",
            chips=n_chips,
            device_mode=self.device_mode,
            backend=self.backend.name,
        ):
            payloads = run_sharded(
                self.backend,
                partial(_failure_shard_task, self.kernel),
                shards,
                shards_per_task=self._shards_per_task,
                checkpoint=checkpoint,
            )
            for shard in shards:
                out[shard.start : shard.stop] = payloads[shard.index]["times"]
                metrics.inc("mc.chips", shard.size)
        if checkpoint is not None:
            checkpoint.clear()
        return out


# ----------------------------------------------------------------------
# Ordered reduction — shared by the in-process engine and repro.fleet
# ----------------------------------------------------------------------


def reduce_curve_payloads(
    times: np.ndarray,
    payloads: dict[int, dict[str, Any]],
    expected_shards: int | None = None,
) -> ReliabilityCurve:
    """Merge per-shard partial sums into the final reliability curve.

    Accumulates in ascending shard-index order, fixing the floating-point
    summation order — and therefore the curve, bit for bit — regardless of
    which backend, machine or worker produced each payload.  This is the
    single reduction used by :meth:`MonteCarloEngine.reliability_curve`
    and by the fleet coordinator merging remote shard-group results;
    payload values may be numpy arrays or plain lists (JSON round-trips
    float64 exactly).

    ``expected_shards`` (when given) guards against a truncated merge: a
    missing shard raises instead of silently averaging fewer chips.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if expected_shards is not None and len(payloads) != expected_shards:
        raise NumericalError(
            f"shard-payload merge is incomplete: got {len(payloads)} of "
            f"{expected_shards} shards"
        )
    total = np.zeros(times.size)
    total_sq = np.zeros(times.size)
    n_valid = 0
    for index in sorted(payloads):
        payload = payloads[index]
        n_bad = int(np.asarray(payload["n_bad"]))
        shard_valid = int(np.asarray(payload["n_valid"]))
        if n_bad:
            metrics.inc("mc.nonfinite_chunks")
            metrics.inc("mc.nonfinite_chips", n_bad)
            logger.warning(
                "dropping %d of %d chips in MC chunk: non-finite "
                "Weibull exponent sums (curve will average the "
                "remaining valid chips)",
                n_bad,
                shard_valid + n_bad,
                extra={"metric": "mc.nonfinite_chunks"},
            )
        total += np.asarray(payload["total"], dtype=float)
        total_sq += np.asarray(payload["total_sq"], dtype=float)
        n_valid += shard_valid
        metrics.inc("mc.chips", shard_valid + n_bad)
    if n_valid == 0:
        raise NumericalError(
            "every MC chip produced non-finite Weibull exponents; "
            "check the variation budget and Weibull parameters"
        )
    mean = total / n_valid
    variance = np.clip(total_sq / n_valid - mean**2, 0.0, None)
    std_error = np.sqrt(variance / n_valid)
    return ReliabilityCurve(
        times=times, reliability=mean, std_error=std_error, n_chips=n_valid
    )


# ----------------------------------------------------------------------
# Shard tasks: module-level (picklable for the process backend) and pure —
# all metrics/logging happen in the parent during the ordered reduction.
# ----------------------------------------------------------------------


def _curve_shard_task(
    kernel: ChipKernel, times: np.ndarray, shard: Shard
) -> dict[str, np.ndarray]:
    """Partial survival sums for one shard of sample chips."""
    rng = shard.rng()
    exponents = kernel.exponents(times, shard.size, rng)
    finite_rows = np.isfinite(exponents).all(axis=1)
    n_bad = shard.size - int(finite_rows.sum())
    if n_bad:
        exponents = exponents[finite_rows]
    survival = np.exp(-np.clip(exponents, 0.0, _EXP_CLIP))
    return {
        "total": survival.sum(axis=0),
        "total_sq": (survival**2).sum(axis=0),
        "n_valid": np.asarray(exponents.shape[0]),
        "n_bad": np.asarray(n_bad),
    }


def _failure_shard_task(
    kernel: ChipKernel, shard: Shard
) -> dict[str, np.ndarray]:
    """Weakest-link failure times for one shard of sample chips."""
    return {"times": kernel.failure_times(shard.size, shard.rng())}
