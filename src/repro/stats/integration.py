"""Numerical integration rules for the ensemble reliability integrals.

Equation (28) reduces the full-chip reliability to ``N`` double integrals
of ``exp(-A_j g(u, v))`` against the marginal PDFs of the BLOD mean and
variance. The paper evaluates them with an ``l0 x l0`` sub-domain midpoint
sum (``l0 = 10`` suffices, Sec. IV-D); this module implements that rule plus
two higher-order alternatives used as ablation references:

- Gauss-Hermite quadrature for the Gaussian ``u`` direction,
- equal-probability (quantile-stratified) points for the chi-square ``v``
  direction,
- scipy adaptive quadrature as the "exact" baseline.

The distributions evaluate ``scipy.special`` directly, in the operation
order of ``scipy.stats``, so their values are bit-identical to the
``scipy.stats`` ones without importing it; ``scipy.integrate`` is
imported by the adaptive reference only.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import Protocol

import numpy as np
from scipy.special import ndtri

from repro.errors import ConfigurationError

#: ``scipy.stats.norm``'s density normaliser, ``sqrt(2 pi)``.
_NORM_PDF_C = np.sqrt(2 * np.pi)


class UnivariateDist(Protocol):
    """Minimal distribution interface consumed by the integration rules."""

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Probability density at ``x``."""

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Quantile function at probability ``q``."""


@dataclass(frozen=True)
class NormalDist:
    """A normal distribution with the protocol the rules expect."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0.0:
            raise ConfigurationError(f"sigma must be >= 0, got {self.sigma}")

    @property
    def is_degenerate(self) -> bool:
        """True when the distribution is a point mass."""
        return self.sigma <= 0.0

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Normal density (zero everywhere for the degenerate case)."""
        if self.is_degenerate:
            return np.zeros_like(np.asarray(x, dtype=float))
        z = (np.asarray(x, dtype=float) - self.mean) / self.sigma
        return np.asarray(np.exp(-z**2 / 2.0) / _NORM_PDF_C / self.sigma)

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Normal quantile (constant for the degenerate case)."""
        if self.is_degenerate:
            return np.full_like(np.asarray(q, dtype=float), self.mean)
        return np.asarray(ndtri(q) * self.sigma + self.mean)


@dataclass(frozen=True)
class PointMass:
    """A deterministic value packaged as a distribution."""

    value: float

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Dirac mass has no density; rules special-case this type."""
        raise NotImplementedError("point mass has no density")

    def ppf(self, q: np.ndarray | float) -> np.ndarray | float:
        """Every quantile is the point itself."""
        return np.full_like(np.asarray(q, dtype=float), self.value)


@dataclass(frozen=True)
class Rule1D:
    """Integration points and weights for one dimension."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.points.shape != self.weights.shape or self.points.ndim != 1:
            raise ConfigurationError("points and weights must be matching 1-D arrays")


def midpoint_rule(
    dist: UnivariateDist,
    n_points: int = 10,
    tail: float = 1e-6,
    normalize: bool = True,
) -> Rule1D:
    """The paper's sub-domain midpoint rule for one dimension.

    The integration domain ``[ppf(tail), ppf(1 - tail)]`` is divided into
    ``n_points`` equal sub-domains; each contributes its midpoint weighted
    by ``pdf(midpoint) * width``. With ``normalize=True`` the weights are
    rescaled to sum to one, removing the O(width^2) discretisation bias of
    the raw rule (the paper's ``l0 = 10`` is accurate either way because
    the PDFs die off quickly, Fig. 4).
    """
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if not 0.0 < tail < 0.5:
        raise ConfigurationError(f"tail must be in (0, 0.5), got {tail}")
    if isinstance(dist, PointMass):
        return Rule1D(points=np.array([dist.value]), weights=np.array([1.0]))
    if isinstance(dist, NormalDist) and dist.is_degenerate:
        return Rule1D(points=np.array([dist.mean]), weights=np.array([1.0]))
    lo = float(dist.ppf(tail))
    hi = float(dist.ppf(1.0 - tail))
    if not np.isfinite(lo) or not np.isfinite(hi) or hi <= lo:
        raise ConfigurationError("distribution support could not be bracketed")
    edges = np.linspace(lo, hi, n_points + 1)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    weights = np.asarray(dist.pdf(midpoints), dtype=float) * widths
    total = weights.sum()
    if normalize:
        if total <= 0.0:
            raise ConfigurationError("distribution has no mass on the bracket")
        weights = weights / total
    return Rule1D(points=midpoints, weights=weights)


def gauss_hermite_rule(dist: NormalDist, n_points: int = 16) -> Rule1D:
    """Gauss-Hermite rule for an expectation over a normal distribution."""
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if dist.is_degenerate:
        return Rule1D(points=np.array([dist.mean]), weights=np.array([1.0]))
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_points)
    points = dist.mean + dist.sigma * nodes
    return Rule1D(points=points, weights=weights / np.sqrt(2.0 * np.pi))


def quantile_rule(dist: UnivariateDist, n_points: int = 32) -> Rule1D:
    """Equal-probability stratified rule (works for any distribution).

    Splits probability into ``n_points`` strata and represents each by its
    median quantile with weight ``1/n``. Robust for the skewed chi-square
    ``v`` marginal.
    """
    if n_points < 1:
        raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
    if isinstance(dist, PointMass):
        return Rule1D(points=np.array([dist.value]), weights=np.array([1.0]))
    if isinstance(dist, NormalDist) and dist.is_degenerate:
        return Rule1D(points=np.array([dist.mean]), weights=np.array([1.0]))
    quantiles = (np.arange(n_points) + 0.5) / n_points
    points = np.asarray(dist.ppf(quantiles), dtype=float)
    weights = np.full(n_points, 1.0 / n_points)
    return Rule1D(points=points, weights=weights)


def expectation_2d(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rule_u: Rule1D,
    rule_v: Rule1D,
) -> float:
    """``E[fn(U, V)]`` for independent U, V given per-dimension rules.

    ``fn`` must accept broadcast arrays and return elementwise values.
    """
    u_grid = rule_u.points[:, None]
    v_grid = rule_v.points[None, :]
    values = np.asarray(fn(u_grid, v_grid), dtype=float)
    expected_shape = (rule_u.points.size, rule_v.points.size)
    if values.shape != expected_shape:
        raise ConfigurationError(
            f"fn returned shape {values.shape}, expected {expected_shape}"
        )
    return float(rule_u.weights @ values @ rule_v.weights)


def expectation_2d_adaptive(
    fn: Callable[[float, float], float],
    dist_u: UnivariateDist,
    dist_v: UnivariateDist,
    tail: float = 1e-9,
) -> float:
    """Adaptive scipy double quadrature of ``fn`` against the two PDFs.

    The slow "exact" reference used in the integration-rule ablation.
    Degenerate dimensions collapse to a 1-D quadrature automatically.
    """
    from scipy import integrate

    u_degenerate = isinstance(dist_u, PointMass) or (
        isinstance(dist_u, NormalDist) and dist_u.is_degenerate
    )
    v_degenerate = isinstance(dist_v, PointMass) or (
        isinstance(dist_v, NormalDist) and dist_v.is_degenerate
    )
    if u_degenerate and v_degenerate:
        u0 = float(dist_u.ppf(0.5))
        v0 = float(dist_v.ppf(0.5))
        return float(fn(u0, v0))
    if u_degenerate:
        u0 = float(dist_u.ppf(0.5))
        lo, hi = float(dist_v.ppf(tail)), float(dist_v.ppf(1.0 - tail))
        value, _err = integrate.quad(
            lambda v: float(fn(u0, v)) * float(dist_v.pdf(v)), lo, hi, limit=200
        )
        return value
    if v_degenerate:
        v0 = float(dist_v.ppf(0.5))
        lo, hi = float(dist_u.ppf(tail)), float(dist_u.ppf(1.0 - tail))
        value, _err = integrate.quad(
            lambda u: float(fn(u, v0)) * float(dist_u.pdf(u)), lo, hi, limit=200
        )
        return value
    u_lo, u_hi = float(dist_u.ppf(tail)), float(dist_u.ppf(1.0 - tail))
    v_lo, v_hi = float(dist_v.ppf(tail)), float(dist_v.ppf(1.0 - tail))
    value, _err = integrate.dblquad(
        lambda v, u: float(fn(u, v)) * float(dist_u.pdf(u)) * float(dist_v.pdf(v)),
        u_lo,
        u_hi,
        lambda _u: v_lo,
        lambda _u: v_hi,
    )
    return value
