"""Numerical kernels of the analysis pipeline.

The hot inner kernels — the sparse thermal solve inside the
power-thermal fixed point, the per-block survival quadrature of the
ensemble analyzers, and the Imhof inversion — each have one vectorised
production implementation:

========================  =============================================
kernel                    lives in
========================  =============================================
conductance assembly      ``repro.thermal.solver`` (numpy index math)
factorization cache       ``repro.thermal.factor_cache``
batched block survival    ``repro.kernels.survival``
vectorised Imhof          ``repro.stats.quadform.QuadraticForm.imhof_sf``
========================  =============================================

Their loop-per-element oracles live in :mod:`repro.kernels.reference`,
which only the tests and the benchmarks import.  Every kernel is covered
by an equivalence test against its oracle, and ``repro bench kernels``
(or ``benchmarks/test_kernels.py``) times both.  See
``docs/performance.md``.
"""

from repro.kernels.artifacts import (
    ArtifactCache,
    artifacts_enabled,
    default_artifact_cache_dir,
    get_artifact_cache,
    memoize_artifact,
    set_artifacts_enabled,
    use_artifacts,
)
from repro.kernels.survival import (
    batched_rule_expectations,
    batched_sample_expectations,
    pad_rule_tables,
    sweep_rule_expectations,
)

__all__ = [
    "ArtifactCache",
    "artifacts_enabled",
    "batched_rule_expectations",
    "batched_sample_expectations",
    "default_artifact_cache_dir",
    "get_artifact_cache",
    "memoize_artifact",
    "pad_rule_tables",
    "set_artifacts_enabled",
    "sweep_rule_expectations",
    "use_artifacts",
]
