"""repro — process variation and temperature-aware full-chip OBD reliability.

A from-scratch reproduction of Zhuo, Chopra, Sylvester and Blaauw,
"Process Variation and Temperature-Aware Full Chip Oxide Breakdown
Reliability Analysis" (DATE 2010 / IEEE TCAD 2011).

Quick start::

    from repro import ReliabilityAnalyzer, make_benchmark

    analyzer = ReliabilityAnalyzer(make_benchmark("C3"))
    ten_ppm_lifetime = analyzer.lifetime(ppm=10, method="st_fast")

See :mod:`repro.core.analyzer` for the full method list and the
``examples/`` directory for end-to-end scenarios.

Importing the package loads no subsystem: every public name below
resolves on first access (PEP 562), so ``import repro.cli`` pays only
for what the command it runs needs.
"""

import importlib
from typing import Any

#: The public names, grouped by the module that defines them.
_EXPORTS_BY_MODULE: dict[str, tuple[str, ...]] = {
    "repro.chip.benchmarks": (
        "BENCHMARK_DEVICE_COUNTS",
        "make_alpha_processor",
        "make_benchmark",
        "make_manycore",
        "make_synthetic_design",
    ),
    "repro.chip.floorplan": ("Block", "Floorplan"),
    "repro.chip.geometry": ("GridSpec", "Rect"),
    "repro.core.analyzer": (
        "METHODS",
        "AnalysisConfig",
        "ReliabilityAnalyzer",
    ),
    "repro.core.blod": ("BlodModel", "characterize_blods"),
    "repro.core.burnin": ("BurnInAnalyzer", "ExtrinsicDefectModel"),
    "repro.core.ensemble": (
        "BlockReliability",
        "StFastAnalyzer",
        "StMcAnalyzer",
        "worst_case_blocks",
    ),
    "repro.core.guardband": ("GuardBandAnalyzer",),
    "repro.core.hybrid": ("HybridAnalyzer",),
    "repro.core.lifetime": (
        "lifetime_at_ppm",
        "lifetime_from_curve",
        "ppm_to_reliability",
        "solve_lifetime",
    ),
    "repro.core.mission": (
        "MissionAnalyzer",
        "MissionProfile",
        "OperatingPhase",
        "mission_analyzer",
    ),
    "repro.core.montecarlo": ("MonteCarloEngine", "ReliabilityCurve"),
    "repro.core.obd_model": (
        "DeviceReliabilityParams",
        "OBDModel",
        "TabulatedOBDModel",
    ),
    "repro.core.sensitivity": (
        "SensitivityResult",
        "lifetime_sensitivities",
        "tornado_text",
    ),
    "repro.core.voltage": (
        "VoltageScreeningResult",
        "max_vdd_for_target",
        "voltage_headroom",
    ),
    "repro.errors": (
        "AdmissionError",
        "ConfigurationError",
        "ExecutionInterrupted",
        "FloorplanError",
        "NumericalError",
        "ReproError",
        "ServiceError",
        "SolverError",
        "UnitError",
    ),
    "repro.leakage.degradation": (
        "DegradationParams",
        "DegradationTrace",
        "GateLeakageSimulator",
    ),
    "repro.leakage.population": ("ChipLeakagePopulation",),
    "repro.power.activity": ("ActivityProfile",),
    "repro.power.loop": ("solve_power_thermal",),
    "repro.power.model": ("BlockPowerModel", "PowerModelParams"),
    "repro.report": ("design_report", "format_table", "heat_map"),
    "repro.stats.weibull": ("AreaScaledWeibull",),
    "repro.thermal.grid": ("PackageModel",),
    "repro.thermal.hotspot": ("HotSpotLite", "ThermalResult"),
    "repro.thermal.transient": ("TransientResult", "TransientSolver"),
    "repro.variation.components": ("VariationBudget",),
    "repro.variation.correlation": ("SpatialCorrelationModel",),
    "repro.variation.extraction": (
        "ExtractionResult",
        "extract_variation_model",
        "synthesize_measurements",
    ),
    "repro.variation.pca": (
        "CanonicalThicknessModel",
        "build_canonical_model",
    ),
    "repro.variation.quadtree": ("QuadTreeModel", "build_quadtree_model"),
    "repro.variation.sampling": ("ChipSampler",),
    "repro.variation.wafer": ("WaferPattern",),
}

_EXPORTS = {
    name: module
    for module, names in _EXPORTS_BY_MODULE.items()
    for name in names
}


def _resolve_version() -> str:
    """The installed package version, falling back for source-tree runs.

    Sourced from package metadata so ``pyproject.toml`` stays the single
    authority; an uninstalled checkout (``PYTHONPATH=src``) has no
    distribution metadata and uses the pinned fallback.
    """
    import importlib.metadata

    try:
        return importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        return "1.0.0"


__version__ = _resolve_version()

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    """Import the module that defines ``name`` and cache the attribute."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Every public name, imported yet or not."""
    return sorted(set(globals()) | set(__all__))
