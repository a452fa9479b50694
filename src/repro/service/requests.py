"""Job request schema: validation, fingerprinting, and evaluation.

A job request is the JSON document ``POST /v1/jobs`` accepts.  It names
an analysis ``kind`` (``lifetime``/``curve``/``report``), a design — one
of the paper's benchmarks by name, or an inline setup document in the
:mod:`repro.io.design_json` format — and the same knobs the CLI exposes,
so a job's result payload is **byte-identical** to the equivalent
``repro lifetime/curve/report --json`` invocation (both sides build it
with :mod:`repro.payloads`).

Requests are content-addressed with the execution layer's
:func:`repro.exec.cache.fingerprint`, which is what the service's dedup
(identical submissions coalesce) and result caching key on.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from typing import Any

from repro import payloads
from repro.chip.benchmarks import BENCHMARK_DEVICE_COUNTS, make_benchmark
from repro.core.analyzer import METHODS, AnalysisConfig, ReliabilityAnalyzer
from repro.errors import ReproError, ServiceError
from repro.exec.cache import fingerprint

__all__ = ["JOB_KINDS", "JobRequest", "run_job"]

#: Analysis kinds a job can request.  The first three mirror the CLI
#: commands; ``mc_shards`` is the fleet worker primitive — evaluate an
#: explicit subset of the deterministic MC shard plan on an explicit time
#: grid and return the per-shard partial sums.  ``scenario`` evaluates a
#: piecewise stress schedule (:mod:`repro.scenario`) and mirrors
#: ``repro scenario run --json``.
JOB_KINDS = ("lifetime", "curve", "report", "mc_shards", "scenario")

#: Upper bound on the correlation grid through the service — a 200x200
#: grid is already a 40k-cell covariance problem; anything larger is a
#: resource-exhaustion vector, not a realistic request.
_MAX_GRID = 200

_MAX_MC_CHIPS = 100_000
_MAX_CURVE_POINTS = 2_000

#: Bounds for the fleet's ``mc_shards`` jobs: a shard group is a handful
#: of indices and the MC time grid is a few dozen points — anything far
#: beyond is a malformed coordinator, not a real request.
_MAX_JOB_SHARDS = 4_096
_MAX_SHARD_TIMES = 512


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ServiceError(message)


def _as_float(data: dict[str, Any], key: str, default: float | None) -> float | None:
    value = data.get(key, default)
    if value is None:
        return None
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"field {key!r} must be a number, got {value!r}",
    )
    return float(value)


def _as_int(data: dict[str, Any], key: str, default: int) -> int:
    value = data.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"field {key!r} must be an integer, got {value!r}",
    )
    return int(value)


@dataclasses.dataclass(frozen=True)
class JobRequest:
    """One validated analysis job (see the module docstring).

    Instances are immutable and JSON-round-trippable (:meth:`as_dict`),
    and :attr:`key` content-addresses everything that determines the
    result.
    """

    kind: str
    design: str | None = None
    setup: dict[str, Any] | None = None
    grid: int = 25
    rho: float = 0.5
    vdd: float | None = None
    ppm: float = 10.0
    methods: tuple[str, ...] = ("st_fast",)
    mc_chips: int = 500
    seed: int = 0
    t_min: float | None = None
    t_max: float | None = None
    points: int = 20
    #: ``mc_shards`` only: shard indices to evaluate out of the plan for
    #: ``(seed, mc_chips)``, and the explicit evaluation time grid (hours).
    shards: tuple[int, ...] | None = None
    times: tuple[float, ...] | None = None
    #: ``scenario`` only: the canonical scenario document
    #: (:meth:`repro.scenario.Scenario.as_dict`) — the full phase
    #: schedule and mechanism set fold into the fingerprint.
    scenario: dict[str, Any] | None = None

    @classmethod
    def from_dict(cls, data: Any) -> JobRequest:
        """Validate a raw JSON document into a request (400 on failure)."""
        _require(isinstance(data, dict), "job request must be a JSON object")
        kind = data.get("kind")
        _require(
            kind in JOB_KINDS,
            f"field 'kind' must be one of {', '.join(JOB_KINDS)}, "
            f"got {kind!r}",
        )
        design = data.get("design")
        setup = data.get("setup")
        _require(
            (design is None) != (setup is None),
            "exactly one of 'design' (benchmark name) or 'setup' "
            "(inline design_json document) is required",
        )
        if design is not None:
            _require(
                design in BENCHMARK_DEVICE_COUNTS,
                f"unknown design {design!r}; expected one of "
                f"{', '.join(sorted(BENCHMARK_DEVICE_COUNTS))}",
            )
        if setup is not None:
            _require(
                isinstance(setup, dict),
                "field 'setup' must be a design_json setup object",
            )
            # Validate eagerly so a malformed setup is a 400 at submit
            # time, not a failed job minutes later.
            _load_setup(setup)
        methods_raw = data.get("methods", data.get("method", ["st_fast"]))
        if isinstance(methods_raw, str):
            methods_raw = [methods_raw]
        _require(
            isinstance(methods_raw, list) and len(methods_raw) > 0,
            "field 'methods' must be a non-empty list of method names",
        )
        for method in methods_raw:
            _require(
                method in METHODS,
                f"unknown method {method!r}; expected one of {METHODS}",
            )
        grid = _as_int(data, "grid", 25)
        _require(2 <= grid <= _MAX_GRID, f"field 'grid' must be in [2, {_MAX_GRID}]")
        rho = _as_float(data, "rho", 0.5)
        assert rho is not None
        _require(rho > 0.0, "field 'rho' must be positive")
        ppm = _as_float(data, "ppm", 10.0)
        assert ppm is not None
        _require(ppm > 0.0, "field 'ppm' must be positive")
        mc_chips = _as_int(data, "mc_chips", 500)
        _require(
            2 <= mc_chips <= _MAX_MC_CHIPS,
            f"field 'mc_chips' must be in [2, {_MAX_MC_CHIPS}]",
        )
        points = _as_int(data, "points", 20)
        _require(
            2 <= points <= _MAX_CURVE_POINTS,
            f"field 'points' must be in [2, {_MAX_CURVE_POINTS}]",
        )
        t_min = _as_float(data, "t_min", None)
        t_max = _as_float(data, "t_max", None)
        if kind == "curve":
            _require(
                t_min is not None and t_max is not None,
                "curve jobs require 't_min' and 't_max' (hours)",
            )
            assert t_min is not None and t_max is not None
            _require(
                0.0 < t_min < t_max,
                "'t_min' must be positive and below 't_max'",
            )
            _require(
                len(methods_raw) == 1,
                "curve jobs take exactly one method",
            )
            _require(
                methods_raw[0] != "mc",
                "curve jobs evaluate closed-form methods; use a lifetime "
                "job for the MC reference",
            )
        shards_raw = data.get("shards")
        times_raw = data.get("times")
        if kind == "mc_shards":
            _require(
                isinstance(shards_raw, list)
                and 0 < len(shards_raw) <= _MAX_JOB_SHARDS,
                "mc_shards jobs require 'shards': a non-empty list of at "
                f"most {_MAX_JOB_SHARDS} shard indices",
            )
            assert isinstance(shards_raw, list)
            for index in shards_raw:
                _require(
                    isinstance(index, int)
                    and not isinstance(index, bool)
                    and index >= 0,
                    f"shard index must be a non-negative integer, got "
                    f"{index!r}",
                )
            _require(
                len(set(shards_raw)) == len(shards_raw),
                "field 'shards' must not repeat indices",
            )
            _require(
                isinstance(times_raw, list)
                and 0 < len(times_raw) <= _MAX_SHARD_TIMES,
                "mc_shards jobs require 'times': a non-empty list of at "
                f"most {_MAX_SHARD_TIMES} evaluation times (hours)",
            )
            assert isinstance(times_raw, list)
            for value in times_raw:
                _require(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and math.isfinite(value)
                    and value >= 0.0,
                    f"evaluation times must be finite non-negative "
                    f"numbers, got {value!r}",
                )
        else:
            _require(
                shards_raw is None and times_raw is None,
                "'shards' and 'times' apply to mc_shards jobs only",
            )
        scenario_raw = data.get("scenario")
        scenario_doc: dict[str, Any] | None = None
        if kind == "scenario":
            _require(
                isinstance(scenario_raw, dict),
                "scenario jobs require 'scenario': a schedule document "
                "with 'phases' (see docs/scenarios.md)",
            )
            _require(
                tuple(methods_raw) == ("st_fast",),
                "scenario jobs evaluate the st_fast method only",
            )
            # Validate eagerly (400 at submit time) and canonicalise, so
            # the fingerprint keys on the normalised schedule rather than
            # whichever optional keys the client happened to spell out.
            from repro.scenario.schedule import Scenario

            try:
                scenario_doc = Scenario.from_dict(scenario_raw).as_dict()
            except ReproError as exc:
                raise ServiceError(
                    f"invalid 'scenario' document: {exc}"
                ) from exc
        else:
            _require(
                scenario_raw is None,
                "'scenario' applies to scenario jobs only",
            )
        known = {
            "kind", "design", "setup", "grid", "rho", "vdd", "ppm",
            "methods", "method", "mc_chips", "seed", "t_min", "t_max",
            "points", "shards", "times", "scenario",
        }
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown field(s): {', '.join(unknown)}")
        return cls(
            kind=kind,
            design=design,
            setup=setup,
            grid=grid,
            rho=rho,
            vdd=_as_float(data, "vdd", None),
            ppm=ppm,
            methods=tuple(methods_raw),
            mc_chips=mc_chips,
            seed=_as_int(data, "seed", 0),
            t_min=t_min,
            t_max=t_max,
            points=points,
            shards=(
                tuple(int(i) for i in shards_raw)
                if isinstance(shards_raw, list)
                else None
            ),
            times=(
                tuple(float(v) for v in times_raw)
                if isinstance(times_raw, list)
                else None
            ),
            scenario=scenario_doc,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form; ``from_dict`` of it round-trips exactly."""
        doc = dataclasses.asdict(self)
        doc["methods"] = list(self.methods)
        doc["shards"] = list(self.shards) if self.shards is not None else None
        doc["times"] = list(self.times) if self.times is not None else None
        return doc

    @property
    def key(self) -> str:
        """Content address of the result this request determines."""
        return fingerprint({"kind": "service.job", "request": self.as_dict()})

    @property
    def uses_mc(self) -> bool:
        """True when the job runs the sharded Monte-Carlo reference."""
        if self.kind == "mc_shards":
            return True
        return self.kind == "lifetime" and "mc" in self.methods

    def build_analyzer(self) -> ReliabilityAnalyzer:
        """The analyzer for this request (mirrors the CLI's semantics)."""
        if self.setup is not None:
            floorplan, budget, obd_model, config = _load_setup(self.setup)
            if self.vdd is not None:
                config = dataclasses.replace(config, vdd=self.vdd)
            return ReliabilityAnalyzer(
                floorplan, budget=budget, obd_model=obd_model, config=config
            )
        assert self.design is not None
        floorplan = make_benchmark(self.design)
        config = AnalysisConfig(
            grid_size=self.grid, rho_dist=self.rho, vdd=self.vdd
        )
        return ReliabilityAnalyzer(floorplan, config=config)


def _load_setup(setup: dict[str, Any]) -> Any:
    """design_json parse with service-flavoured error reporting."""
    from repro.io.design_json import setup_from_dict

    try:
        return setup_from_dict(setup)
    except ServiceError:
        raise
    except ReproError as exc:
        raise ServiceError(f"invalid 'setup' document: {exc}") from exc


def run_job(
    request: JobRequest,
    cancel_check: Callable[[], bool] | None = None,
    checkpoint_path: str | None = None,
) -> dict[str, Any]:
    """Evaluate a request into its CLI-identical result payload.

    ``cancel_check``/``checkpoint_path`` flow into the sharded MC engine
    (the only long-running path): cancellation takes effect at shard
    boundaries and a flushed checkpoint lets an interrupted job resume.
    """
    if request.kind == "report":
        return payloads.report_payload(request.build_analyzer)
    analyzer = request.build_analyzer()
    if request.kind == "mc_shards":
        assert request.shards is not None and request.times is not None
        return payloads.mc_shards_payload(
            analyzer,
            list(request.times),
            list(request.shards),
            mc_chips=request.mc_chips,
            seed=request.seed,
            checkpoint_path=checkpoint_path,
            cancel_check=cancel_check,
        )
    if request.kind == "scenario":
        from repro.scenario.schedule import Scenario

        assert request.scenario is not None
        return payloads.scenario_payload(
            analyzer,
            Scenario.from_dict(request.scenario),
            request.ppm,
        )
    if request.kind == "curve":
        assert request.t_min is not None and request.t_max is not None
        return payloads.curve_payload(
            analyzer,
            request.methods[0],
            t_min=request.t_min,
            t_max=request.t_max,
            points=request.points,
        )
    return payloads.lifetime_payload(
        analyzer,
        request.ppm,
        request.methods,
        mc_chips=request.mc_chips,
        seed=request.seed,
        checkpoint_path=checkpoint_path,
        cancel_check=cancel_check,
    )
