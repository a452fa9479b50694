"""Seeded analysis requests, their CLI form and their reference bytes.

A request is a ``POST /v1/jobs`` document (``kind`` lifetime, curve or
scenario over a built-in design).  The same document becomes a CLI argv
for cli_warm and an HTTP body for service_open; its reference is the
in-process :mod:`repro.payloads` document, serialised the way both front
ends serialise it.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Any

from spec import CLOSED_FORM, DESIGNS, PPMS

KINDS = ("lifetime", "curve", "scenario")


def _sig(value: float) -> float:
    return float(f"{value:.4g}")


class _Bag:
    """Seeded draws without replacement, refilled when empty.

    Drawing request features from bags instead of independently keeps
    every run's mix in the same proportions, so runs with different
    seeds cost about the same.
    """

    def __init__(self, rng: random.Random, values: tuple) -> None:
        self.rng, self.values, self.items = rng, values, []

    def draw(self):
        if not self.items:
            self.items = self.rng.sample(self.values, len(self.values))
        return self.items.pop()


_MECHANISMS = (("obd",), ("obd", "nbti"), ("obd", "em"), ("obd", "nbti", "em"))


class RequestMaker:
    """Seeded lifetime / curve / scenario requests over C1-C6.

    Kinds and designs come from their own bags, so any six consecutive
    requests cover every design; each kind draws the features that set
    its cost (method count, curve method and points, scenario shape) from
    one bag over their product.
    """

    def __init__(self, rng: random.Random, grid: int) -> None:
        self.rng, self.grid = rng, grid
        self.kinds = _Bag(rng, KINDS)
        self.designs = _Bag(rng, DESIGNS)
        self.ppms = _Bag(rng, PPMS)
        self.shapes = {
            "lifetime": _Bag(rng, tuple(range(1, len(CLOSED_FORM) + 1))),
            "curve": _Bag(rng, tuple(itertools.product(CLOSED_FORM, (20, 40)))),
            "scenario": _Bag(rng, tuple(itertools.product((True, False), _MECHANISMS))),
        }

    def _scenario(self, turbo: bool, mechanisms: tuple[str, ...]) -> dict[str, Any]:
        rng = self.rng
        phases: list[dict[str, Any]] = [
            {
                "name": "burnin",
                "duration_hours": _sig(rng.uniform(48.0, 336.0)),
                "temperature_c": _sig(rng.uniform(110.0, 130.0)),
                "vdd": _sig(rng.uniform(1.2, 1.35)),
            }
        ]
        if turbo:
            phases.append(
                {
                    "name": "turbo",
                    "duration_hours": _sig(rng.uniform(1000.0, 10000.0)),
                    "power_scale": _sig(rng.uniform(1.1, 1.5)),
                }
            )
        phases.append({"name": "field"})
        return {"phases": phases, "mechanisms": list(mechanisms), "composition": "ordered"}

    def make(self) -> dict[str, Any]:
        kind = self.kinds.draw()
        shape = self.shapes[kind].draw()
        doc: dict[str, Any] = {"kind": kind, "design": self.designs.draw(), "grid": self.grid}
        if kind == "lifetime":
            doc["ppm"] = self.ppms.draw()
            doc["methods"] = self.rng.sample(CLOSED_FORM, shape)
        elif kind == "curve":
            doc["methods"] = [shape[0]]
            doc["t_min"] = _sig(10.0 ** self.rng.uniform(3.0, 4.0))
            doc["t_max"] = _sig(10.0 ** self.rng.uniform(5.5, 6.5))
            doc["points"] = shape[1]
        else:
            doc["ppm"] = self.ppms.draw()
            doc["scenario"] = self._scenario(*shape)
        return doc


def balanced_requests(rng: random.Random, count: int, grid: int) -> list[dict[str, Any]]:
    """``count`` fresh requests in balanced proportions (see :class:`_Bag`)."""
    maker = RequestMaker(rng, grid)
    return [maker.make() for _ in range(count)]


def cli_argv(doc: dict[str, Any], scenario_path: Path | None) -> list[str]:
    """The ``repro`` argv equivalent to a request document."""
    base = ["--design", doc["design"], "--grid", str(doc["grid"])]
    if doc["kind"] == "lifetime":
        return ["lifetime", *base, "--ppm", repr(doc["ppm"]),
                "--method", *doc["methods"], "--json"]
    if doc["kind"] == "curve":
        return ["curve", *base, "--t-min", repr(doc["t_min"]),
                "--t-max", repr(doc["t_max"]), "--points", str(doc["points"]),
                "--method", doc["methods"][0], "--json"]
    assert scenario_path is not None
    return ["scenario", "run", *base, "--scenario", str(scenario_path),
            "--ppm", repr(doc["ppm"]), "--json"]


def request_key(doc: dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


class References:
    """In-process reference bytes, one analyzer per (design, grid).

    Call only after the timed region: it imports the library into the
    harness process.
    """

    def __init__(self) -> None:
        self._analyzers: dict[tuple[str, int], Any] = {}
        self._bytes: dict[str, bytes] = {}

    def _analyzer(self, design: str, grid: int) -> Any:
        from repro.chip.benchmarks import make_benchmark
        from repro.core.analyzer import AnalysisConfig, ReliabilityAnalyzer

        key = (design, grid)
        if key not in self._analyzers:
            self._analyzers[key] = ReliabilityAnalyzer(
                make_benchmark(design), config=AnalysisConfig(grid_size=grid)
            )
        return self._analyzers[key]

    def expected(self, doc: dict[str, Any]) -> bytes:
        key = request_key(doc)
        if key in self._bytes:
            return self._bytes[key]
        from repro import payloads
        from repro.scenario import Scenario

        analyzer = self._analyzer(doc["design"], doc["grid"])
        if doc["kind"] == "lifetime":
            payload = payloads.lifetime_payload(analyzer, doc["ppm"], doc["methods"])
        elif doc["kind"] == "curve":
            payload = payloads.curve_payload(
                analyzer, doc["methods"][0], t_min=doc["t_min"],
                t_max=doc["t_max"], points=doc["points"],
            )
        else:
            payload = payloads.scenario_payload(
                analyzer, Scenario.from_dict(doc["scenario"]), doc["ppm"]
            )
        text = payloads.dump_payload(payloads.stamp_envelope(payload)) + "\n"
        self._bytes[key] = text.encode("utf-8")
        return self._bytes[key]
