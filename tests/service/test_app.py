"""ReliabilityService routing: endpoints, errors, payload identity."""

import json
import time

import pytest

from repro.cli import main
from repro.service import (
    AdmissionController,
    JobManager,
    ReliabilityService,
)


def _json(response):
    return json.loads(response.body.decode("utf-8"))


def _submit(service, doc, client="t"):
    return service.handle(
        "POST", "/v1/jobs", json.dumps(doc).encode("utf-8"), client
    )


def _wait_done(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = _json(service.handle("GET", f"/v1/jobs/{job_id}", b"", "t"))
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


@pytest.fixture()
def service(gated):
    manager = JobManager(workers=1, max_queue=2, compute=gated)
    manager.start()
    yield ReliabilityService(manager)
    gated.release.set()
    manager.shutdown(drain_timeout=5.0)


@pytest.fixture()
def live_service():
    """A service that really computes (tiny design, fast method)."""
    manager = JobManager(workers=1, max_queue=4)
    manager.start()
    yield ReliabilityService(manager)
    manager.shutdown(drain_timeout=10.0)


TINY = {"kind": "lifetime", "design": "C1", "grid": 6}


class TestRouting:
    def test_submit_returns_201_with_location(self, service, gated):
        response = _submit(service, TINY)
        assert response.status == 201
        doc = _json(response)
        assert doc["state"] in ("queued", "running")
        assert response.headers["Location"] == f"/v1/jobs/{doc['id']}"
        gated.release.set()

    def test_unknown_route_404(self, service):
        assert service.handle("GET", "/v1/nope", b"", "t").status == 404

    def test_wrong_method_405(self, service):
        assert service.handle("PUT", "/v1/jobs", b"", "t").status == 405

    def test_unknown_job_404(self, service):
        assert service.handle("GET", "/v1/jobs/zzz", b"", "t").status == 404

    def test_bad_json_body_400(self, service):
        response = service.handle("POST", "/v1/jobs", b"{nope", "t")
        assert response.status == 400
        assert _json(response)["error"]["code"] == "invalid_request"

    def test_invalid_request_400(self, service):
        response = _submit(service, {"kind": "bogus", "design": "C1"})
        assert response.status == 400

    @pytest.mark.parametrize("tier", ["fast32", "float64"])
    def test_precision_field_rejected_400(self, service, tier):
        # Jobs always run the one float64 kernel path, so a precision
        # field is an unknown field whatever its value.
        response = _submit(service, {**TINY, "precision": tier})
        assert response.status == 400
        error = _json(response)["error"]
        assert error["code"] == "invalid_request"
        assert "precision" in error["message"]

    def test_oversized_body_413(self, service):
        body = b"x" * 1_000_001
        assert service.handle("POST", "/v1/jobs", body, "t").status == 413

    def test_result_before_done_409(self, service, gated):
        doc = _json(_submit(service, TINY))
        response = service.handle(
            "GET", f"/v1/jobs/{doc['id']}/result", b"", "t"
        )
        assert response.status == 409
        assert _json(response)["error"]["code"] == "not_ready"
        gated.release.set()

    def test_job_list_includes_submissions(self, service, gated):
        gated.release.set()
        doc = _json(_submit(service, TINY))
        listing = _json(service.handle("GET", "/v1/jobs", b"", "t"))
        assert doc["id"] in [job["id"] for job in listing["jobs"]]

    def test_delete_cancels(self, service, gated):
        doc = _json(_submit(service, TINY))
        response = service.handle("DELETE", f"/v1/jobs/{doc['id']}", b"", "t")
        assert response.status == 202
        gated.release.set()
        final = _wait_done(service, doc["id"])
        assert final["state"] == "cancelled"


class TestHealth:
    def test_healthz(self, service):
        response = service.handle("GET", "/healthz", b"", "t")
        assert response.status == 200
        assert _json(response)["status"] == "ok"

    def test_readyz_reflects_accepting_state(self, service, gated):
        assert service.handle("GET", "/readyz", b"", "t").status == 200
        gated.release.set()
        service.manager.shutdown(drain_timeout=5.0)
        assert service.handle("GET", "/readyz", b"", "t").status == 503

    def test_metrics_exposition_format(self, service):
        response = service.handle("GET", "/metrics", b"", "t")
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        text = response.body.decode("utf-8")
        assert "repro_service_jobs_queued" in text
        assert "# TYPE" in text


class TestAdmission:
    def test_burst_beyond_limit_gets_429_retry_after(self, gated):
        manager = JobManager(workers=1, max_queue=8, compute=gated)
        manager.start()
        service = ReliabilityService(
            manager, AdmissionController(rate=1.0, burst=2)
        )
        try:
            docs = [dict(TINY, seed=i) for i in range(3)]
            assert _submit(service, docs[0]).status == 201
            assert _submit(service, docs[1]).status == 201
            response = _submit(service, docs[2])
            assert response.status == 429
            assert int(response.headers["Retry-After"]) >= 1
            assert _json(response)["error"]["code"] == "rate_limited"
            # A different client is unaffected.
            assert _submit(service, dict(TINY, seed=9), "other").status == 201
        finally:
            gated.release.set()
            manager.shutdown(drain_timeout=5.0)

    def test_queue_overflow_maps_to_429(self, gated):
        manager = JobManager(workers=1, max_queue=1, compute=gated)
        manager.start()
        service = ReliabilityService(manager)
        try:
            _submit(service, dict(TINY, seed=0))
            assert gated.started.wait(5.0)
            _submit(service, dict(TINY, seed=1))
            response = _submit(service, dict(TINY, seed=2))
            assert response.status == 429
            assert "Retry-After" in response.headers
        finally:
            gated.release.set()
            manager.shutdown(drain_timeout=5.0)


class TestPayloadIdentity:
    """The acceptance bar: HTTP result bytes == CLI --json stdout."""

    @pytest.mark.parametrize(
        ("argv", "doc"),
        [
            (
                ["lifetime", "--design", "C1", "--grid", "6", "--json"],
                {"kind": "lifetime", "design": "C1", "grid": 6},
            ),
            (
                [
                    "lifetime",
                    "--design",
                    "C1",
                    "--grid",
                    "6",
                    "--method",
                    "st_fast",
                    "guard",
                    "--ppm",
                    "25",
                    "--json",
                ],
                {
                    "kind": "lifetime",
                    "design": "C1",
                    "grid": 6,
                    "methods": ["st_fast", "guard"],
                    "ppm": 25,
                },
            ),
            (
                [
                    "curve",
                    "--design",
                    "C1",
                    "--grid",
                    "6",
                    "--t-min",
                    "1e4",
                    "--t-max",
                    "1e6",
                    "--points",
                    "5",
                    "--json",
                ],
                {
                    "kind": "curve",
                    "design": "C1",
                    "grid": 6,
                    "t_min": 1e4,
                    "t_max": 1e6,
                    "points": 5,
                },
            ),
        ],
    )
    def test_http_result_matches_cli_bytes(self, live_service, capsys, argv, doc):
        assert main(argv) == 0
        cli_out = capsys.readouterr().out
        submitted = _json(_submit(live_service, doc))
        _wait_done(live_service, submitted["id"])
        response = live_service.handle(
            "GET", f"/v1/jobs/{submitted['id']}/result", b"", "t"
        )
        assert response.status == 200
        assert response.body.decode("utf-8") == cli_out

    def test_report_payload_matches_cli(self, live_service, capsys):
        assert main(["report", "--design", "C1", "--grid", "6", "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        submitted = _json(
            _submit(live_service, {"kind": "report", "design": "C1", "grid": 6})
        )
        _wait_done(live_service, submitted["id"])
        http_doc = _json(
            live_service.handle(
                "GET", f"/v1/jobs/{submitted['id']}/result", b"", "t"
            )
        )
        # The report embeds wall-clock stage timings, so compare the
        # stable structure rather than the raw bytes.
        assert sorted(http_doc) == sorted(cli_doc)
        assert http_doc["execution"] == cli_doc["execution"]
        assert http_doc["report"].splitlines()[0] == cli_doc["report"].splitlines()[0]
