"""End-to-end HTTP tests: real sockets via ThreadingHTTPServer."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import JobManager, ReliabilityService, make_server

TINY = {"kind": "lifetime", "design": "C1", "grid": 6}


@pytest.fixture()
def base_url():
    manager = JobManager(workers=1, max_queue=4)
    manager.start()
    server = make_server("127.0.0.1", 0, ReliabilityService(manager))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    thread.join(5.0)
    manager.shutdown(drain_timeout=10.0)
    server.server_close()


def _call(method, url, body=None, headers=None):
    request = urllib.request.Request(
        url, data=body, method=method, headers=dict(headers or {})
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def _submit(base_url, doc):
    return _call(
        "POST",
        f"{base_url}/v1/jobs",
        json.dumps(doc).encode("utf-8"),
        {"Content-Type": "application/json"},
    )


def _wait_done(base_url, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, body, _ = _call("GET", f"{base_url}/v1/jobs/{job_id}")
        state = json.loads(body)["state"]
        if state in ("done", "failed", "cancelled"):
            return state
        time.sleep(0.05)
    raise AssertionError("job did not finish")


class TestHttpEndToEnd:
    def test_submit_poll_result(self, base_url):
        status, body, headers = _submit(base_url, TINY)
        assert status == 201
        doc = json.loads(body)
        assert headers["Location"] == f"/v1/jobs/{doc['id']}"
        assert _wait_done(base_url, doc["id"]) == "done"
        status, body, _ = _call(
            "GET", f"{base_url}/v1/jobs/{doc['id']}/result"
        )
        assert status == 200
        result = json.loads(body)
        assert result["schema_version"] == 2
        assert "st_fast" in result["lifetime_hours"]

    def test_health_and_metrics(self, base_url):
        status, body, _ = _call("GET", f"{base_url}/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body, _ = _call("GET", f"{base_url}/metrics")
        assert status == 200
        assert b"repro_service_jobs_queued" in body

    def test_client_id_header_keys_admission(self, base_url):
        status, body, _ = _submit(base_url, dict(TINY, seed=5))
        assert status == 201

    def test_delete_over_http(self, base_url):
        status, body, _ = _submit(base_url, dict(TINY, seed=6))
        doc = json.loads(body)
        status, _, _ = _call("DELETE", f"{base_url}/v1/jobs/{doc['id']}")
        assert status == 202

    def test_404_has_error_envelope(self, base_url):
        status, body, _ = _call("GET", f"{base_url}/v1/jobs/zzz")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"
