"""Stdlib HTTP adapter: ThreadingHTTPServer over the application layer.

The handler reads a request (method, path, body, client id) off the
socket and hands it verbatim to :meth:`ReliabilityService.handle`; it
contains no routing or business logic.  ``ThreadingHTTPServer`` with
daemon threads is enough here — handlers only validate, enqueue and read
dictionaries; the actual analysis runs on the
:class:`~repro.service.jobs.JobManager` worker pool, so request threads
never block on a solve.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.logging import get_logger
from repro.service.app import ReliabilityService

__all__ = ["ServiceHTTPServer", "make_server"]

logger = get_logger("service.http")


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request: decode, dispatch to the app layer, encode."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    def _client_id(self) -> str:
        return self.headers.get("X-Client-Id") or self.client_address[0]

    def _trace_id(self) -> str | None:
        """The caller's ``X-Trace-Id``, sanitised (short token or nothing)."""
        raw = (self.headers.get("X-Trace-Id") or "").strip()
        if raw and len(raw) <= 128 and raw.isprintable():
            return raw
        return None

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _dispatch(self, method: str) -> None:
        response = self.server.app.handle(
            method,
            self.path,
            self._read_body(),
            self._client_id(),
            trace_id=self._trace_id(),
        )
        # Status line, headers and body leave in one write: a separate
        # body write on a kept-alive connection waits ~40 ms for the
        # client's delayed ACK.  The head is what send_response,
        # send_header and end_headers would write.
        self.log_request(response.status)
        headers = {
            "Server": self.version_string(),
            "Date": self.date_time_string(),
            "Content-Type": response.content_type,
            "Content-Length": str(len(response.body)),
            **response.headers,
        }
        reason = self.responses.get(response.status, ("",))[0]
        head = f"{self.protocol_version} {response.status} {reason}\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        self.wfile.write(head.encode("latin-1") + b"\r\n" + response.body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server's access log into the obs logger."""
        logger.info("%s %s", self.address_string(), format % args)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReliabilityService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: ReliabilityService) -> None:
        super().__init__(address, _Handler)
        self.app = app


def make_server(
    host: str, port: int, app: ReliabilityService
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port)."""
    server = ServiceHTTPServer((host, port), app)
    logger.info("bound http server on %s:%d", *server.server_address[:2])
    return server
