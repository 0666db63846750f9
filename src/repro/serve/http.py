"""The service's HTTP/JSON surface — stdlib only, no frameworks.

Endpoints (all JSON unless noted):

=======  ========================  =======================================
Method   Path                      Meaning
=======  ========================  =======================================
POST     ``/jobs``                 Submit a job (Scenario JSON + options)
GET      ``/jobs``                 List jobs (``?state=``, ``?client=``)
GET      ``/jobs/<id>``            One job's public record
GET      ``/jobs/<id>/events``     **NDJSON stream** of the job's events,
                                   one JSON object per line, closed after
                                   the terminal event
POST     ``/jobs/<id>/cancel``     Cancel a job (idempotent)
GET      ``/stats``                Admission / dedup / cache / store stats
GET      ``/metrics``              ``/stats`` plus the obs metrics registry
                                   (counters, phase-timing spans) and
                                   engine-resolution counts
GET      ``/healthz``              Liveness probe
POST     ``/shutdown``             Graceful drain + exit
=======  ========================  =======================================

The request body of ``POST /jobs``::

    {"scenario": {...Scenario JSON...},
     "trials": 32,            # optional (exclusive with "seeds")
     "seeds": [1, 2, 3],      # optional explicit seed list
     "engine": "fast",        # optional engine override
     "client": "alice"}       # optional client label

Error mapping is uniform: admission rejections surface as their
:class:`~repro.serve.queue.AdmissionError` status (429 queue/budget,
503 draining), malformed scenarios/options as 400, unknown jobs as
404, everything unexpected as 500 — always with a JSON body
``{"error": ..., "reason": ...}``.

Built on :class:`http.server.ThreadingHTTPServer`: one thread per
connection is exactly right for a handful of lab clients, costs no
dependencies, and lets the event stream block in
:meth:`~repro.serve.jobs.JobTable.wait_for_events` without starving
other requests.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..api.scenario import Scenario, ScenarioError
from .jobs import StateError, job_view
from .queue import AdmissionError

#: Upper bound on request bodies (a Scenario JSON is a few KiB).
MAX_BODY_BYTES = 4 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer wired to a :class:`~repro.serve.app.ServiceApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app) -> None:
        super().__init__(address, ServiceHandler)
        self.app = app


class ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        self.server.app.log(f"{self.address_string()} {format % args}")

    def _send_json(self, status: int, payload: dict) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, error: str, reason: str) -> None:
        self._send_json(status, {"error": error, "reason": reason})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body; expected JSON")
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValueError(
                f"request body must be a JSON object, got {type(data).__name__}"
            )
        return data

    # -- routing ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["healthz"]:
                self._send_json(200, {"status": "ok"})
            elif parts == ["stats"]:
                self._send_json(200, self.server.app.stats())
            elif parts == ["metrics"]:
                self._send_json(200, self.server.app.metrics())
            elif parts == ["jobs"]:
                self._list_jobs(parse_qs(parsed.query))
            elif len(parts) == 2 and parts[0] == "jobs":
                self._get_job(parts[1])
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "events":
                self._stream_events(parts[1])
            else:
                self._error(404, "not_found", f"no route for GET {parsed.path}")
        except BrokenPipeError:
            pass  # client hung up mid-stream; nothing to answer
        except Exception as exc:  # uniform 500 mapping
            self._safe_error(500, "internal", str(exc))

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["jobs"]:
                self._submit_job()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._cancel_job(parts[1])
            elif parts == ["shutdown"]:
                self._shutdown()
            else:
                self._error(404, "not_found", f"no route for POST {parsed.path}")
        except AdmissionError as exc:
            self._error(exc.status, "rejected", exc.reason)
        except (ScenarioError, ValueError) as exc:
            self._error(400, "bad_request", str(exc))
        except KeyError as exc:
            self._error(404, "not_found", str(exc.args[0] if exc.args else exc))
        except BrokenPipeError:
            pass
        except Exception as exc:
            self._safe_error(500, "internal", str(exc))

    def _safe_error(self, status: int, error: str, reason: str) -> None:
        try:
            self._error(status, error, reason)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass

    # -- handlers --------------------------------------------------------
    def _submit_job(self) -> None:
        data = self._read_body()
        if "scenario" not in data:
            raise ValueError("request must carry a 'scenario' object")
        scenario = Scenario.from_dict(data["scenario"])
        trials = data.get("trials")
        seeds = data.get("seeds")
        engine = data.get("engine")
        client = str(data.get("client") or "anonymous")
        if trials is not None and (
            not isinstance(trials, int) or isinstance(trials, bool)
        ):
            raise ValueError(f"trials must be an integer, got {trials!r}")
        if seeds is not None and not isinstance(seeds, list):
            raise ValueError(f"seeds must be a list, got {type(seeds).__name__}")
        job = self.server.app.queue.submit(
            scenario, trials=trials, seeds=seeds, engine=engine, client=client
        )
        self._send_json(202 if job["state"] == "queued" else 200, job_view(job))

    def _get_job(self, job_id: str) -> None:
        job = self.server.app.table.get(job_id)
        if job is None:
            self._error(404, "not_found", f"unknown job {job_id!r}")
            return
        with self.server.app.table.lock:
            self._send_json(200, job_view(job))

    def _list_jobs(self, query: dict) -> None:
        state = query.get("state", [None])[0]
        client = query.get("client", [None])[0]
        try:
            jobs = self.server.app.table.list(state=state, client=client)
        except StateError as exc:
            self._error(400, "bad_request", str(exc))
            return
        with self.server.app.table.lock:
            self._send_json(200, {"jobs": [job_view(job) for job in jobs]})

    def _cancel_job(self, job_id: str) -> None:
        changed = self.server.app.queue.cancel(job_id)
        job = self.server.app.table.get(job_id)
        view = job_view(job) if job is not None else {"id": job_id}
        view["cancelled_now"] = changed
        self._send_json(200, view)

    def _shutdown(self) -> None:
        self._send_json(202, {"status": "draining"})
        # Answer first, then drain: the requester must get its response
        # before the listener goes away.
        threading.Thread(
            target=self.server.app.shutdown, name="serve-shutdown", daemon=True
        ).start()

    def _stream_events(self, job_id: str) -> None:
        """NDJSON event stream: one event per line, until terminal.

        Chunked transfer (HTTP/1.1) so the connection can stream an
        unknown number of events; ends with the terminal-state event.
        """
        table = self.server.app.table
        if table.get(job_id) is None:
            self._error(404, "not_found", f"unknown job {job_id!r}")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        seq = -1
        terminal = False
        try:
            while not terminal:
                events, terminal = table.wait_for_events(
                    job_id, seq, timeout=1.0
                )
                for event in events:
                    self._write_chunk(
                        json.dumps(event, sort_keys=True) + "\n"
                    )
                    seq = event["seq"]
            self._write_chunk("")  # terminating zero-length chunk
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client disconnected; the job carries on regardless

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()

