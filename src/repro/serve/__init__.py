"""``repro.serve`` — the toolkit as a long-running service.

Everything below this package turns one-shot batch tools (synthesize,
campaign, explore) into a multi-tenant daemon: clients POST Scenario
JSON to an HTTP API and get back job ids; a worker pool drains an
admission-controlled queue through the existing synthesis and
Monte-Carlo fast paths; identical problems are deduplicated **across
requests** (in-flight attachment plus a shared persistent result
store); and one ScheduleCache + ResultStore + TrialPool stay up
across every request, so the second client ever to ask a question
pays file-read prices, not solver prices.

Module map (each is documented in :doc:`docs/SERVICE.md`):

* :mod:`repro.serve.jobs`  — the JobTable: dict job records moving
  through an explicit state machine with redundant indices;
* :mod:`repro.serve.dedup` — content-addressed request identity and
  in-flight execution sharing;
* :mod:`repro.serve.queue` — admission control and the worker threads
  that execute jobs;
* :mod:`repro.serve.http`  — the stdlib HTTP/JSON API (incl. NDJSON
  event streaming);
* :mod:`repro.serve.app`   — wiring, lifecycle, signals;
* :mod:`repro.serve.client`— a small stdlib client (used by
  ``repro scenario submit``).
"""

from .app import ServiceApp, ServiceConfig
from .client import ServiceClient, ServiceError, ServiceUnavailable
from .dedup import job_key
from .jobs import STATES, JobTable, StateError
from .queue import AdmissionError, JobQueue

__all__ = [
    "AdmissionError",
    "JobQueue",
    "JobTable",
    "STATES",
    "ServiceApp",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailable",
    "StateError",
    "job_key",
]
