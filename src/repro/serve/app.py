"""Service assembly: shared resources, lifecycle, signals.

One :class:`ServiceApp` owns exactly one of each shared resource and
threads them through every request:

* a :class:`~repro.engine.cache.ScheduleCache` — the *second* request
  for a known scenario pays a file read, not a solver run;
* a :class:`~repro.dse.store.ResultStore` — completed work (from this
  process, a previous incarnation, or a ``scenario explore`` run
  against the same file) answers submissions without executing
  anything, which is the restart-resume story: SIGTERM drains, the
  process exits 0, the next start re-opens the same store and
  re-submitted jobs go ``queued -> done`` immediately;
* a :class:`~repro.engine.trials.TrialPool` held for the daemon's
  lifetime — trial workers stay up across jobs, with per-scenario
  contexts cached worker-side under their content key.

Signal handling: SIGTERM and SIGINT both trigger a graceful drain
(stop admitting -> finish queued and running jobs -> close pool,
store, listener -> return from :meth:`ServiceApp.run`).  Handlers are
only installed by :meth:`run` (signals work in main threads only);
embedding code — the tests — calls :meth:`start` / :meth:`shutdown`
directly.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional

from ..dse.store import open_store
from ..engine.cache import ScheduleCache
from ..engine.trials import TrialPool
from ..obs.events import RunLog, emit, set_run_log
from ..obs.metrics import REGISTRY
from ..runtime.trial import build_context, check_engine, execute_trial_batch
from .http import ServiceHTTPServer
from .jobs import JobTable
from .queue import JobQueue


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune.

    Attributes:
        host / port: Listen address; port 0 picks a free port (the
            chosen one is printed on the ``listening on`` line).
        workers: Queue worker threads (concurrent executions).
        jobs: Trial worker *processes* in the daemon's trial pool; 1
            runs trials in the worker thread itself.
        store: Result-store path (``.sqlite`` / ``.jsonl``); ``None``
            keeps results in memory only — no restart-resume.
        cache_dir: Schedule-cache directory; ``None`` disables the
            cross-request schedule cache.
        cache_entries / cache_bytes: LRU bounds for the schedule cache.
        max_queued / max_trials: Admission knobs (see
            :class:`~repro.serve.queue.JobQueue`).
        trial_batch: Trials per execution batch — the progress-event
            and cancellation granularity.
        engine: Default trial engine for submissions that name none.
        history: Terminal jobs kept for ``GET /jobs``.
        drain_timeout: Seconds :meth:`ServiceApp.shutdown` waits for
            workers to finish before giving up (``None``: forever).
        log_dir: Run-log directory; ``None`` (the default) disables
            structured event logging for the daemon's lifetime.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    jobs: int = 1
    store: Optional[str] = None
    cache_dir: Optional[str] = None
    cache_entries: Optional[int] = None
    cache_bytes: Optional[int] = None
    max_queued: int = 64
    max_trials: int = 100_000
    trial_batch: int = 16
    engine: str = "fast"
    history: int = 1024
    drain_timeout: Optional[float] = 60.0
    log_dir: Optional[str] = None
    log_stream: Optional[IO[str]] = field(default=None, repr=False)

    def validate(self) -> None:
        check_engine(self.engine)
        for name in ("workers", "jobs", "max_queued", "max_trials",
                     "trial_batch", "history"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


class ServiceApp:
    """The assembled daemon: table + queue + shared resources + HTTP."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        self.started = time.time()
        self._log_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._shutdown_complete = threading.Event()

        self.table = JobTable(history=self.config.history)
        self.store = open_store(self.config.store)
        self.cache = (
            ScheduleCache(
                Path(self.config.cache_dir),
                max_entries=self.config.cache_entries,
                max_bytes=self.config.cache_bytes,
            )
            if self.config.cache_dir is not None
            else None
        )
        self.pool = TrialPool(
            build_context, execute_trial_batch, jobs=self.config.jobs
        )
        self.queue = JobQueue(
            self.table,
            self.store,
            self.pool,
            cache=self.cache,
            workers=self.config.workers,
            max_queued=self.config.max_queued,
            max_trials=self.config.max_trials,
            trial_batch=self.config.trial_batch,
            engine=self.config.engine,
        )
        self.server: Optional[ServiceHTTPServer] = None
        # Structured run log, scoped to the daemon's lifetime: opened
        # here, restored (and closed) at the end of shutdown().
        self.run_log: Optional[RunLog] = None
        self._previous_log: Optional[RunLog] = None
        if self.config.log_dir is not None:
            self.run_log = RunLog(self.config.log_dir)
            self._previous_log = set_run_log(self.run_log)

    # -- observability ---------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self._stop_event.is_set()

    def log(self, message: str) -> None:
        stream = self.config.log_stream
        if stream is None:
            stream = sys.stderr
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        with self._log_lock:
            try:
                stream.write(f"[{stamp}] {message}\n")
                stream.flush()
            except ValueError:  # stream already closed during teardown
                pass

    def stats(self) -> dict:
        payload = self.queue.stats()
        payload["service"] = {
            "uptime": time.time() - self.started,
            "draining": self.stopping,
            "workers": self.config.workers,
            "trial_jobs": self.config.jobs,
            "engine": self.config.engine,
        }
        payload["store"] = {
            "path": str(self.store.path) if self.store.path else None,
            "records": len(self.store),
        }
        payload["cache"] = self.cache.usage() if self.cache is not None else None
        return payload

    def metrics(self) -> dict:
        """The ``GET /metrics`` payload: stats plus the obs registry.

        A superset of :meth:`stats` — everything ``/stats`` reports,
        the process-wide metrics registry (counters, gauges, and the
        phase-timing ``span.*`` timers), and the run-log location.
        """
        payload = self.stats()
        payload["schema"] = "repro-metrics/1"
        payload["registry"] = REGISTRY.snapshot()
        payload["run_log"] = (
            str(self.run_log.path) if self.run_log is not None else None
        )
        return payload

    @property
    def address(self) -> "tuple[str, int]":
        if self.server is None:
            raise RuntimeError("service is not listening (call start first)")
        host, port = self.server.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ServiceApp":
        """Bind the listener and start workers; returns self."""
        self.queue.start()
        self.server = ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self._listener = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-listener",
            daemon=True,
        )
        self._listener.start()
        self.log(
            f"listening on {self.url} "
            f"(workers={self.config.workers}, jobs={self.config.jobs}, "
            f"store={self.config.store or 'memory'})"
        )
        emit(
            "serve.start", url=self.url, workers=self.config.workers,
            jobs=self.config.jobs, store=self.config.store,
        )
        if self.run_log is not None:
            self.log(f"run log: {self.run_log.path}")
        return self

    def shutdown(self) -> None:
        """Graceful drain: reject new work, finish admitted work, exit.

        Idempotent and thread-safe — the HTTP handler, a signal
        handler, and an ``atexit`` path may all race into it.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                # A concurrent caller is (or was) draining; wait for it
                # so "shutdown returned" always means "fully stopped".
                self._shutdown_complete.wait()
                return
            self._shutdown_done = True
        self._stop_event.set()
        self.log("draining: admissions closed")
        drained = self.queue.drain(timeout=self.config.drain_timeout)
        self.log(
            "drain complete" if drained
            else f"drain timed out after {self.config.drain_timeout}s"
        )
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        self.pool.close()
        self.store.close()
        emit("serve.stop", drained=drained, uptime=time.time() - self.started)
        if self.run_log is not None:
            set_run_log(self._previous_log)
            self.run_log.close()
        self.log("bye")
        self._shutdown_complete.set()

    def run(self) -> int:
        """Start, install signal handlers, block until shutdown.

        Returns the process exit code: 0 after a drain (including one
        triggered by SIGTERM or ``POST /shutdown``), 130 for SIGINT —
        the interactive-interrupt convention.
        """
        exit_code = {"value": 0}
        finished = threading.Event()

        def _terminate(signum, _frame) -> None:
            if signum == signal.SIGINT:
                exit_code["value"] = 130
            self.log(f"signal {signal.Signals(signum).name}: shutting down")
            # Drain from a helper thread: the handler must return fast,
            # and shutdown joins worker threads.
            threading.Thread(
                target=self._finish, args=(finished,), daemon=True
            ).start()

        self.start()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _terminate)
        try:
            while not finished.is_set():
                if self._stop_event.is_set():
                    # POST /shutdown path: drain already running in its
                    # own thread; wait for it to finish.
                    self._finish(finished)
                    break
                finished.wait(0.2)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return exit_code["value"]

    def _finish(self, finished: threading.Event) -> None:
        try:
            self.shutdown()
        finally:
            finished.set()

    # -- embedding sugar -------------------------------------------------
    def __enter__(self) -> "ServiceApp":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
