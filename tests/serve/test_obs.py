"""Observability surface of the daemon: /metrics, resolution counts, logs."""

import json
import urllib.request

import pytest

from repro.serve import ServiceApp, ServiceConfig
from repro.serve.client import ServiceClient

from .conftest import make_scenario


@pytest.fixture
def client(app):
    return ServiceClient(app.url, timeout=30.0)


def _get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as reply:
        return json.loads(reply.read().decode("utf-8"))


class TestMetricsEndpoint:
    def test_metrics_route_serves_registry_snapshot(self, app, client):
        job = client.submit(make_scenario(), trials=2)
        client.wait(job["id"], timeout=60)
        payload = _get_json(app.url + "/metrics")
        assert payload["schema"] == "repro-metrics/1"
        registry = payload["registry"]
        assert set(registry) == {"counters", "gauges", "timers"}
        # The campaign phases show up as span timers.
        assert "span.simulate" in registry["timers"]
        assert registry["timers"]["span.simulate"]["count"] >= 1

    def test_metrics_includes_stats_sections(self, app, client):
        payload = _get_json(app.url + "/metrics")
        for section in ("admission", "dedup", "jobs", "engine", "service"):
            assert section in payload
        assert payload["run_log"] is None

    def test_stats_route_is_unchanged(self, client):
        # /metrics is additive; /stats keeps answering.
        assert client.stats()["service"]["draining"] is False


class TestEngineResolutionCounts:
    def test_stats_track_requested_vs_used(self, app, client):
        job = client.submit(make_scenario(), trials=2)
        client.wait(job["id"], timeout=60)
        resolution = client.stats()["engine_resolution"]
        # App fixture runs engine=fast; fast resolves to itself.
        assert resolution.get("fast", {}).get("fast", 0) >= 1

    def test_fallback_shows_divergent_resolution(self, tmp_path):
        # A beacon host outside the deployment cannot be masked by
        # either compiled engine, so a vectorized request resolves to
        # reference — and the counts say so.
        import dataclasses

        base = make_scenario("fallback")
        scenario = dataclasses.replace(
            base,
            simulation=dataclasses.replace(
                base.simulation, host_node="base_station"
            ),
        )
        service = ServiceApp(ServiceConfig(
            port=0,
            workers=1,
            store=str(tmp_path / "serve.sqlite"),
            trial_batch=2,
            engine="vectorized",
        ))
        service.start()
        try:
            client = ServiceClient(service.url, timeout=30.0)
            job = client.submit(scenario, trials=2)
            assert client.wait(job["id"], timeout=60)["state"] == "done"
            resolution = client.stats()["engine_resolution"]
            assert resolution["vectorized"]["reference"] >= 1
        finally:
            service.shutdown()


class TestServiceRunLog:
    def test_log_dir_captures_service_lifecycle(self, tmp_path):
        service = ServiceApp(ServiceConfig(
            port=0,
            workers=1,
            store=str(tmp_path / "serve.sqlite"),
            trial_batch=2,
            engine="fast",
            log_dir=str(tmp_path / "logs"),
        ))
        service.start()
        try:
            client = ServiceClient(service.url, timeout=30.0)
            job = client.submit(make_scenario(), trials=2)
            client.wait(job["id"], timeout=60)
            payload = _get_json(service.url + "/metrics")
            assert payload["run_log"] is not None
        finally:
            service.shutdown()

        from repro.obs import read_log

        events = read_log(service.run_log.path)
        kinds = [event.kind for event in events]
        assert kinds[0] == "serve.start"
        assert kinds[-1] == "serve.stop"
        assert "job" in kinds
        job_states = {
            event.data.get("state")
            for event in events
            if event.kind == "job"
        }
        assert "done" in job_states

    def test_no_log_dir_means_no_log(self, app):
        assert app.run_log is None
