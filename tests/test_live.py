"""Tests for the live telemetry plane (repro.obs.live): the tolerant
run tailer and the streaming metrics/alerts HTTP server."""

import json
import threading
import time
import urllib.request

import pytest

from repro.obs import set_run
from repro.obs.live import LiveServer, RunTailer
from repro.obs.prometheus import parse_prometheus
from repro.obs.runs import RunWriter


@pytest.fixture(autouse=True)
def _no_leaked_run():
    yield
    set_run(None)


def make_run(root, events=(), finalize=True, run_id="r1"):
    writer = RunWriter.create(root=root, run_id=run_id, seed=0,
                              config={})
    for kind, step, data in events:
        writer.emit(kind, step=step, data=data)
    if finalize:
        writer.finalize(summary={})
    return writer


def get(url, headers=None, timeout=10):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.read().decode()


def sse_events(payload):
    """Decode an SSE payload into a list of (id, event-dict)."""
    out = []
    current_id = None
    for line in payload.splitlines():
        if line.startswith("id: "):
            current_id = int(line[4:])
        elif line.startswith("data: ") and line != "data: {}":
            out.append((current_id, json.loads(line[6:])))
    return out


STEP_EVENTS = [
    ("train_begin", 0, {"steps": 3}),
    ("step", 0, {"loss": 2.0, "grad_norm": 1.0}),
    ("routing", 0, {"layer": 0, "entropy": 0.9,
                    "dropped_fraction": 0.0,
                    "expert_load": [8, 8, 8, 8]}),
    ("step", 1, {"loss": 1.5, "grad_norm": 0.9}),
    ("step", 2, {"loss": 1.2, "grad_norm": 0.8}),
]


class TestRunTailer:
    def test_folds_events_incrementally(self, tmp_path):
        writer = make_run(tmp_path, finalize=False)
        tailer = RunTailer(writer.directory)
        assert tailer.poll() == 0  # nothing emitted yet
        writer.emit("step", step=0, data={"loss": 2.0})
        writer.emit("step", step=1, data={"loss": 1.0})
        added = tailer.poll()
        assert added == 2
        assert tailer.registry.gauges["train.loss"].value == 1.0
        assert tailer.poll() == 0  # no new lines, no double-count
        writer.finalize(summary={})
        tailer.poll()
        assert tailer.complete()

    def test_failed_run_is_terminal(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS[:2],
                          finalize=False)
        tailer = RunTailer(writer.directory)
        tailer.poll()
        assert not tailer.complete()
        writer.finalize(error=RuntimeError("crashed"))
        tailer.poll()
        assert tailer.status == "failed" and tailer.complete()
        # ...so an SSE follower of a crashed run gets its "end".
        with LiveServer(writer.directory, port=0) as srv:
            assert "event: end" in get(srv.url + "/events")
            health = json.loads(get(srv.url + "/healthz"))
            assert health["run_status"] == "failed"

    def test_tolerates_torn_final_line(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS[:2],
                          finalize=False)
        path = writer.directory / "events.jsonl"
        whole = path.read_text()
        # Simulate a writer caught mid-line: half a JSON record with
        # no trailing newline.
        torn = '{"schema": 1, "seq": 99, "kind": "st'
        path.write_text(whole + torn)
        tailer = RunTailer(writer.directory)
        tailer.poll()
        events = tailer.snapshot_events()
        assert [e["seq"] for e in events] == [0, 1]
        assert tailer.skipped_lines == 0
        # The writer finishes the line: the tail must pick it up whole.
        path.write_text(whole + torn + 'ep", "step": 9, "data": {}}\n')
        assert tailer.poll() == 1
        assert tailer.snapshot_events()[-1]["seq"] == 99

    def test_skips_corrupt_complete_line(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS[:2],
                          finalize=False)
        path = writer.directory / "events.jsonl"
        with open(path, "a") as fh:
            fh.write("!!corrupt!!\n")
        writer.emit("step", step=5, data={"loss": 0.5})
        tailer = RunTailer(writer.directory)
        tailer.poll()
        assert tailer.skipped_lines == 1
        assert tailer.snapshot_events()[-1]["step"] == 5

    def test_ticks_alert_engine_on_steps(self, tmp_path):
        # Three steps with a dead expert (share 0) and collapsed
        # entropy: the entropy rule (for_ticks=3) must fire on the
        # tailer's own engine by the 4th step tick.
        events = [("train_begin", 0, {})]
        for s in range(6):
            events.append(("step", s, {"loss": 1.0}))
            events.append(("routing", s, {
                "layer": 0, "entropy": 0.1, "dropped_fraction": 0.5,
                "expert_load": [0, 10, 10, 10]}))
        writer = make_run(tmp_path, events=events)
        tailer = RunTailer(writer.directory)
        tailer.poll()
        assert "routing_entropy_floor" in tailer.engine.firing()
        assert "drop_rate_high" in tailer.engine.firing()
        text = tailer.render_metrics()
        fam = parse_prometheus(text)["ALERTS"]
        key = 'ALERTS{alertname="routing_entropy_floor",severity="warn"}'
        assert fam["samples"][key] == 1.0

    def test_mirrors_inprocess_alert_events(self, tmp_path):
        writer = make_run(tmp_path, events=[
            ("alert", 3, {"alertname": "serving_p99_high",
                          "severity": "critical", "state": "firing",
                          "value": 99.0, "threshold": 50.0,
                          "message": "x [firing]"})])
        tailer = RunTailer(writer.directory)
        tailer.poll()
        fam = parse_prometheus(tailer.render_metrics())["ALERTS"]
        key = ('ALERTS{alertname="serving_p99_high"'
               ',severity="critical"}')
        assert fam["samples"][key] == 1.0

    def test_fault_events_update_outstanding_gauge(self, tmp_path):
        writer = make_run(tmp_path, events=[
            ("fault", None, {"kind": "link_brownout"}),
            ("step", 0, {"loss": 1.0})])
        tailer = RunTailer(writer.directory)
        tailer.poll()
        assert tailer.engine.outstanding_faults == 1
        reg = tailer.registry
        assert reg.gauges["faults.outstanding"].value == 1.0


class TestLiveServer:
    def test_metrics_advance_between_scrapes(self, tmp_path):
        """The tentpole acceptance check: scrape /metrics twice while
        the producer is mid-run; both parse, and the second shows
        more events than the first."""
        writer = make_run(tmp_path, events=STEP_EVENTS[:3],
                          finalize=False)
        with LiveServer(writer.directory, port=0) as srv:
            first = parse_prometheus(get(srv.url + "/metrics"))
            n1 = first["run_events_total"]["samples"][
                "run_events_total"]
            writer.emit("step", step=1, data={"loss": 0.9})
            writer.emit("step", step=2, data={"loss": 0.8})
            writer.finalize(summary={})
            second = parse_prometheus(get(srv.url + "/metrics"))
            n2 = second["run_events_total"]["samples"][
                "run_events_total"]
            assert n2 > n1
            assert second["train_loss"]["samples"]["train_loss"] == 0.8

    def test_healthz_reports_run_state(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS)
        with LiveServer(writer.directory, port=0) as srv:
            payload = json.loads(get(srv.url + "/healthz"))
            assert payload["status"] == "ok"
            assert payload["run_id"] == "r1"
            assert payload["run_status"] == "complete"
            assert payload["events"] == len(STEP_EVENTS)
            assert payload["last_seq"] == len(STEP_EVENTS) - 1

    def test_sse_streams_with_seq_ids(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS)
        with LiveServer(writer.directory, port=0) as srv:
            got = sse_events(get(srv.url + "/events?max=3"))
            assert [i for i, _ in got] == [0, 1, 2]
            assert got[0][1]["kind"] == "train_begin"

    def test_sse_resumes_from_last_event_id(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS)
        with LiveServer(writer.directory, port=0) as srv:
            full = sse_events(get(srv.url + "/events"))
            # Header resume: everything strictly after seq 2.
            resumed = sse_events(get(
                srv.url + "/events",
                headers={"Last-Event-ID": "2"}))
            assert [i for i, _ in resumed] == \
                [i for i, _ in full if i > 2]
            # Query resume: everything from seq 3 inclusive.
            q = sse_events(get(srv.url + "/events?from=3"))
            assert q == resumed

    def test_sse_follows_live_run_to_completion(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS[:2],
                          finalize=False)

        def finish():
            time.sleep(0.3)
            writer.emit("fault", step=None,
                        data={"kind": "expert_failure"})
            writer.finalize(summary={})

        with LiveServer(writer.directory, port=0,
                        poll_interval=0.05) as srv:
            t = threading.Thread(target=finish)
            t.start()
            payload = get(srv.url + "/events")  # runs until complete
            t.join()
        kinds = [e["kind"] for _, e in sse_events(payload)]
        assert "fault" in kinds
        assert payload.endswith("event: end\ndata: {}\n\n")

    def test_dashboard_route_renders_with_refresh(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS)
        with LiveServer(writer.directory, port=0) as srv:
            html = get(srv.url + "/?refresh=5")
            assert "<html" in html
            assert '<meta http-equiv="refresh" content="5">' in html
            plain = get(srv.url + "/")
            assert 'http-equiv="refresh"' not in plain

    def test_unknown_route_404s(self, tmp_path):
        writer = make_run(tmp_path, events=STEP_EVENTS)
        with LiveServer(writer.directory, port=0) as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(srv.url + "/nope")
            assert err.value.code == 404
