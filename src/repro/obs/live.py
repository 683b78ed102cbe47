"""Live telemetry plane over a run directory (``repro.obs.live``).

Everything PRs 1–9 built is post-hoc: the dashboard renders a finished
run, ``--prometheus`` is a one-shot snapshot, SLO verdicts appear at
exit.  This module attaches to an **in-progress** (or finished) run
directory and serves it over HTTP with nothing but the stdlib:

``/metrics``
    Prometheus text exposition, re-rendered per scrape from the
    tailer's registry — repeated scrapes of a live run show advancing
    values, including the ``ALERTS{alertname=...}`` family.
``/events``
    Server-sent-events tail of ``events.jsonl``.  Every event line is
    one SSE message whose ``id:`` is the run's ``seq`` number, so a
    dropped client resumes exactly where it left off via the standard
    ``Last-Event-ID`` header (or ``?from=SEQ``).  ``?max=N`` closes
    the stream after N events (curl-friendly smoke tests); otherwise
    the stream follows the file until the manifest reports the run
    ``complete`` or ``failed``, then sends ``event: end``.
``/healthz``
    JSON liveness summary: run id, status, last seq, firing alerts.
``/``
    The PR 4 dashboard re-rendered on demand; ``?refresh=N`` (or the
    server-wide default) adds a meta-refresh for auto-reloading
    monitors.

The :class:`RunTailer` is the read side of the per-line append+flush
contract of :class:`repro.obs.runs.RunWriter`: it incrementally reads
complete lines (a trailing partial line stays buffered until the
writer finishes it), folds events into its own
:class:`~repro.obs.registry.MetricsRegistry`, and feeds every event
to its own :class:`~repro.obs.alerts.AlertEngine` through
``AlertEngine.observe`` — the same event→sample fold, ticking on the
same ``step`` / ``step_skipped`` / ``serve_batch`` events, as the
in-process engine that wrote the stream, so replaying a recorded run
reproduces its alert transitions.  The tailer never writes to the run
directory — out-of-process observers must not rewrite caller-owned
streams — so its alert state lives only in the scrape registry, while
the in-process engine owns the alert *events*.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Sequence
from urllib.parse import parse_qs, urlsplit

from repro.obs.alerts import (
    ALERTS_FAMILY,
    AlertEngine,
    AlertRule,
    default_rules,
    event_samples,
    labeled_name,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.runs import TERMINAL_STATUSES, RunStore

__all__ = ["RunTailer", "LiveServer"]


class RunTailer:
    """Incremental, torn-line-safe reader of one run directory.

    ``poll()`` reads whatever complete lines the writer has flushed
    since the last poll, parses them, folds them into the metrics
    registry, and evaluates the alert rules on every step / batch
    tick.  All state is guarded by ``lock`` so HTTP handler threads
    can share one tailer.
    """

    def __init__(self, directory: str | Path,
                 rules: Sequence[AlertRule] | None = None) -> None:
        self.directory = Path(directory)
        self.lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.engine = AlertEngine(
            list(rules) if rules is not None else default_rules())
        self.events: list[dict] = []
        self.status = "unknown"
        self.run_id = self.directory.name
        self.last_seq = -1
        self.skipped_lines = 0
        self._offset = 0
        self._buffer = ""

    # -- file tailing --------------------------------------------------

    def poll(self) -> int:
        """Fold newly flushed events; returns how many were added."""
        with self.lock:
            return self._poll_locked()

    def _poll_locked(self) -> int:
        path = self.directory / "events.jsonl"
        chunk = ""
        if path.is_file():
            with open(path, "r") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        self._read_manifest()
        if not chunk:
            return 0
        text = self._buffer + chunk
        lines = text.split("\n")
        # The final fragment has no newline yet: either a torn line a
        # live writer will finish, or empty.  Keep it buffered.
        self._buffer = lines.pop()
        added = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            self._fold(event)
            added += 1
        return added

    def _read_manifest(self) -> None:
        path = self.directory / "manifest.json"
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        self.status = manifest.get("status", "unknown")
        self.run_id = manifest.get("run_id", self.run_id)

    def complete(self) -> bool:
        """Has the run reached a terminal status (complete/failed)?"""
        with self.lock:
            return self.status in TERMINAL_STATUSES

    def snapshot_events(self) -> list[dict]:
        with self.lock:
            return list(self.events)

    def render_metrics(self) -> str:
        with self.lock:
            return render_prometheus(self.registry)

    # -- folding -------------------------------------------------------

    def _fold(self, event: dict) -> None:
        self.events.append(event)
        seq = event.get("seq")
        if isinstance(seq, int):
            self.last_seq = max(self.last_seq, seq)
        kind = event.get("kind", "?")
        data = event.get("data") or {}
        reg = self.registry
        reg.counter("run.events_total").inc()
        reg.counter(f"run.events.{kind}").inc()
        for name, series in event_samples(event).items():
            for labels, value in series.items():
                reg.gauge(labeled_name(name, dict(labels))).set(value)
        self.engine.observe(event, registry=reg)
        reg.gauge("faults.outstanding").set(
            self.engine.outstanding_faults)
        if kind == "alert":
            # Mirror in-process alert engines (trainer / serving) into
            # the scrape registry's ALERTS family, one sample per
            # labeled series.
            name = data.get("alertname") or data.get("kind")
            if name:
                gname = labeled_name(ALERTS_FAMILY, {
                    "alertname": str(name),
                    "severity": str(data.get("severity", "warn")),
                    **{k: str(data[k]) for k in ("layer", "expert")
                       if data.get(k) is not None}})
                firing = data.get("state", "firing") != "resolved"
                reg.gauge(gname).set(1.0 if firing else 0.0)


# ----------------------------------------------------------------------
# The HTTP plane
# ----------------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a scraped
    # server would drown the CLI output.
    def log_message(self, fmt: str, *args) -> None:  # noqa: A003
        pass

    @property
    def live(self) -> "LiveServer":
        return self.server.live  # type: ignore[attr-defined]

    def _send(self, code: int, content_type: str,
              body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        try:
            if parts.path == "/metrics":
                self._get_metrics()
            elif parts.path == "/events":
                self._get_events(query)
            elif parts.path == "/healthz":
                self._get_healthz()
            elif parts.path == "/":
                self._get_dashboard(query)
            else:
                self._send(404, "text/plain; charset=utf-8",
                           b"not found\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def _get_metrics(self) -> None:
        tailer = self.live.tailer
        tailer.poll()
        body = tailer.render_metrics().encode("utf-8")
        self._send(200, "text/plain; version=0.0.4; charset=utf-8",
                   body)

    def _get_healthz(self) -> None:
        tailer = self.live.tailer
        tailer.poll()
        with tailer.lock:
            payload = {
                "status": "ok",
                "run_id": tailer.run_id,
                "run_status": tailer.status,
                "events": len(tailer.events),
                "last_seq": tailer.last_seq,
                "alerts_firing": tailer.engine.firing(),
                "outstanding_faults": tailer.engine.outstanding_faults,
            }
        self._send(200, "application/json",
                   (json.dumps(payload) + "\n").encode("utf-8"))

    def _get_dashboard(self, query: dict) -> None:
        from repro.obs.dashboard import render_dashboard

        refresh = self.live.refresh
        if "refresh" in query:
            try:
                refresh = int(query["refresh"][0])
            except ValueError:
                refresh = self.live.refresh
        run_dir = self.live.tailer.directory
        store = RunStore(run_dir.parent)
        html = render_dashboard(store, run_dir.name, refresh=refresh)
        self._send(200, "text/html; charset=utf-8",
                   html.encode("utf-8"))

    def _get_events(self, query: dict) -> None:
        tailer = self.live.tailer
        after = -1
        last_id = self.headers.get("Last-Event-ID")
        if last_id is not None:
            try:
                after = int(last_id)
            except ValueError:
                after = -1
        elif "from" in query:
            try:
                after = int(query["from"][0]) - 1
            except ValueError:
                after = -1
        max_events = None
        if "max" in query:
            try:
                max_events = max(1, int(query["max"][0]))
            except ValueError:
                max_events = None

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        # SSE is an unbounded stream: no Content-Length, close when
        # done rather than keep-alive.
        self.send_header("Connection", "close")
        self.end_headers()

        sent = 0
        index = 0
        while not self.live.stopping.is_set():
            tailer.poll()
            events = tailer.snapshot_events()
            while index < len(events):
                event = events[index]
                index += 1
                seq = event.get("seq", -1)
                if isinstance(seq, int) and seq <= after:
                    continue
                message = (f"id: {seq}\n"
                           f"data: {json.dumps(event)}\n\n")
                self.wfile.write(message.encode("utf-8"))
                self.wfile.flush()
                sent += 1
                if max_events is not None and sent >= max_events:
                    return
            if tailer.complete():
                self.wfile.write(b"event: end\ndata: {}\n\n")
                self.wfile.flush()
                return
            time.sleep(self.live.poll_interval)


class LiveServer:
    """``ThreadingHTTPServer`` bound to one run directory.

    ``port=0`` binds an ephemeral port (tests); the bound port is in
    ``.port`` after construction.  ``start()`` serves on a daemon
    thread; ``stop()`` shuts the listener down and unblocks any open
    SSE streams via the ``stopping`` flag.
    """

    def __init__(self, run_dir: str | Path, host: str = "127.0.0.1",
                 port: int = 0, poll_interval: float = 0.2,
                 refresh: int | None = None,
                 rules: Sequence[AlertRule] | None = None) -> None:
        self.tailer = RunTailer(run_dir, rules=rules)
        self.poll_interval = poll_interval
        self.refresh = refresh
        self.stopping = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.live = self  # type: ignore[attr-defined]
        self.host = self._httpd.server_address[0]
        self.port = self._httpd.server_address[1]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "LiveServer":
        self.tailer.poll()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1}, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self.stopping.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LiveServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
