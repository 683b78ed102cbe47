"""Structured trace events and the Chrome-trace file format.

The qualitative half of :mod:`repro.obs`.  A :class:`TraceRecorder`
accumulates typed :class:`TraceEvent` records — complete spans
(``ph="X"``) and instant markers (``ph="i"``) — on named *tracks*.
Tracks unify the two substrates: wall-clock spans from the functional
NumPy side land on tracks like ``"main"`` while simulated-clock spans
from :mod:`repro.cluster.simulator` land on ``"sim/gpu0/compute"`` /
``"sim/gpu0/comm"`` — one schema, one file, one timeline viewer.

This module is the only one that knows the on-disk format, in both
directions: :meth:`TraceRecorder.dump_chrome_trace` writes Chrome trace
JSON (loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
tracks become named threads via ``thread_name`` metadata events, and
timestamps are converted from seconds to the format's microseconds) and
:meth:`TraceRecorder.load_chrome_trace` reads it back into the same
:class:`TraceEvent` records.

Event categories used across the codebase are the ``CAT_*`` constants
of :mod:`repro.obs`; they mirror the paper's cost decomposition
(Figure 23: gate, encode, All-to-All, expert FFN, decode) plus the
adaptive-runtime and training layers above it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["TraceEvent", "TraceRecorder"]

_MICRO = 1e6
_PHASES = ("X", "i", "C", "s", "t", "f")


@dataclass(frozen=True)
class TraceEvent:
    """One typed event.

    ``ts``/``dur`` are in *seconds* on the recorder's timeline (wall
    clock since recorder start, or simulated time); export converts to
    the microseconds Chrome expects.  ``phase`` is ``"X"`` for a
    complete span, ``"i"`` for an instant marker (``dur`` 0), ``"C"``
    for a counter sample whose series values live in ``args`` (the
    profiler's cumulative-FLOP track), or one of
    ``"s"``/``"t"``/``"f"`` for flow start/step/finish arrows linking
    spans across tracks (the serving engine draws one flow per request
    from its arrival to the batch that served it); flow events carry
    their flow id in ``args["flow_id"]``.
    """

    name: str
    cat: str
    ts: float
    dur: float = 0.0
    track: str = "main"
    phase: str = "X"
    args: dict = field(default_factory=dict)

    def to_chrome(self, tid: int) -> dict:
        event = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.phase,
            "ts": self.ts * _MICRO,
            "pid": 0,
            "tid": tid,
        }
        if self.phase == "X":
            event["dur"] = self.dur * _MICRO
        elif self.phase == "i":
            event["s"] = "t"  # instant scope: thread
        elif self.phase in ("s", "t", "f"):
            # Flow arrows: Chrome matches start/step/finish by id; the
            # finish binds to the enclosing slice ("bp": "e") so the
            # arrow lands on the batch span that served the request.
            event["id"] = self.args.get("flow_id", 0)
            if self.phase == "f":
                event["bp"] = "e"
        # "C" counter events carry only their args series.
        if self.args:
            event["args"] = dict(self.args)
        return event

    @classmethod
    def from_chrome(cls, obj: dict, track: str) -> "TraceEvent":
        """Inverse of :meth:`to_chrome`; the caller resolves ``track``
        from the file's ``thread_name`` metadata."""
        return cls(name=str(obj.get("name", "")),
                   cat=str(obj.get("cat", "")),
                   ts=float(obj.get("ts", 0.0)) / _MICRO,
                   dur=float(obj.get("dur", 0.0)) / _MICRO,
                   track=track, phase=obj["ph"],
                   args=dict(obj.get("args", {})))


class TraceRecorder:
    """Append-only event sink with bounded growth.

    ``max_events`` caps memory for long sweeps; past it, events are
    counted in :attr:`dropped` instead of stored (the metrics registry
    keeps aggregating regardless).
    """

    def __init__(self, max_events: int = 1_000_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: list[TraceEvent] = []
        self.dropped = 0

    def record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.record(event)

    def span(self, name: str, cat: str, ts: float, dur: float,
             track: str = "main", args: dict | None = None) -> None:
        """Record one complete span (``ph="X"``)."""
        self.record(TraceEvent(name=name, cat=cat, ts=ts, dur=dur,
                               track=track, args=args or {}))

    def instant(self, name: str, cat: str, ts: float,
                track: str = "main", args: dict | None = None) -> None:
        """Record one instant marker (``ph="i"``)."""
        self.record(TraceEvent(name=name, cat=cat, ts=ts, track=track,
                               phase="i", args=args or {}))

    def flow(self, name: str, cat: str, phase: str, ts: float,
             flow_id: int, track: str = "main") -> None:
        """Record one flow event (``ph`` in ``"s"``/``"t"``/``"f"``).

        Events with the same ``flow_id`` (and name/cat) are drawn as
        one arrow chain in the Chrome trace viewer — the serving
        engine uses one flow per request, started at arrival on the
        request track and finished on the engine track at batch close.
        """
        if phase not in ("s", "t", "f"):
            raise ValueError(
                f"flow phase must be 's', 't' or 'f', got {phase!r}")
        self.record(TraceEvent(name=name, cat=cat, ts=ts, track=track,
                               phase=phase, args={"flow_id": int(flow_id)}))

    def counter(self, name: str, cat: str, ts: float, values: dict,
                track: str = "main") -> None:
        """Record one counter sample (``ph="C"``).

        ``values`` maps series name to numeric value; Chrome/Perfetto
        render consecutive samples of the same ``name`` as a stacked
        area chart.
        """
        self.record(TraceEvent(name=name, cat=cat, ts=ts, track=track,
                               phase="C", args=dict(values)))

    # -- export --------------------------------------------------------

    def tracks(self) -> list[str]:
        """Track names in first-appearance order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.track, None)
        return list(seen)

    def to_chrome_trace(self) -> dict:
        """The ``chrome://tracing`` JSON object (dict form)."""
        tids = {track: i for i, track in enumerate(self.tracks())}
        trace_events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
             "args": {"name": track}}
            for track, tid in tids.items()
        ]
        trace_events.extend(
            event.to_chrome(tid=tids[event.track])
            for event in self.events)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def dumps_chrome_trace(self) -> str:
        return json.dumps(self.to_chrome_trace())

    def dump_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps_chrome_trace())

    @classmethod
    def load_chrome_trace(cls, path: str) -> "TraceRecorder":
        """Rebuild a recorder from a :meth:`dump_chrome_trace` file.

        Tracks come back from the ``thread_name`` metadata (a thread
        without one is named after its ``tid``); phases this schema
        does not carry are skipped, so a foreign Chrome trace loads as
        whatever spans, instants, counters and flows it holds.
        """
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or "traceEvents" not in payload:
            raise ValueError(f"{path} is not a Chrome trace JSON object")
        raw = payload["traceEvents"]
        tracks = {(obj.get("pid"), obj.get("tid")): obj["args"]["name"]
                  for obj in raw
                  if obj.get("ph") == "M"
                  and obj.get("name") == "thread_name"}
        recorder = cls(max_events=max(len(raw), 1))
        for obj in raw:
            if obj.get("ph") in _PHASES:
                key = (obj.get("pid"), obj.get("tid"))
                recorder.record(TraceEvent.from_chrome(
                    obj, tracks.get(key, str(key[1]))))
        return recorder
