"""Persistent, append-only training-run registry (``repro.obs.runs``).

The missing piece between per-step instrumentation (PR 1) and offline
trace/bench analysis (PR 3): nothing so far *persisted* telemetry
across process lifetimes.  A **run** is one directory under the
registry root (``REPRO_RUNS_DIR``, default ``.repro_runs/``):

``<root>/<run_id>/manifest.json``
    Schema-versioned identity: run id, creation timestamp (passed in
    or wall clock), seed, substrate, free-form config dict plus its
    :func:`config_fingerprint`, best-effort
    ``git describe``, status (``running``, then ``complete`` or
    ``failed``), and — once finalized — a summary dict.
``<root>/<run_id>/events.jsonl``
    The append-only event stream.  One JSON object per line:
    ``{"schema": 1, "seq": n, "kind": str, "step": int|null,
    "data": {...}}``.  Kinds in use: ``train_begin`` / ``step`` /
    ``step_skipped`` / ``routing`` (one per MoE layer per batch) /
    ``alert`` / ``fault`` / ``recovery`` /
    ``strategy_switch`` / ``ckpt_saved`` / ``ckpt_restored`` /
    ``eval`` / ``bench_table`` / ``bench_result``.
``<root>/<run_id>/metrics.json``
    The final :class:`repro.obs.registry.MetricsRegistry` snapshot
    (written by :meth:`RunWriter.finalize` when an observer was
    active).

The *active run* is a slot of :mod:`repro.obs` beside the observer:
instrumented call sites do one ``is None`` check via
:func:`repro.obs.get_run` and stay zero-cost — and never import this
module — when no run is recording.  The loops'
:class:`repro.obs.loop.LoopTelemetry` auto-opens a run when
``REPRO_RUNS_DIR`` is set, and :class:`RunStore` answers the offline
questions (``repro runs list|show|diff|gc``).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, IO, Iterator, Mapping

from repro.obs import get_ledger, get_observer, perf_ns, set_run

__all__ = [
    "RUN_SCHEMA_VERSION",
    "TERMINAL_STATUSES",
    "DEFAULT_RUNS_DIR",
    "config_fingerprint",
    "RunManifest",
    "RunWriter",
    "RunStore",
    "MetricDelta",
    "runs_root",
    "env_runs_root",
    "recording_run",
    "parse_events_text",
    "atomic_write",
]

RUN_SCHEMA_VERSION = 1

#: Manifest statuses a run never leaves (readers stop following it).
TERMINAL_STATUSES = ("complete", "failed")

#: Registry root used when ``REPRO_RUNS_DIR`` is unset.
DEFAULT_RUNS_DIR = ".repro_runs"

_MANIFEST = "manifest.json"
_EVENTS = "events.jsonl"
_METRICS = "metrics.json"


def parse_events_text(text: str) -> list[dict]:
    """Parse an ``events.jsonl`` payload, tolerating a torn tail.

    A crashed or still-writing concurrent writer can leave the *final*
    line mid-record; readers (the store and the resume path) skip that
    trailing partial line instead of raising.  Corruption anywhere *before* the tail is still an error
    — that cannot be produced by an interrupted append-and-flush
    writer, so it indicates real damage worth surfacing.
    """
    lines = text.splitlines()
    last = len(lines) - 1
    while last >= 0 and not lines[last].strip():
        last -= 1
    events: list[dict] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if i == last:
                break          # torn final line from a live writer
            raise
    return events


def env_runs_root() -> Path | None:
    """``REPRO_RUNS_DIR`` as a path, or None when recording is off."""
    value = os.environ.get("REPRO_RUNS_DIR")
    return Path(value) if value else None


def runs_root(root: str | Path | None = None) -> Path:
    """Resolve the registry root: explicit arg > env var > default."""
    if root is not None:
        return Path(root)
    return env_runs_root() or Path(DEFAULT_RUNS_DIR)


def config_fingerprint(config: Mapping | None) -> str:
    """Short stable hash of a run's or bench's configuration dict."""
    canonical = json.dumps(config or {}, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _git_describe() -> str:
    """Best-effort ``git describe`` of the working tree ("unknown" when
    git or the repository is unavailable)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    described = out.stdout.strip()
    return described if out.returncode == 0 and described else "unknown"


@dataclass
class RunManifest:
    """Schema-versioned identity record of one run."""

    run_id: str
    created_at: float
    seed: int | None = None
    substrate: str = "functional"
    config: dict = field(default_factory=dict)
    git: str = "unknown"
    status: str = "running"            # then "complete" or "failed"
    summary: dict = field(default_factory=dict)
    schema: int = RUN_SCHEMA_VERSION

    @property
    def fingerprint(self) -> str:
        return config_fingerprint(self.config)

    def to_json_obj(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "seed": self.seed,
            "substrate": self.substrate,
            "config": dict(self.config),
            "fingerprint": self.fingerprint,
            "git": self.git,
            "status": self.status,
            "summary": dict(self.summary),
        }

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "RunManifest":
        if obj.get("schema") != RUN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported run manifest schema {obj.get('schema')!r}, "
                f"expected {RUN_SCHEMA_VERSION}")
        return cls(
            run_id=obj["run_id"],
            created_at=float(obj["created_at"]),
            seed=obj.get("seed"),
            substrate=obj.get("substrate", "functional"),
            config=dict(obj.get("config", {})),
            git=obj.get("git", "unknown"),
            status=obj.get("status", "running"),
            summary=dict(obj.get("summary", {})),
            schema=int(obj["schema"]))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` so that a crash at any byte leaves the previous
    file or the new one there, never a prefix.

    The body writes to a temp file in the same directory, which is
    flushed, fsynced and renamed over ``path`` on a clean exit and
    removed on an error.  Its name is dot-prefixed so no directory
    listing (``ckpt_*.npz``) picks it up.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, obj: Mapping) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _write_manifest(directory: Path, manifest: RunManifest) -> None:
    _write_json(directory / _MANIFEST, manifest.to_json_obj())


class RunWriter:
    """Appends one run's manifest/event-stream/metrics to its directory.

    Create with :meth:`create` (new run directory) or :meth:`resume`
    (reopen an existing one after a checkpoint restore).  ``emit`` is
    the hot path: one JSON line appended and flushed per event, so a
    crashed run keeps everything recorded up to the crash.
    """

    def __init__(self, directory: Path, manifest: RunManifest,
                 next_seq: int = 0) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.current_step: int | None = None
        #: Called with every emitted event dict, whoever emits it — the
        #: loop attachment points this at its alert engine.
        self.on_event = None
        self._seq = next_seq
        self._fh: IO[str] | None = None

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, root: str | Path | None = None,
               run_id: str | None = None, seed: int | None = None,
               config: Mapping | None = None,
               substrate: str = "functional",
               created_at: float | None = None) -> "RunWriter":
        """Make ``<root>/<run_id>/`` and write its manifest.

        ``created_at`` is the manifest timestamp every ordering
        operation (``list``, ``latest``, ``gc``) sorts by; pass it
        explicitly for deterministic registries (tests, replays) or
        leave None for wall clock.  A generated ``run_id`` combines the
        timestamp and config fingerprint, with a numeric suffix on
        collision.
        """
        base = runs_root(root)
        base.mkdir(parents=True, exist_ok=True)
        ts = time.time() if created_at is None else float(created_at)
        manifest = RunManifest(
            run_id="", created_at=ts, seed=seed, substrate=substrate,
            config=dict(config or {}), git=_git_describe())
        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(ts))
            run_id = f"run-{stamp}-{manifest.fingerprint[:6]}"
        candidate, n = run_id, 1
        while (base / candidate).exists():
            n += 1
            candidate = f"{run_id}-{n}"
        manifest.run_id = candidate
        directory = base / candidate
        directory.mkdir()
        _write_manifest(directory, manifest)
        (directory / _EVENTS).touch()
        return cls(directory, manifest)

    @classmethod
    def resume(cls, directory: str | Path,
               from_step: int | None = None) -> "RunWriter":
        """Reopen an existing run directory for appending.

        ``from_step`` is the checkpoint step a restored trainer will
        continue from: stepped events at ``step >= from_step`` (and
        stale evaluation records, ``step < 0``) are compacted away so
        the re-run steps append without duplicates — the one permitted
        rewrite of the otherwise append-only stream.
        """
        directory = Path(directory)
        manifest = RunManifest.from_json_obj(
            json.loads((directory / _MANIFEST).read_text()))
        manifest.status = "running"
        _write_manifest(directory, manifest)
        events_path = directory / _EVENTS
        raw = events_path.read_text() if events_path.exists() else ""
        kept: list[dict] = []
        for event in parse_events_text(raw):
            step = event.get("step")
            if from_step is not None and step is not None and (
                    step >= from_step or step < 0):
                continue
            kept.append(event)
        # A torn final line (writer killed mid-write) must be
        # truncated before appending, or the next event would be
        # welded onto the fragment and lost with it.
        torn = bool(raw) and not raw.endswith("\n")
        if from_step is not None or torn:
            with atomic_write(events_path) as fh:
                fh.writelines(json.dumps(e) + "\n" for e in kept)
        next_seq = 1 + max((e.get("seq", -1) for e in kept), default=-1)
        writer = cls(directory, manifest, next_seq=next_seq)
        return writer

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- event stream --------------------------------------------------

    def begin_step(self, step: int) -> None:
        """Default ``step`` attached to subsequent layer-level events."""
        self.current_step = step

    def emit(self, kind: str, step: int | None = None,
             data: Mapping | None = None) -> None:
        """Append one event line (flushed, so crashes lose nothing)."""
        led = get_ledger()
        t0 = perf_ns() if led is not None else 0
        if self._fh is None:
            self._fh = open(self.directory / _EVENTS, "a")
        event = {"schema": RUN_SCHEMA_VERSION, "seq": self._seq,
                 "kind": kind,
                 "step": self.current_step if step is None else step,
                 "data": dict(data or {})}
        self._seq += 1
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()
        if led is not None:
            led.add("events", perf_ns() - t0)
        if self.on_event is not None:
            self.on_event(event)

    def update_summary(self, summary: Mapping) -> None:
        """Merge keys into the manifest summary without completing the
        run — lets instrumented code (the trainer) contribute metrics
        to a run someone else opened and will finalize."""
        self.manifest.summary.update(summary)
        _write_manifest(self.directory, self.manifest)

    def finalize(self, registry_snapshot: Mapping | None = None,
                 error: BaseException | None = None) -> None:
        """Give the run its terminal status; persist summary + metrics.

        ``complete``, or — when ``error`` is the exception that ended
        the run — ``failed`` with the exception type in the summary,
        so a crashed run never reads as running or as a pass.
        """
        if registry_snapshot is not None:
            _write_json(self.directory / _METRICS, registry_snapshot)
        if error is None:
            self.manifest.status = "complete"
        else:
            self.manifest.status = "failed"
            self.manifest.summary["error"] = type(error).__name__
        _write_manifest(self.directory, self.manifest)
        self.close()


class recording_run:
    """Context manager: create, install, and finalize a run —
    ``complete`` with the active observer's metrics snapshot, or
    ``failed`` when the body raised.

    ::

        with recording_run(config={"bench": "fig25"}) as run:
            ...             # instrumented code emits into the run
    """

    def __init__(self, **create_kwargs: Any) -> None:
        self._kwargs = create_kwargs
        self.run: RunWriter | None = None
        self._previous: RunWriter | None = None

    def __enter__(self) -> RunWriter:
        self.run = RunWriter.create(**self._kwargs)
        self._previous = set_run(self.run)
        return self.run

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.run is not None
        if self.run.manifest.status not in TERMINAL_STATUSES:
            ob = get_observer()
            self.run.finalize(
                registry_snapshot=(ob.registry.snapshot()
                                   if ob is not None else None),
                error=exc)
        set_run(self._previous)


# ----------------------------------------------------------------------
# Offline queries: list / show / diff / gc
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs (``repro runs diff``)."""

    name: str
    a: float | None
    b: float | None

    @property
    def delta(self) -> float | None:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a


class RunStore:
    """Read-side API over a registry root."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = runs_root(root)

    def manifests(self) -> list[RunManifest]:
        if not self.root.is_dir():
            return []
        out = []
        for path in self.root.iterdir():
            if (path / _MANIFEST).is_file():
                out.append(RunManifest.from_json_obj(
                    json.loads((path / _MANIFEST).read_text())))
        out.sort(key=lambda m: (m.created_at, m.run_id))
        return out

    def path(self, run_id: str) -> Path:
        return self.root / run_id

    def manifest(self, run_id: str) -> RunManifest:
        path = self.path(run_id) / _MANIFEST
        if not path.is_file():
            raise KeyError(f"no run {run_id!r} under {self.root}")
        return RunManifest.from_json_obj(json.loads(path.read_text()))

    def events(self, run_id: str) -> list[dict]:
        path = self.path(run_id) / _EVENTS
        if not path.is_file():
            return []
        return parse_events_text(path.read_text())

    def iter_events(self, run_id: str,
                    kind: str | None = None) -> Iterator[dict]:
        for event in self.events(run_id):
            if kind is None or event.get("kind") == kind:
                yield event

    def metrics(self, run_id: str) -> dict | None:
        path = self.path(run_id) / _METRICS
        if not path.is_file():
            return None
        return json.loads(path.read_text())

    def latest(self) -> str:
        manifests = self.manifests()
        if not manifests:
            raise KeyError(f"no runs under {self.root}")
        return manifests[-1].run_id

    def resolve(self, token: str) -> str:
        """Run id from ``"latest"``, an exact id, or a unique prefix."""
        if token == "latest":
            return self.latest()
        ids = [m.run_id for m in self.manifests()]
        if token in ids:
            return token
        matches = [r for r in ids if r.startswith(token)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run matching {token!r} under {self.root}")
        raise KeyError(f"ambiguous run prefix {token!r}: "
                       f"{', '.join(sorted(matches))}")

    # -- diff ----------------------------------------------------------

    def _scalars(self, run_id: str) -> dict[str, float]:
        """Comparable scalars of one run: manifest summary values plus
        the final counters/gauges of the metrics snapshot."""
        out: dict[str, float] = {}
        for key, value in self.manifest(run_id).summary.items():
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                out[f"summary.{key}"] = float(value)
        snapshot = self.metrics(run_id) or {}
        for family in ("counters", "gauges"):
            for name, value in snapshot.get(family, {}).items():
                out[f"{family}.{name}"] = float(value)
        return out

    def diff(self, run_a: str, run_b: str) -> list[MetricDelta]:
        """Per-metric deltas between two runs (b minus a)."""
        a = self._scalars(self.resolve(run_a))
        b = self._scalars(self.resolve(run_b))
        return [MetricDelta(name, a.get(name), b.get(name))
                for name in sorted(set(a) | set(b))]

    # -- gc ------------------------------------------------------------

    def gc(self, keep: int, dry_run: bool = False) -> list[str]:
        """Prune the oldest runs, keeping the newest ``keep``.

        Ordering uses the manifest ``created_at`` (the timestamp the
        run was *created with*, not the wall clock at gc time), so
        pruning is deterministic and unit-testable.  Returns the run
        ids removed (or, with ``dry_run``, those that would be).
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        manifests = self.manifests()
        doomed = manifests[:max(0, len(manifests) - keep)]
        removed = []
        for manifest in doomed:
            if not dry_run:
                shutil.rmtree(self.path(manifest.run_id))
            removed.append(manifest.run_id)
        return removed
