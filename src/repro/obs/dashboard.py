"""Static HTML dashboard for a recorded run (``repro.obs.dashboard``).

``repro dashboard <run_id|latest>`` renders one run directory
(:mod:`repro.obs.runs`) into a **self-contained** HTML file: inline
SVG sparklines and heatmaps, inline CSS, no JavaScript, no external
assets — pure stdlib, viewable from ``file://`` on an air-gapped box.

Sections: run identity header, stat tiles, loss / gradient-norm
sparklines with health-alert markers, per-layer routing panels
(entropy + load-Gini bands, per-expert utilization heatmap over
steps), profiler panels when the run carries a ``profile`` event
(live-bytes allocation timeline, per-stage FLOP-share bars, peak-
memory tile), the fault / recovery / strategy / checkpoint timeline,
the alerts table, and a collapsible step table so every plotted
number is also readable as text.

Color discipline follows the repo's viz conventions: one categorical
series hue, a single-hue sequential blue ramp for the heatmap, status
colors reserved for alert severity and always paired with a text
label, all ink on CSS custom properties with a dark scheme selected
via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.runs import RunStore

__all__ = ["RunSeries", "build_series", "render_dashboard",
           "write_dashboard"]

# Single-hue sequential ramp (steps 100..700), lightest = near zero.
_RAMP = ["#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
         "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
         "#184f95", "#104281", "#0d366b"]

#: severity -> (status token, text glyph); never color alone.
_SEVERITY = {"warn": ("warning", "!"), "critical": ("critical", "✖")}

_TIMELINE_KINDS = ("fault", "recovery", "strategy_switch",
                   "ckpt_saved", "ckpt_restored", "scenario")
_TIMELINE_GLYPHS = {"fault": ("critical", "✖"),
                    "recovery": ("good", "✓"),
                    "strategy_switch": ("warning", "⇄"),
                    "ckpt_saved": ("good", "▽"),
                    "ckpt_restored": ("warning", "△"),
                    "scenario": ("warning", "◆")}

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink-1);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink-1: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5;
    --border: rgba(255, 255, 255, 0.10);
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 24px 0 8px; }
.sub { color: var(--ink-2); font-size: 13px; margin-bottom: 16px; }
.sub code { color: var(--ink-2); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 110px;
}
.tile .label { color: var(--muted); font-size: 11px;
  text-transform: uppercase; letter-spacing: 0.04em; }
.tile .value { font-size: 22px; margin-top: 2px; }
.tile .value small { font-size: 12px; color: var(--ink-2); }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; margin-bottom: 14px;
}
.panel .title { font-size: 13px; color: var(--ink-2);
  margin-bottom: 6px; }
svg { display: block; }
svg text { font-family: inherit; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th, td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--muted); font-weight: 500; }
.status { white-space: nowrap; }
.status .dot { display: inline-block; width: 9px; height: 9px;
  border-radius: 50%; margin-right: 5px; }
.good .dot { background: var(--status-good); }
.warning .dot { background: var(--status-warning); }
.serious .dot { background: var(--status-serious); }
.critical .dot { background: var(--status-critical); }
details { margin: 10px 0; }
summary { cursor: pointer; color: var(--ink-2); font-size: 13px; }
pre { font-size: 12px; overflow-x: auto; color: var(--ink-2); }
.empty { color: var(--muted); font-size: 13px; font-style: italic; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float | int | None) -> str:
    if value is None:
        return "–"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "nan"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.001:
        return f"{value:.3g}"
    return f"{value:.4g}".rstrip("0").rstrip(".")


def _fmt_bytes(nbytes: float) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return (f"{value:.0f} {unit}" if unit == "B"
                    else f"{value:.1f} {unit}")
        value /= 1024
    return f"{value:.1f} GiB"


class RunSeries:
    """Event stream reshaped into plot-ready series."""

    def __init__(self) -> None:
        self.steps: list[int] = []
        self.loss: list[float] = []
        self.grad_norm: list[float] = []
        # layer -> parallel lists keyed off routing events
        self.routing_steps: dict[int, list[int]] = {}
        self.entropy: dict[int, list[float]] = {}
        self.gini: dict[int, list[float]] = {}
        self.expert_load: dict[int, list[Sequence[float]]] = {}
        self.alerts: list[dict] = []
        self.timeline: list[dict] = []
        self.evals: list[dict] = []
        # Scenario-engine SLO assertions ("slo_check" events).
        self.slo_checks: list[dict] = []
        # Latest op-level profiler summary ("profile" event, last wins).
        self.profile: dict | None = None
        # Serving-engine series ("serve" / "serve_batch" /
        # "serving_load" events).
        self.serve_begin: dict | None = None
        self.serve_batches: list[dict] = []
        self.serving_load: dict | None = None
        # Routing-provenance payloads ("routing_load" /
        # "routing_affinity"); the recorder emits running totals, so
        # the last event of each kind is the run's aggregate.
        self.routing_load: dict | None = None
        self.routing_affinity: dict | None = None

    @property
    def layers(self) -> list[int]:
        return sorted(self.routing_steps)


def build_series(events: Iterable[Mapping]) -> RunSeries:
    """Fold a run's event stream into :class:`RunSeries`."""
    series = RunSeries()
    for event in events:
        kind = event.get("kind")
        step = event.get("step")
        data = event.get("data") or {}
        if kind == "step" and step is not None:
            series.steps.append(int(step))
            series.loss.append(float(data.get("loss", float("nan"))))
            if "grad_norm" in data:
                series.grad_norm.append(float(data["grad_norm"]))
        elif kind == "routing" and step is not None and step >= 0:
            layer = int(data.get("layer", 0))
            series.routing_steps.setdefault(layer, []).append(int(step))
            series.entropy.setdefault(layer, []).append(
                float(data.get("entropy", 0.0)))
            series.gini.setdefault(layer, []).append(
                float(data.get("gini", 0.0)))
            series.expert_load.setdefault(layer, []).append(
                list(data.get("expert_load", [])))
        elif kind == "alert":
            series.alerts.append({"step": step, **data})
        elif kind in _TIMELINE_KINDS:
            # A payload's own "kind" (e.g. fault -> "expert_failure")
            # must not clobber the event kind the glyph map keys on.
            payload = dict(data)
            detail_kind = payload.pop("kind", None)
            entry = {"kind": kind, "step": step, **payload}
            if detail_kind is not None:
                entry["what"] = detail_kind
            series.timeline.append(entry)
        elif kind == "eval":
            series.evals.append(dict(data))
        elif kind == "profile":
            series.profile = dict(data)
        elif kind == "slo_check":
            series.slo_checks.append(dict(data))
        elif kind == "serve" and data.get("kind") == "begin":
            series.serve_begin = dict(data)
        elif kind == "serve_batch":
            series.serve_batches.append(dict(data))
        elif kind == "serving_load":
            series.serving_load = dict(data)
        elif kind == "routing_load":
            series.routing_load = dict(data)
        elif kind == "routing_affinity":
            series.routing_affinity = dict(data)
    return series


# ----------------------------------------------------------------------
# SVG builders
# ----------------------------------------------------------------------

def _scale(vmin: float, vmax: float, lo: float,
           hi: float) -> "callable":
    span = vmax - vmin
    if span == 0:
        return lambda v: (lo + hi) / 2.0
    return lambda v: lo + (v - vmin) / span * (hi - lo)


def _line_chart(steps: Sequence[int], values: Sequence[float],
                markers: Sequence[tuple[int, str, str]] = (),
                width: int = 640, height: int = 150,
                x_label: str = "step") -> str:
    """One-series sparkline; ``markers`` are ``(step, severity,
    label)`` alert flags drawn as status-colored stems."""
    pts = [(s, v) for s, v in zip(steps, values) if v == v]
    if not pts:
        return '<p class="empty">no data points recorded</p>'
    pad_l, pad_r, pad_t, pad_b = 48, 10, 12, 20
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    sx = _scale(min(xs), max(xs), pad_l, width - pad_r)
    y_lo, y_hi = min(ys), max(ys)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    sy = _scale(y_lo, y_hi, height - pad_b, pad_t)
    out = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
           f'role="img">']
    # hairline grid: top / mid / baseline, value labels in muted ink
    for frac in (0.0, 0.5, 1.0):
        gy = sy(y_lo + frac * (y_hi - y_lo))
        color = "var(--baseline)" if frac == 0.0 else "var(--grid)"
        out.append(f'<line x1="{pad_l}" y1="{gy:.1f}" '
                   f'x2="{width - pad_r}" y2="{gy:.1f}" '
                   f'stroke="{color}" stroke-width="1"/>')
        out.append(f'<text x="{pad_l - 6}" y="{gy + 4:.1f}" '
                   f'text-anchor="end" font-size="10" '
                   f'fill="var(--muted)">'
                   f'{_esc(_fmt(y_lo + frac * (y_hi - y_lo)))}</text>')
    for x, anchor in ((min(xs), "start"), (max(xs), "end")):
        out.append(f'<text x="{sx(x):.1f}" y="{height - 6}" '
                   f'text-anchor="{anchor}" font-size="10" '
                   f'fill="var(--muted)">{_esc(x_label)} {x}</text>')
    # alert stems behind the series line
    for mstep, severity, label in markers:
        token, glyph = _SEVERITY.get(severity, ("warning", "!"))
        mx = sx(min(max(mstep, min(xs)), max(xs)))
        out.append(
            f'<line x1="{mx:.1f}" y1="{pad_t}" x2="{mx:.1f}" '
            f'y2="{height - pad_b}" stroke="var(--status-{token})" '
            f'stroke-width="1.5" stroke-dasharray="2 3"/>'
            f'<circle cx="{mx:.1f}" cy="{pad_t}" r="4" '
            f'fill="var(--status-{token})">'
            f'<title>{_esc(label)}</title></circle>')
    if len(pts) == 1:
        # A one-sample series must still be visible: a polyline with a
        # single point renders nothing, so draw a dot instead.
        x, y = pts[0]
        out.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                   f'fill="var(--series-1)"/>')
    else:
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" '
                   f'stroke="var(--series-1)" stroke-width="2" '
                   f'stroke-linejoin="round"/>')
    # invisible-ring hover targets carrying native tooltips
    if len(pts) <= 400:
        for x, y in pts:
            out.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="5" '
                f'fill="transparent" pointer-events="all">'
                f'<title>{_esc(x_label)} {x}: {_esc(_fmt(y))}'
                f'</title></circle>')
    out.append("</svg>")
    return "".join(out)


def _heatmap(steps: Sequence[int],
             loads: Sequence[Sequence[float]]) -> str:
    """Experts (rows) × steps (columns) utilization heatmap on the
    sequential blue ramp; lightest step means near-zero load."""
    if not loads or not loads[0]:
        return '<p class="empty">no expert-load records</p>'
    num_experts = max(len(row) for row in loads)
    peak = max((max(row) if row else 0.0) for row in loads)
    pad_l, pad_t = 40, 4
    cell_w = max(3, min(22, 600 // max(1, len(loads))))
    cell_h = 14
    gap = 2  # surface shows through between fills
    width = pad_l + len(loads) * (cell_w + gap) + 10
    height = pad_t + num_experts * (cell_h + gap) + 20
    out = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
           f'role="img">']
    for e in range(num_experts):
        cy = pad_t + e * (cell_h + gap)
        out.append(f'<text x="{pad_l - 6}" y="{cy + cell_h - 3}" '
                   f'text-anchor="end" font-size="10" '
                   f'fill="var(--muted)">E{e}</text>')
        for i, row in enumerate(loads):
            value = float(row[e]) if e < len(row) else 0.0
            idx = 0 if peak <= 0 else round(
                value / peak * (len(_RAMP) - 1))
            cx = pad_l + i * (cell_w + gap)
            out.append(
                f'<rect x="{cx}" y="{cy}" width="{cell_w}" '
                f'height="{cell_h}" rx="2" fill="{_RAMP[idx]}">'
                f'<title>step {steps[i]}, expert {e}: '
                f'{_esc(_fmt(value))} tokens</title></rect>')
    for i, anchor in ((0, "start"), (len(loads) - 1, "end")):
        out.append(
            f'<text x="{pad_l + i * (cell_w + gap):.1f}" '
            f'y="{height - 6}" text-anchor="{anchor}" font-size="10" '
            f'fill="var(--muted)">step {steps[i]}</text>')
    out.append("</svg>")
    return "".join(out)


def _share_bars(items: Sequence[tuple[str, float]],
                width: int = 640) -> str:
    """Horizontal share bars (e.g. per-stage FLOP fraction): label,
    single-hue bar scaled to the largest entry, percent as text so the
    number survives without the ink."""
    rows = [(label, max(0.0, float(v))) for label, v in items]
    total = sum(v for _, v in rows)
    if not rows or total <= 0:
        return '<p class="empty">no profiled work recorded</p>'
    rows.sort(key=lambda kv: -kv[1])
    peak = rows[0][1]
    pad_l, bar_max, row_h, gap = 110, width - 110 - 70, 18, 6
    height = len(rows) * (row_h + gap)
    out = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
           f'role="img">']
    for i, (label, value) in enumerate(rows):
        y = i * (row_h + gap)
        share = value / total
        bar = bar_max * (value / peak)
        out.append(
            f'<text x="{pad_l - 8}" y="{y + row_h - 5}" '
            f'text-anchor="end" font-size="11" fill="var(--ink-2)">'
            f'{_esc(label)}</text>'
            f'<rect x="{pad_l}" y="{y}" width="{bar:.1f}" '
            f'height="{row_h}" rx="2" fill="var(--series-1)">'
            f'<title>{_esc(label)}: {_esc(_fmt(value))} '
            f'({share:.1%})</title></rect>'
            f'<text x="{pad_l + bar + 6:.1f}" y="{y + row_h - 5}" '
            f'font-size="11" fill="var(--muted)">{share:.1%}</text>')
    out.append("</svg>")
    return "".join(out)


def _matrix_heatmap(matrix: Sequence[Sequence[float]],
                    row_prefix: str = "E",
                    col_prefix: str = "E") -> str:
    """Square count matrix (rows = source expert, columns =
    destination expert) on the sequential blue ramp; an all-zero
    matrix renders every cell at the lightest step."""
    if not matrix or not matrix[0]:
        return '<p class="empty">no affinity transitions recorded</p>'
    n_rows = len(matrix)
    n_cols = max(len(row) for row in matrix)
    peak = max((max(row) if row else 0.0) for row in matrix)
    pad_l, pad_t = 44, 18
    cell = max(8, min(26, 480 // max(1, n_cols)))
    gap = 2
    width = pad_l + n_cols * (cell + gap) + 10
    height = pad_t + n_rows * (cell + gap) + 8
    out = [f'<svg viewBox="0 0 {width} {height}" width="100%" '
           f'role="img">']
    for j in range(n_cols):
        out.append(
            f'<text x="{pad_l + j * (cell + gap) + cell / 2:.1f}" '
            f'y="{pad_t - 5}" text-anchor="middle" font-size="9" '
            f'fill="var(--muted)">{_esc(col_prefix)}{j}</text>')
    for i, row in enumerate(matrix):
        cy = pad_t + i * (cell + gap)
        out.append(f'<text x="{pad_l - 6}" y="{cy + cell - 3}" '
                   f'text-anchor="end" font-size="9" '
                   f'fill="var(--muted)">{_esc(row_prefix)}{i}</text>')
        for j in range(n_cols):
            value = float(row[j]) if j < len(row) else 0.0
            idx = 0 if peak <= 0 else round(
                value / peak * (len(_RAMP) - 1))
            out.append(
                f'<rect x="{pad_l + j * (cell + gap)}" y="{cy}" '
                f'width="{cell}" height="{cell}" rx="2" '
                f'fill="{_RAMP[idx]}">'
                f'<title>{_esc(row_prefix)}{i} → {_esc(col_prefix)}{j}: '
                f'{_esc(_fmt(value))} tokens</title></rect>')
    out.append("</svg>")
    return "".join(out)


def _routing_panels(series: RunSeries) -> list[str]:
    """Routing-provenance panels: the inter-layer expert-affinity
    heatmap plus a hop-locality breakdown of the recorded traffic
    re-priced on the default 2-node scoring world (the same
    `repro route` uses); runs whose shapes have no legal placement on
    that world just skip the hop panels."""
    panels: list[str] = []
    affinity = series.routing_affinity or {}
    transitions = affinity.get("transitions") or []
    if transitions:
        summed = None
        for pair in transitions:
            if summed is None:
                summed = [[float(v) for v in row] for row in pair]
            else:
                for i, row in enumerate(pair):
                    for j, v in enumerate(row):
                        summed[i][j] += float(v)
        panels.append(_panel(
            "routing · inter-layer expert affinity (rows: expert at "
            "layer l, columns: expert at l+1, summed over layer pairs)",
            _matrix_heatmap(summed or [])))
    if series.routing_load:
        try:
            from repro.cluster.topology import ndv4_topology
            from repro.core.substrate import default_itemsize
            from repro.obs.routing import (
                profile_from_events,
                whatif_placements,
            )

            events = [{"kind": "routing_load",
                       "data": series.routing_load}]
            if series.routing_affinity:
                events.append({"kind": "routing_affinity",
                               "data": series.routing_affinity})
            profile = profile_from_events(events)
            scores = whatif_placements(
                profile, ndv4_topology(4, gpus_per_node=2),
                bytes_per_token=32 * default_itemsize())
        except ValueError:
            scores = []
        for score in scores:
            led = score.ledger
            panels.append(_panel(
                f"routing · token-hop locality under "
                f"{score.name} ({led.num_gpus} GPUs, priced "
                f"{led.priced_seconds * 1e3:.4f} ms inter-node)",
                _share_bars([
                    ("intra-GPU", float(led.intra_gpu)),
                    ("intra-node", float(led.intra_node)),
                    ("inter-node", float(led.inter_node)),
                ])))
    return panels


def _serving_panels(series: RunSeries) -> list[str]:
    """The serving panel: latency percentile sparklines over batch
    close time, the queue-depth timeline, and per-stage latency share
    bars (all six ledger spans)."""
    batches = series.serve_batches
    closes = [int(b.get("close_ms", 0)) for b in batches]
    brownout_markers = []
    was = False
    for b in batches:
        now = bool(b.get("brownout"))
        if now != was:
            brownout_markers.append(
                (int(b.get("close_ms", 0)), "warn",
                 "brownout " + ("begins" if now else "clears")))
        was = now
    panels = []
    for q in ("p50", "p95", "p99"):
        panels.append(_panel(
            f"serving · rolling model {q} latency (ms)",
            _line_chart(closes,
                        [float(b.get(f"{q}_ms", 0.0)) for b in batches],
                        markers=brownout_markers,
                        x_label="batch close (virtual ms)")))
    panels.append(_panel(
        "serving · queue depth at batch close",
        _line_chart(closes,
                    [float(b.get("queue_depth", 0)) for b in batches],
                    markers=brownout_markers,
                    x_label="batch close (virtual ms)")))
    load = series.serving_load or {}
    span_totals = load.get("span_totals_ns") or {}
    if span_totals:
        panels.append(_panel(
            "serving · latency share by stage (sum over requests)",
            _share_bars([(stage, float(ns) / 1e6)
                         for stage, ns in span_totals.items()])))
    return panels


# ----------------------------------------------------------------------
# HTML assembly
# ----------------------------------------------------------------------

def _tile(label: str, value: str, note: str = "") -> str:
    suffix = f" <small>{_esc(note)}</small>" if note else ""
    return (f'<div class="tile"><div class="label">{_esc(label)}'
            f'</div><div class="value">{_esc(value)}{suffix}'
            f'</div></div>')


def _panel(title: str, body: str) -> str:
    return (f'<div class="panel"><div class="title">{_esc(title)}'
            f'</div>{body}</div>')


def _status_cell(token: str, glyph: str, label: str) -> str:
    return (f'<span class="status {token}"><span class="dot"></span>'
            f'{_esc(glyph)} {_esc(label)}</span>')


def _alerts_table(alerts: Sequence[Mapping]) -> str:
    if not alerts:
        return '<p class="empty">no health alerts raised</p>'
    rows = []
    for a in alerts:
        token, glyph = _SEVERITY.get(a.get("severity", "warn"),
                                     ("warning", "!"))
        where = "" if a.get("layer") is None else f'L{a["layer"]}'
        if a.get("expert") is not None:
            where += f'/E{a["expert"]}'
        rows.append(
            f'<tr><td>{_esc(a.get("step", "–"))}</td>'
            f'<td>{_esc(a.get("kind", "?"))}</td>'
            f'<td>{_status_cell(token, glyph, a.get("severity", ""))}'
            f'</td><td>{_esc(where or "–")}</td>'
            f'<td>{_esc(_fmt(a.get("value")))}</td>'
            f'<td>{_esc(_fmt(a.get("threshold")))}</td>'
            f'<td>{_esc(a.get("message", ""))}</td></tr>')
    return ('<table><thead><tr><th>step</th><th>kind</th>'
            '<th>severity</th><th>where</th><th>value</th>'
            '<th>threshold</th><th>message</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _slo_table(checks: Sequence[Mapping]) -> str:
    if not checks:
        return '<p class="empty">no SLO checks recorded</p>'
    rows = []
    for c in checks:
        passed = bool(c.get("passed"))
        token, glyph = (("good", "✓") if passed
                        else ("critical", "✖"))
        bound = (f'{c.get("op", "<=")} '
                 f'{_fmt(float(c.get("bound", 0.0)))}')
        kind = "wall-clock" if c.get("measured") else "model"
        rows.append(
            f'<tr><td>{_esc(c.get("name", "?"))}</td>'
            f'<td>{_esc(_fmt(float(c.get("value", 0.0))))}</td>'
            f'<td>{_esc(bound)}</td><td>{_esc(kind)}</td>'
            f'<td>{_status_cell(token, glyph, "pass" if passed else "fail")}'
            f'</td></tr>')
    return ('<table><thead><tr><th>SLO</th><th>value</th>'
            '<th>bound</th><th>kind</th><th>verdict</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _timeline_table(timeline: Sequence[Mapping]) -> str:
    if not timeline:
        return ('<p class="empty">no fault / recovery / strategy '
                'events</p>')
    rows = []
    for ev in timeline:
        token, glyph = _TIMELINE_GLYPHS.get(ev.get("kind", ""),
                                            ("warning", "?"))
        detail = ", ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                           for k, v in ev.items()
                           if k not in ("kind", "step"))
        rows.append(
            f'<tr><td>{_esc(ev.get("step", "–"))}</td>'
            f'<td>{_status_cell(token, glyph, ev.get("kind", "?"))}'
            f'</td><td>{_esc(detail)}</td></tr>')
    return ('<table><thead><tr><th>step</th><th>event</th>'
            '<th>detail</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>')


def _step_table(series: RunSeries, limit: int = 200) -> str:
    if not series.steps:
        return '<p class="empty">no training steps recorded</p>'
    layer0 = series.layers[0] if series.layers else None
    rows = []
    for i, step in enumerate(series.steps[:limit]):
        loss = _fmt(series.loss[i]) if i < len(series.loss) else "–"
        grad = (_fmt(series.grad_norm[i])
                if i < len(series.grad_norm) else "–")
        ent = gini = "–"
        if layer0 is not None:
            try:
                j = series.routing_steps[layer0].index(step)
                ent = _fmt(series.entropy[layer0][j])
                gini = _fmt(series.gini[layer0][j])
            except ValueError:
                pass
        rows.append(f"<tr><td>{step}</td><td>{_esc(loss)}</td>"
                    f"<td>{_esc(grad)}</td><td>{_esc(ent)}</td>"
                    f"<td>{_esc(gini)}</td></tr>")
    truncated = ("" if len(series.steps) <= limit else
                 f'<p class="empty">… {len(series.steps) - limit} '
                 f'more steps omitted</p>')
    return ('<table><thead><tr><th>step</th><th>loss</th>'
            '<th>grad&nbsp;norm</th><th>entropy (L0)</th>'
            '<th>gini (L0)</th></tr></thead>'
            f'<tbody>{"".join(rows)}</tbody></table>{truncated}')


def render_dashboard(store: RunStore, token: str = "latest",
                     refresh: int | None = None) -> str:
    """Render one run into a standalone HTML document string.

    ``refresh`` adds a ``<meta http-equiv="refresh">`` so the page
    reloads every N seconds — the live-monitoring mode used by
    ``repro dashboard --refresh`` and the ``/`` route of
    :class:`repro.obs.live.LiveServer`.
    """
    run_id = store.resolve(token)
    manifest = store.manifest(run_id)
    series = build_series(store.events(run_id))

    # Markers and the tile count firing transitions; the table below
    # also lists the resolves.
    fired = [a for a in series.alerts if a.get("state") != "resolved"]
    step_markers = [(a.get("step") or 0, a.get("severity", "warn"),
                     f'{a.get("kind", "alert")}: '
                     f'{a.get("message", "")}')
                    for a in fired if a.get("layer") is None]
    critical = sum(1 for a in fired
                   if a.get("severity") == "critical")

    tiles = [
        _tile("steps", str(len(series.steps))),
        _tile("final loss",
              _fmt(series.loss[-1]) if series.loss else "–"),
        _tile("alerts", str(len(fired)),
              note=f"{critical} critical" if critical else ""),
        _tile("seed", str(manifest.seed)
              if manifest.seed is not None else "–"),
        _tile("status", manifest.status),
    ]
    if series.evals:
        final_eval = series.evals[-1]
        if "accuracy" in final_eval:
            tiles.insert(2, _tile("eval accuracy",
                                  _fmt(final_eval["accuracy"])))
    if series.slo_checks:
        failed = sum(1 for c in series.slo_checks
                     if not c.get("passed"))
        tiles.append(_tile(
            "SLO checks", f"{len(series.slo_checks) - failed}"
                          f"/{len(series.slo_checks)}",
            note=f"{failed} failed" if failed else "all pass"))

    panels = [_panel("training loss",
                     _line_chart(series.steps, series.loss,
                                 markers=step_markers))]
    if series.grad_norm:
        panels.append(_panel("gradient norm",
                             _line_chart(series.steps,
                                         series.grad_norm,
                                         markers=step_markers)))

    if series.profile is not None:
        prof = series.profile
        totals = prof.get("totals") or {}
        if prof.get("peak_bytes") is not None:
            tiles.append(_tile(
                "peak memory", _fmt_bytes(prof["peak_bytes"]),
                note="profiled"))
        if totals.get("flops"):
            tiles.append(_tile("profiled flops",
                               _fmt(float(totals["flops"]))))
        timeline_rows = prof.get("alloc_timeline") or []
        if timeline_rows:
            panels.append(_panel(
                "profiler · live tensor bytes over allocation events "
                "(fwd+bwd)",
                _line_chart([int(r[0]) for r in timeline_rows],
                            [float(r[1]) for r in timeline_rows],
                            x_label="alloc")))
        by_stage = prof.get("by_stage") or {}
        shares = [(stage, row.get("flops", 0.0))
                  for stage, row in by_stage.items()]
        if any(v > 0 for _, v in shares):
            panels.append(_panel(
                "profiler · FLOP share by MoE stage",
                _share_bars(shares)))

    if series.serve_batches:
        served = sum(int(b.get("size", 0))
                     for b in series.serve_batches)
        last = series.serve_batches[-1]
        tiles.append(_tile("requests served", str(served)))
        tiles.append(_tile("model p99",
                           f'{float(last.get("p99_ms", 0.0)):.1f} ms'))
        tiles.append(_tile(
            "max queue depth",
            str(max(int(b.get("queue_depth", 0))
                    for b in series.serve_batches))))
        panels.extend(_serving_panels(series))

    if series.routing_load:
        tiles.append(_tile(
            "dispatched slots",
            str(int(sum(sum(int(v) for v in bucket)
                        for layer_rows in
                        (series.routing_load.get("dispatched") or [])
                        for bucket in layer_rows))),
            note="post-drop"))
    panels.extend(_routing_panels(series))

    for layer in series.layers:
        lmarkers = [(a.get("step") or 0, a.get("severity", "warn"),
                     f'{a.get("kind", "alert")}: '
                     f'{a.get("message", "")}')
                    for a in fired if a.get("layer") == layer]
        steps = series.routing_steps[layer]
        panels.append(_panel(
            f"layer {layer} · routing entropy (normalized)",
            _line_chart(steps, series.entropy[layer],
                        markers=lmarkers)))
        panels.append(_panel(
            f"layer {layer} · load Gini (0 = balanced)",
            _line_chart(steps, series.gini[layer],
                        markers=lmarkers)))
        panels.append(_panel(
            f"layer {layer} · per-expert utilization "
            f"(tokens routed, light = idle)",
            _heatmap(steps, series.expert_load[layer])))

    created = manifest.created_at
    doc = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        *([f'<meta http-equiv="refresh" content="{int(refresh)}">']
          if refresh is not None and refresh > 0 else []),
        f"<title>repro run {_esc(run_id)}</title>",
        f"<style>{_CSS}</style></head>",
        '<body class="viz-root">',
        f"<h1>run {_esc(run_id)}</h1>",
        f'<p class="sub">seed={_esc(manifest.seed)} · '
        f"substrate={_esc(manifest.substrate)} · "
        f"git={_esc(manifest.git)} · "
        f"fingerprint=<code>{_esc(manifest.fingerprint)}</code> · "
        f"created_at={_esc(_fmt(created))}</p>",
        f'<div class="tiles">{"".join(tiles)}</div>',
        "".join(panels),
        "<h2>fault / strategy timeline</h2>",
        _timeline_table(series.timeline),
        *(["<h2>scenario SLO report</h2>",
           _slo_table(series.slo_checks)]
          if series.slo_checks else []),
        "<h2>health alerts</h2>",
        _alerts_table(series.alerts),
        "<details><summary>step table (text view of the charts)"
        "</summary>",
        _step_table(series),
        "</details>",
        "<details><summary>manifest</summary><pre>",
        _esc(json.dumps(manifest.to_json_obj(), indent=1,
                        sort_keys=True)),
        "</pre></details>",
        "</body></html>",
    ]
    return "\n".join(doc)


def write_dashboard(store: RunStore, token: str,
                    out_path: str | Path,
                    refresh: int | None = None) -> Path:
    """Render and write the dashboard; returns the output path."""
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(render_dashboard(store, token, refresh=refresh))
    return out
