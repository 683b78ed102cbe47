"""Prometheus text-exposition export of a :class:`MetricsRegistry`.

Stdlib-only rendering of the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ so
serving metrics are scrapeable (or dumpable to a file a node exporter
picks up):

* counters  → ``# TYPE <name> counter`` samples;
* gauges    → ``# TYPE <name> gauge`` samples;
* histograms → ``# TYPE <name> summary``: one ``{quantile="..."}``
  sample per reservoir quantile plus the ``_sum``/``_count`` pair;
* labeled families → instrument names built with
  :func:`repro.obs.alerts.labeled_name`
  (``ALERTS{alertname="...",severity="..."}``)
  render as one shared ``HELP``/``TYPE`` head with per-label-set
  sample lines, the convention the alert engine uses to expose
  firing state.

Instrument names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``) — dots and other separators become
underscores — and the original name travels in a ``# HELP`` line,
escaped per the spec (``\\`` for backslash, ``\n`` for newline; label
values additionally escape ``"``).  :func:`parse_prometheus` is the
inverse used by the round-trip format test (and handy for ad-hoc
scraping assertions): it unescapes HELP text, and its label scanner
understands quoted values containing ``}``, ``{``, escapes, and
anything else a hostile instrument name drags in.
"""

from __future__ import annotations

import re

from repro.obs.alerts import escape_label_value
from repro.obs.registry import MetricsRegistry

__all__ = ["QUANTILES", "prometheus_name", "render_prometheus",
           "parse_prometheus"]

#: Reservoir quantiles exported per histogram.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_NAME_PREFIX = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_KEY = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


def prometheus_name(name: str) -> str:
    """The instrument name mapped onto the Prometheus grammar."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    assert _NAME_OK.match(out)
    return out


def _split_labeled(name: str) -> "tuple[str, list[tuple[str, str]]] | None":
    """Decode a :func:`~repro.obs.alerts.labeled_name` encoding, or
    None.

    Returns ``(family, [(key, unescaped value), ...])`` only when the
    whole suffix is one well-formed label block (validated via
    :func:`_scan_labels`); hostile instrument names with stray braces
    fall back to full-name sanitization instead of producing invalid
    exposition lines.
    """
    brace = name.find("{")
    if brace <= 0 or not name.endswith("}"):
        return None
    try:
        pairs, consumed = _scan_labels(name[brace:], 0)
    except ValueError:
        return None
    if consumed != len(name) - brace or not pairs:
        return None
    return name[:brace], pairs


def _fmt(value: float) -> str:
    return repr(float(value))


def _escape_help(text: str) -> str:
    """HELP text escaping per the spec: backslash and line feed."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape_help(text: str) -> str:
    return _unescape(text, quote=False)


def _unescape(text: str, *, quote: bool) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if quote and nxt == '"':
                out.append('"')
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as one text-exposition document."""
    lines: list[str] = []

    headed: set[str] = set()

    def head(pname: str, original: str, kind: str) -> None:
        lines.append(f"# HELP {pname} {_escape_help(original)}")
        lines.append(f"# TYPE {pname} {kind}")
        headed.add(pname)

    def scalar(name: str, value: float, kind: str) -> None:
        split = _split_labeled(name)
        if split is None:
            pname = prometheus_name(name)
            head(pname, name, kind)
            lines.append(f"{pname} {_fmt(value)}")
            return
        family, pairs = split
        pfam = prometheus_name(family)
        if pfam not in headed:
            head(pfam, family, kind)
        body = ",".join(f'{k}="{escape_label_value(v)}"'
                        for k, v in pairs)
        lines.append(f"{pfam}{{{body}}} {_fmt(value)}")

    for name, c in sorted(registry.counters.items()):
        scalar(name, c.value, "counter")
    for name, g in sorted(registry.gauges.items()):
        scalar(name, g.value, "gauge")
    for name, h in sorted(registry.histograms.items()):
        pname = prometheus_name(name)
        head(pname, name, "summary")
        for q in QUANTILES:
            label = escape_label_value(f"{q:g}")
            lines.append(
                f'{pname}{{quantile="{label}"}} {_fmt(h.quantile(q))}')
        lines.append(f"{pname}_sum {_fmt(h.total)}")
        lines.append(f"{pname}_count {_fmt(h.count)}")
    return "\n".join(lines) + "\n" if lines else ""


def _scan_labels(text: str, lineno: int) -> tuple[list[tuple[str, str]],
                                                  int]:
    """Parse a ``{...}`` label block starting at ``text[0] == '{'``.

    Returns the (key, unescaped value) pairs and the index just past
    the closing brace.  A regex cannot do this: quoted values may
    contain ``}``, ``{``, ``,``, and escape sequences.
    """
    pairs: list[tuple[str, str]] = []
    i = 1
    while True:
        while i < len(text) and text[i] in " \t":
            i += 1
        if i < len(text) and text[i] == "}":
            return pairs, i + 1
        m = _LABEL_KEY.match(text, i)
        if m is None:
            raise ValueError(
                f"line {lineno}: expected label name at column {i}: "
                f"{text!r}")
        key = m.group(0)
        i = m.end()
        if text[i:i + 2] != '="':
            raise ValueError(
                f"line {lineno}: expected '=\"' after label "
                f"{key!r}: {text!r}")
        i += 2
        raw: list[str] = []
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                raw.append(text[i:i + 2])
                i += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            i += 1
        if i >= len(text):
            raise ValueError(
                f"line {lineno}: unterminated label value: {text!r}")
        i += 1  # past the closing quote
        pairs.append((key, _unescape("".join(raw), quote=True)))
        if i < len(text) and text[i] == ",":
            i += 1
        elif i < len(text) and text[i] != "}":
            raise ValueError(
                f"line {lineno}: expected ',' or '}}' after label "
                f"value: {text!r}")


def parse_prometheus(text: str) -> dict[str, dict]:
    """Inverse of :func:`render_prometheus`.

    Returns ``{metric_name: {"type": ..., "help": ..., "samples":
    {sample_key: value}}}`` where ``sample_key`` is the bare name,
    ``name_sum``/``name_count``, or ``name{key="value"}`` with the
    label values *unescaped* and re-quoted canonically.  HELP text is
    unescaped, so escaped documents round-trip to the original
    instrument names.  Raises ``ValueError`` on malformed lines, so
    the round-trip test doubles as a format validator.
    """
    metrics: dict[str, dict] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            current = metrics.setdefault(
                name, {"type": None, "help": "", "samples": {}})
            current["help"] = _unescape_help(help_text)
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            current = metrics.setdefault(
                name, {"type": None, "help": "", "samples": {}})
            current["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        m = _NAME_PREFIX.match(line)
        if m is None:
            raise ValueError(
                f"line {lineno}: not a prometheus sample: {line!r}")
        sample_name = m.group(0)
        i = m.end()
        labels: list[tuple[str, str]] = []
        if i < len(line) and line[i] == "{":
            labels, consumed = _scan_labels(line[i:], lineno)
            i += consumed
        value_text = line[i:].strip()
        if not value_text or len(value_text.split()) != 1:
            raise ValueError(
                f"line {lineno}: expected one sample value, got "
                f"{line!r}")
        base = sample_name
        for suffix in ("_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in metrics:
                base = base[: -len(suffix)]
                break
        if base not in metrics:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} precedes its "
                f"# TYPE header")
        key = sample_name
        if labels:
            body = ",".join(f'{k}="{v}"' for k, v in labels)
            key = f"{sample_name}{{{body}}}"
        metrics[base]["samples"][key] = float(value_text)
    return metrics
