"""The metric records of a run and their two serialisations.

A run's metrics are an ordered list of :class:`MetricFamily` records (the
collector's ``Telemetry.registry``), each a name, help text, type and label
names plus one value per label-value tuple: a number, or a
:class:`Histogram` for a histogram family.  The collector fills them once,
after the run, and two functions serialise them:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  ``le``-bucket histograms, a ``repro_build_info`` info-metric carrying the
  run manifest) suitable for a file-based scrape or pushgateway; ``repro
  simulate --prom`` writes it once the run is over.
* :func:`snapshot_registry` — a JSON-serialisable structure with the same
  content, printed by ``repro simulate --json`` and written to its
  ``--snapshot`` file.

:func:`validate_exposition` is a self-contained lint of the exposition
format (name/label grammar, header presence, histogram invariants) used by
the CI smoke job and the test suite, so the exporter cannot silently drift
from what a real Prometheus scraper would accept.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from typing import Any

__all__ = [
    "Histogram",
    "MetricFamily",
    "render_prometheus",
    "snapshot_registry",
    "validate_exposition",
]

_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\["\\n])*)"')
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)


class Histogram:
    """Fixed-bucket distribution with sum and count.

    ``bucket_counts[i]`` counts observations ``<= uppers[i]`` exclusively of
    earlier buckets (per-bucket, not cumulative — the exporter accumulates);
    the implicit final ``+Inf`` bucket is ``bucket_counts[-1]``.
    """

    __slots__ = ("uppers", "bucket_counts", "sum", "count")

    def __init__(self, uppers: Sequence[float]) -> None:
        self.uppers: tuple[float, ...] = tuple(float(u) for u in uppers)
        self.bucket_counts: list[int] = [0] * (len(self.uppers) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.uppers, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(+Inf, count)``."""
        out: list[tuple[float, int]] = []
        running = 0
        for upper, n in zip(self.uppers, self.bucket_counts):
            running += n
            out.append((upper, running))
        out.append((math.inf, self.count))
        return out


class MetricFamily:
    """One named metric: its schema and a value per label-value tuple.

    ``values`` maps a tuple of label values, in ``labelnames`` order, to a
    number, or to a :class:`Histogram` (which carries its own bucket
    bounds) on a histogram family.  A label tuple without an entry is not
    exported.
    """

    __slots__ = ("name", "help", "type", "labelnames", "values")

    def __init__(self, name: str, help: str, type: str, labelnames: tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.type = type  # "counter", "gauge" or "histogram"
        self.labelnames = labelnames
        self.values: dict[tuple[str, ...], Any] = {}

    def samples(self) -> Iterator[tuple[dict[str, str], Any]]:
        """``(labels, value)`` pairs in sorted label order."""
        for key in sorted(self.values):
            yield dict(zip(self.labelnames, key)), self.values[key]


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting (``+Inf``, integral floats bare)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_block(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in labels.items())
    return "{" + body + "}"


def render_prometheus(families: Iterable[MetricFamily], manifest: dict[str, Any] | None = None) -> str:
    """The families in Prometheus text exposition format."""
    lines: list[str] = []
    if manifest:
        # Info-metric idiom: constant 1 with the manifest's scalar entries
        # as labels (nested structures don't fit the label model).
        info_labels = {
            key: str(value)
            for key, value in sorted(manifest.items())
            if isinstance(value, (str, int, float, bool))
        }
        lines.append("# HELP repro_build_info Run manifest (host, toolchain, topology).")
        lines.append("# TYPE repro_build_info gauge")
        lines.append(f"repro_build_info{_labels_block(info_labels)} 1")
    for family in families:
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for labels, value in family.samples():
            block = _labels_block(labels)
            if isinstance(value, Histogram):
                for upper, cum in value.cumulative():
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _fmt(upper)
                    lines.append(f"{family.name}_bucket{_labels_block(bucket_labels)} {cum}")
                lines.append(f"{family.name}_sum{block} {_fmt(value.sum)}")
                lines.append(f"{family.name}_count{block} {value.count}")
            else:
                lines.append(f"{family.name}{block} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def snapshot_registry(families: Iterable[MetricFamily]) -> list[dict[str, Any]]:
    """The families as a JSON-serialisable list."""
    out: list[dict[str, Any]] = []
    for family in families:
        samples: list[dict[str, Any]] = []
        for labels, value in family.samples():
            if isinstance(value, Histogram):
                samples.append(
                    {
                        "labels": labels,
                        "buckets": [
                            ["+Inf" if math.isinf(le) else le, cum]
                            for le, cum in value.cumulative()
                        ],
                        "sum": value.sum,
                        "count": value.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": value})
        out.append(
            {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        )
    return out


def _parse_value(text: str) -> float | None:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        return None


def validate_exposition(text: str) -> list[str]:
    """Lint a Prometheus text exposition; returns problems (empty = valid)."""
    problems: list[str] = []
    typed: dict[str, str] = {}
    helped: set[str] = set()
    # base name -> {labels-without-le -> last cumulative count} for bucket checks
    bucket_runs: dict[tuple[str, str], tuple[float, float]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[3].strip():
                problems.append(f"line {lineno}: HELP without text")
            else:
                helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"line {lineno}: malformed TYPE line {line!r}")
            else:
                typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_text = match.group("labels")
        labels: dict[str, str] = {}
        if labels_text:
            consumed = 0
            for lmatch in _LABEL_RE.finditer(labels_text):
                labels[lmatch.group(1)] = lmatch.group(2)
                consumed += len(lmatch.group(0))
            stripped = labels_text.replace(",", "")
            if consumed != len(stripped):
                problems.append(f"line {lineno}: malformed label block {{{labels_text}}}")
        value = _parse_value(match.group("value"))
        if value is None:
            problems.append(f"line {lineno}: unparseable value {match.group('value')!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = name.removesuffix(suffix)
            if trimmed != name and typed.get(trimmed) == "histogram":
                base = trimmed
                break
        if base not in typed:
            problems.append(f"line {lineno}: sample {name!r} has no TYPE header")
            continue
        if base not in helped and base != "repro_build_info":
            problems.append(f"line {lineno}: sample {name!r} has no HELP header")
        if typed[base] == "counter" and value < 0:
            problems.append(f"line {lineno}: counter {name!r} is negative ({value})")
        if name == base + "_bucket" and typed[base] == "histogram":
            le = _parse_value(labels.get("le", ""))
            if le is None:
                problems.append(f"line {lineno}: histogram bucket without valid 'le' label")
                continue
            series = (base, repr(sorted((k, v) for k, v in labels.items() if k != "le")))
            prev = bucket_runs.get(series)
            if prev is not None:
                prev_le, prev_cum = prev
                if le <= prev_le:
                    problems.append(f"line {lineno}: bucket le={le} not increasing")
                if value < prev_cum:
                    problems.append(f"line {lineno}: bucket count {value} decreased")
            bucket_runs[series] = (le, value)
    for (base, _), (last_le, _) in bucket_runs.items():
        if not math.isinf(last_le):
            problems.append(f"histogram {base!r}: bucket run does not end at le=+Inf")
    return problems
