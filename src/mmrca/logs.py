"""Log ingestion: template mining, fixed-window sequencing, golden-signal labels.

Raw log messages are reduced to templates by masking variable fields
(numbers, hex ids, UUIDs, IPs) and grouping the masked strings exactly.
Events are then partitioned into fixed windows per entity, keeping the unique
templates in first-appearance order together with their in-window
frequencies. A window's anomaly label is the frequency-weighted fraction of
events whose template carries a golden-signal keyword.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

WILDCARD = "<*>"

# Windows with no events get a reserved template so the downstream encoder
# sees a value at every (entity, window).
EMPTY_TEMPLATE_ID = -1
EMPTY_PATTERN = "<empty>"

# Golden-signal keywords marking a log template as abnormal. Keywords that
# contain digits cannot survive masking and are omitted.
DEFAULT_GOLDEN_SIGNALS = (
    "error",
    "exception",
    "critical",
    "fatal",
    "timeout",
    "out of memory",
    "failed",
    "failure",
    "connection refused",
    "no space left on the device",
    "terminated unexpectedly",
    "backtrace",
    "stack trace",
    "service unavailable",
    "unable to connect",
    "rate limit exceeded",
    "request limit exceeded",
    "corrupted data",
    "data loss",
    "file not found",
    "cpu spike",
    "cpu saturation",
    "excessive cpu usage",
    "shutdown",
    "permission denied",
)

_MASK_PATTERNS = [
    re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}\b"),  # IPv4
    re.compile(
        r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b"
    ),  # UUID
    re.compile(r"\b0[xX][0-9a-fA-F]+\b"),  # 0x-prefixed hex
    re.compile(r"\b[0-9a-fA-F]*\d[0-9a-fA-F]*\b"),  # bare hex / integers / floats
]


@dataclass
class LogTemplate:
    template_id: int
    pattern: str


@dataclass
class LogSequenceWindow:
    entity: int
    window_index: int
    templates: list[int]
    frequencies: list[int]
    label: float = 0.0

    def __post_init__(self):
        if len(self.templates) != len(set(self.templates)):
            raise ValueError("window templates must be unique")
        if len(self.frequencies) != len(self.templates):
            raise ValueError("frequencies must align with templates")
        if any(f < 1 for f in self.frequencies):
            raise ValueError("frequencies must be positive")
        if not 0.0 <= self.label <= 1.0:
            raise ValueError("label must lie in [0, 1]")

    @property
    def is_empty(self) -> bool:
        return self.templates == [EMPTY_TEMPLATE_ID]


def mask_message(message: str) -> str:
    """Replace variable fields with the wildcard token; idempotent."""
    masked = message
    for pattern in _MASK_PATTERNS:
        masked = pattern.sub(WILDCARD, masked)
    return masked


def parse_templates(raw_logs) -> tuple[list[LogTemplate], list[tuple[int, int, int]]]:
    """Mine templates from raw log records and emit (timestamp, entity, template_id) events.

    Records are dicts with keys ts, entity, msg (the simulator's JSONL schema).
    Template ids are assigned in first-appearance order, so parsing is
    deterministic for a fixed record order.
    """
    vocabulary: list[LogTemplate] = []
    by_pattern: dict[str, int] = {}
    events: list[tuple[int, int, int]] = []
    for index, record in enumerate(raw_logs):
        try:
            ts, entity, msg = record["ts"], record["entity"], record["msg"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"log record {index} is missing field {exc}") from None
        pattern = mask_message(msg)
        if pattern not in by_pattern:
            by_pattern[pattern] = len(vocabulary)
            vocabulary.append(LogTemplate(template_id=len(vocabulary), pattern=pattern))
        events.append((int(ts), int(entity), by_pattern[pattern]))
    return vocabulary, events


def window_sequences(
    events,
    vocabulary: list[LogTemplate],
    window_size: int = 30,
    n_entities: int | None = None,
    n_windows: int | None = None,
) -> list[LogSequenceWindow]:
    """Partition events into fixed windows per entity.

    Within a window the unique templates appear in ascending first-appearance
    order with their occurrence counts. Every (entity, window) cell of the
    full grid is emitted; cells with no events carry the reserved empty
    template with frequency 1. n_windows extends the grid beyond the last
    event (needed to align with a KPI series covering the full horizon); an
    event whose window falls outside [0, n_windows) raises ValueError.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    valid_ids = {t.template_id for t in vocabulary}
    events = sorted(events, key=lambda e: e[0])
    if n_entities is None:
        n_entities = max((e[1] for e in events), default=-1) + 1
    if n_windows is None:
        n_windows = (max((e[0] for e in events), default=-1) // window_size) + 1
    n_windows = max(n_windows, 0)

    first_seen: dict[tuple[int, int], dict[int, int]] = {}
    counts: dict[tuple[int, int], Counter] = {}
    for position, (ts, entity, template_id) in enumerate(events):
        if template_id not in valid_ids:
            raise ValueError(f"template id {template_id} not present in the vocabulary")
        if not 0 <= entity < n_entities:
            raise ValueError(f"entity index {entity} out of range")
        window_index = ts // window_size
        if not 0 <= window_index < n_windows:
            raise ValueError(
                f"log event of entity {entity} at ts {ts} falls outside the grid of "
                f"{n_windows} windows of size {window_size}"
            )
        key = (entity, window_index)
        cell_first = first_seen.setdefault(key, {})
        if template_id not in cell_first:
            cell_first[template_id] = position
        counts.setdefault(key, Counter())[template_id] += 1

    windows: list[LogSequenceWindow] = []
    for entity in range(n_entities):
        for w in range(n_windows):
            key = (entity, w)
            if key in counts:
                ordered = sorted(first_seen[key], key=first_seen[key].get)
                windows.append(
                    LogSequenceWindow(
                        entity=entity,
                        window_index=w,
                        templates=ordered,
                        frequencies=[counts[key][t] for t in ordered],
                    )
                )
            else:
                windows.append(
                    LogSequenceWindow(
                        entity=entity,
                        window_index=w,
                        templates=[EMPTY_TEMPLATE_ID],
                        frequencies=[1],
                    )
                )
    return windows


def label_anomaly(
    window: LogSequenceWindow,
    vocabulary: list[LogTemplate],
    golden_signals=DEFAULT_GOLDEN_SIGNALS,
) -> float:
    """Frequency-weighted fraction of window events with a golden-signal template."""
    if not golden_signals:
        raise ValueError("golden_signals must be non-empty")
    if window.is_empty:
        return 0.0
    patterns = {t.template_id: t.pattern.lower() for t in vocabulary}
    signals = [s.lower() for s in golden_signals]
    flagged = 0
    total = 0
    for template_id, freq in zip(window.templates, window.frequencies):
        total += freq
        if any(s in patterns[template_id] for s in signals):
            flagged += freq
    return flagged / total if total else 0.0


def label_windows(
    windows: list[LogSequenceWindow],
    vocabulary: list[LogTemplate],
    golden_signals=DEFAULT_GOLDEN_SIGNALS,
) -> list[LogSequenceWindow]:
    """Assign golden-signal labels to every window in place and return the list."""
    for window in windows:
        window.label = label_anomaly(window, vocabulary, golden_signals)
    return windows


# --- persistence -----------------------------------------------------------


def vocabulary_to_json(vocabulary: list[LogTemplate]) -> str:
    payload = {str(t.template_id): t.pattern for t in vocabulary}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def vocabulary_from_json(text: str) -> list[LogTemplate]:
    payload = json.loads(text)
    return [
        LogTemplate(template_id=int(k), pattern=v)
        for k, v in sorted(payload.items(), key=lambda kv: int(kv[0]))
    ]


def windows_to_jsonl(windows: list[LogSequenceWindow]) -> str:
    lines = []
    for w in windows:
        lines.append(
            json.dumps(
                {
                    "entity": w.entity,
                    "window_index": w.window_index,
                    "templates": w.templates,
                    "frequencies": w.frequencies,
                    "label": w.label,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def windows_from_jsonl(text: str) -> list[LogSequenceWindow]:
    windows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        data = json.loads(line)
        windows.append(
            LogSequenceWindow(
                entity=data["entity"],
                window_index=data["window_index"],
                templates=list(data["templates"]),
                frequencies=list(data["frequencies"]),
                label=data["label"],
            )
        )
    return windows


def read_logs_jsonl(path) -> list[dict]:
    """Load the simulator's JSON-lines log stream."""
    records = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records
