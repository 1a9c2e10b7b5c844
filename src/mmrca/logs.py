"""Log ingestion: template mining, fixed-window sequencing, golden-signal labels.

Raw log messages are reduced to templates by masking variable fields
(numbers, hex ids, UUIDs, IPs) and grouping the masked strings exactly.
Masking runs once per digit skeleton, not once per message: a message's
skeleton has each of 2-9 replaced by 1 (0 stays: the 0x-hex pattern reads it
as a literal). The patterns only ask of a character whether it is a decimal
digit, a word character or a hex digit, and whether it is one of the
literals ".", "-", "0", "x" or "X"; the mapping keeps every answer, so they
match at the same places in a message and in its skeleton. The masked
skeleton is then the message's template, unless a 1 survives the masking and
may stand for another digit; such a message is masked itself.
Events are then partitioned into fixed windows per entity, keeping the unique
templates in first-appearance order together with their in-window
frequencies. A window without events holds no template and is labelled 0.
A window's anomaly label is the frequency-weighted fraction of events whose
template carries a golden-signal keyword.

The data is columnar from the parse on: parse_templates returns the events as
one int array, and the windows are one WindowTable, every cell of the
entity-major (entity, window) grid with per-cell offsets into flat template
and frequency arrays and one label per cell. Windowing, labelling, writing
windows.jsonl and the encoder's tokenizer work on these arrays, not on one
Python object per record or window, and give the same values and bytes as
the per-record code they replaced (tests/test_logs.py keeps that code as the
reference). windows.jsonl is a report: no stage reads it back.

logs.jsonl is decoded a block of lines at a time, each block as one JSON
array over its non-blank lines, so that only one block of record dicts is
alive. A line that is not one JSON value raises ValueError naming the file
and the line's 1-based number.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .nn import check_type

WILDCARD = "<*>"

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

# Each of the first three patterns needs a literal character that mask_message
# tests for before running it: a message without the character cannot match.
_IPV4 = re.compile(r"\b\d{1,3}(?:\.\d{1,3}){3}\b")  # needs "."
_UUID = re.compile(
    r"\b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b"
)  # needs "-"
_HEX = re.compile(r"\b0[xX][0-9a-fA-F]+\b")  # 0x-prefixed hex, needs "x" or "X"
_BARE = re.compile(r"\b[0-9a-fA-F]*\d[0-9a-fA-F]*\b")  # bare hex / integers / floats

# A message's digit skeleton: 2-9 read as 1, which every pattern treats alike
_SKELETON = str.maketrans("23456789", "11111111")

# Records are decoded and parsed this many lines at a time
_BLOCK_LINES = 4096


@dataclass(eq=False)
class WindowTable:
    """The log windows of every cell of an n_entities x n_windows grid.

    Cells are entity-major: cell c is window c % n_windows of entity
    c // n_windows. Its unique templates, in first-appearance order, are
    templates[offsets[c]:offsets[c + 1]], their in-window counts sit at the
    same positions of frequencies, and labels[c] is its label. A cell with no
    events holds no entry: offsets[c] == offsets[c + 1]. Construction
    checks every cell: unique templates, frequencies aligned with them and
    positive, and a label in [0, 1]; a failure names the lowest offending cell
    and, of its failed checks, the first in that order.
    """

    n_entities: int
    n_windows: int
    offsets: np.ndarray
    templates: np.ndarray
    frequencies: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.templates = np.asarray(self.templates, dtype=np.int64)
        self.frequencies = np.asarray(self.frequencies, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=float)
        n_cells, n_entries = self.n_cells, len(self.templates)
        offsets = self.offsets
        if (
            offsets.shape != (n_cells + 1,)
            or offsets[0] != 0
            or offsets[-1] != n_entries
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise ValueError(f"window offsets must rise from 0 to {n_entries} over {n_cells} cells")
        if len(self.frequencies) != n_entries:
            raise ValueError("frequencies must align with templates")
        if self.labels.shape != (n_cells,):
            raise ValueError(f"labels must hold one value for each of the {n_cells} cells")
        cells = np.repeat(np.arange(n_cells), np.diff(offsets))
        order = np.lexsort((self.templates, cells))
        by_cell, by_template = cells[order], self.templates[order]
        repeated = (by_cell[1:] == by_cell[:-1]) & (by_template[1:] == by_template[:-1])
        # a row per cell and a column per check, in the order a cell is checked
        bad = np.zeros((n_cells, 3), dtype=bool)
        bad[by_cell[1:][repeated], 0] = True
        bad[cells[self.frequencies < 1], 1] = True
        bad[:, 2] = ~((self.labels >= 0.0) & (self.labels <= 1.0))
        if bad.any():
            cell, check = divmod(int(np.argmax(bad)), 3)
            message = ("window templates must be unique", "frequencies must be positive",
                       "label must lie in [0, 1]")[check]
            where = f"entity {cell // self.n_windows}, window {cell % self.n_windows}"
            label = f" has {self.labels[cell].item()!r}" if check == 2 else ""
            raise ValueError(f"{message}: {where}{label}")

    @property
    def n_cells(self) -> int:
        return self.n_entities * self.n_windows


def mask_message(message: str) -> str:
    """Replace variable fields with the wildcard token; idempotent.

    The patterns run in order: IPv4, UUID, 0x-hex, then bare hex and numbers.
    Each of the first three runs only when the message holds the literal it
    cannot match without, which skips work and changes no result.
    """
    if "." in message:
        message = _IPV4.sub(WILDCARD, message)
    if "-" in message:
        message = _UUID.sub(WILDCARD, message)
    if "x" in message or "X" in message:
        message = _HEX.sub(WILDCARD, message)
    return _BARE.sub(WILDCARD, message)


def _check_records(records, start: int = 0) -> None:
    """ValueError naming the first record that lacks a field or holds one of the wrong
    type; records[0] is record start of the stream."""
    for index, record in enumerate(records, start):
        try:
            ts, entity, msg = record["ts"], record["entity"], record["msg"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"log record {index} is missing field {exc}") from None
        check_type(f"log record {index} field 'ts'", ts, int)
        check_type(f"log record {index} field 'entity'", entity, int)
        check_type(f"log record {index} field 'msg'", msg, str)
        for name, value in (("ts", ts), ("entity", entity)):
            if not -(2**63) <= value < 2**63:
                raise ValueError(f"log record {index} field {name!r} does not fit in 64 bits")


def parse_templates(raw_logs) -> tuple[list[str], np.ndarray]:
    """Mine templates from raw log records and emit (timestamp, entity, template_id) events.

    Records are dicts with keys ts, entity, msg (the simulator's JSONL schema);
    ts and entity must be ints and msg a string, else ValueError names the
    first offending record by its index. raw_logs may be any iterable, and is
    taken _BLOCK_LINES records at a time, so a lazy one (read_logs_jsonl's)
    never has more than a block of records alive. The events are one int64
    array of shape (n_records, 3), a row per record in record order. Template
    ids are assigned in first-appearance order, so parsing is deterministic
    for a fixed record order. The vocabulary lists the templates' patterns, so
    a template's id is its position in the list.

    Each distinct digit skeleton (see the module docstring) is masked once;
    a message whose masked skeleton keeps a 1 is masked itself. This gives
    every message the template mask_message gives it.
    """
    records = iter(raw_logs)
    by_skeleton: dict[str, int] = {}  # a template id, or -1: mask the message
    by_pattern: dict[str, int] = {}
    blocks = [np.empty((0, 3), dtype=np.int64)]
    start = 0
    while block := list(itertools.islice(records, _BLOCK_LINES)):
        blocks.append(_parse_block(block, start, by_skeleton, by_pattern))
        start += len(block)
    return list(by_pattern), np.concatenate(blocks)


def _parse_block(records: list, start: int, by_skeleton: dict, by_pattern: dict) -> np.ndarray:
    """The events of records, which begin at record start of the stream."""
    events = np.empty((len(records), 3), dtype=np.int64)
    try:
        ts, entities, messages = (
            [record[name] for record in records] for name in ("ts", "entity", "msg")
        )
        if not (
            set(map(type, ts)) | set(map(type, entities)) <= {int}
            and set(map(type, messages)) <= {str}
        ):
            raise TypeError("a field of the wrong type")
        events[:, 0], events[:, 1] = ts, entities
    except (KeyError, TypeError, OverflowError):
        _check_records(records, start)
        # every field passed, so they are int and str subclasses such as numpy ints
        events[:, 0], events[:, 1] = ts, entities

    # one translate over the joined messages, each skeleton sliced out by length:
    # a translate call per message would cost about as much as the masking saves
    joined = "".join(messages).translate(_SKELETON)
    ends = list(itertools.accumulate(map(len, messages)))
    skeletons = [joined[a:b] for a, b in zip([0] + ends, ends)]
    ids = []
    for message, skeleton in zip(messages, skeletons):
        template_id = by_skeleton.get(skeleton)
        if template_id is None:
            masked = mask_message(skeleton)
            template_id = -1 if "1" in masked else by_pattern.setdefault(masked, len(by_pattern))
            by_skeleton[skeleton] = template_id
        if template_id < 0:
            template_id = by_pattern.setdefault(mask_message(message), len(by_pattern))
        ids.append(template_id)
    events[:, 2] = ids
    return events


def window_sequences(
    events, vocabulary: list[str], window_size: int, n_entities: int, n_windows: int
) -> WindowTable:
    """Partition events into fixed windows per entity.

    events is an (n, 3) int array of (ts, entity, template_id) rows, as
    parse_templates returns. Within a window the unique templates appear in
    ascending order of their first event, the events taken in a stable sort
    by ts, with their occurrence counts. Every cell of the n_entities x
    n_windows grid is emitted, so the windows cover the full horizon even
    after the last event; a cell with no events holds no entry. The first
    event in ts order whose template is not in the vocabulary, or whose
    entity or window falls outside the grid, raises ValueError.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    events = np.asarray(events, dtype=np.int64).reshape(-1, 3)
    ts, entity, template = events[np.argsort(events[:, 0], kind="stable")].T
    window = ts // window_size
    bad_template = (template < 0) | (template >= len(vocabulary))
    bad_entity = (entity < 0) | (entity >= n_entities)
    bad_window = (window < 0) | (window >= n_windows)
    bad = bad_template | bad_entity | bad_window
    if bad.any():
        i = int(np.argmax(bad))
        if bad_template[i]:
            raise ValueError(f"template id {template[i]} not present in the vocabulary")
        if bad_entity[i]:
            raise ValueError(f"entity index {entity[i]} out of range")
        raise ValueError(
            f"log event of entity {entity[i]} at ts {ts[i]} falls outside the grid of "
            f"{n_windows} windows of size {window_size}"
        )

    # one key per (cell, template); np.unique reports the first event of each
    span = max(len(vocabulary), 1)
    keys = (entity * n_windows + window) * span + template
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    cells = keys // span
    order = np.lexsort((first, cells))

    n_cells = n_entities * n_windows
    offsets = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cells, minlength=n_cells), out=offsets[1:])
    return WindowTable(
        n_entities, n_windows, offsets, keys[order] % span, counts[order], np.zeros(n_cells)
    )


def label_windows(windows: WindowTable, vocabulary: list[str]) -> WindowTable:
    """The table with each cell labelled by the frequency-weighted fraction of its
    events whose template contains one of DEFAULT_GOLDEN_SIGNALS.

    Each template is tested for the keywords once. A label is the int count of
    flagged events over the int count of all events, a true division, and an
    empty cell's label is 0.0.
    """
    flagged_ids = [
        template_id for template_id, pattern in enumerate(vocabulary)
        if any(s in pattern.lower() for s in DEFAULT_GOLDEN_SIGNALS)
    ]

    def cell_sums(values):
        cumulative = np.concatenate(([0], np.cumsum(values)))
        return cumulative[windows.offsets[1:]] - cumulative[windows.offsets[:-1]]

    flagged = np.where(np.isin(windows.templates, flagged_ids), windows.frequencies, 0)
    total = cell_sums(windows.frequencies)
    labels = np.zeros(windows.n_cells)
    np.divide(cell_sums(flagged), total, out=labels, where=total > 0)
    return dataclasses.replace(windows, labels=labels)


# --- persistence -----------------------------------------------------------


def _decode_json_lines(lines: list[str], source, first_number: int) -> list:
    """The JSON value of each non-blank line, in order; lines[0] is line first_number
    of source.

    The lines are decoded as one JSON array, joined by a comma and a newline:
    a raw newline cannot sit inside a JSON string, so no string spans two
    lines. When that decode fails or gives another count of values than of
    lines, the lines are decoded one by one and the first that is not one
    JSON value raises ValueError naming source and its 1-based line number.
    """
    kept = [line for line in lines if line.strip()]
    try:
        values = json.loads("[" + ",\n".join(kept) + "]")
        if len(values) == len(kept):
            return values
    except json.JSONDecodeError:
        pass
    for number, line in enumerate(lines, first_number):
        if line.strip():
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source} line {number} is not valid JSON: {exc}") from None
    raise AssertionError("every line decodes alone, so the joined decode cannot fail")


def windows_to_jsonl(windows: WindowTable) -> str:
    """One JSON object per cell, entity-major: the bytes json.dumps(..., sort_keys=True)
    gives for the cell's entity, frequencies, label, templates and window_index."""
    templates = list(map(str, windows.templates.tolist()))
    frequencies = list(map(str, windows.frequencies.tolist()))
    offsets = windows.offsets.tolist()
    labels = windows.labels.tolist()
    lines = []
    for cell, label in enumerate(labels):
        a, b = offsets[cell], offsets[cell + 1]
        entity, window = divmod(cell, windows.n_windows)
        lines.append(
            f'{{"entity": {entity}, "frequencies": [{", ".join(frequencies[a:b])}], '
            f'"label": {label!r}, "templates": [{", ".join(templates[a:b])}], '
            f'"window_index": {window}}}'
        )
    return "\n".join(lines) + "\n"


def read_logs_jsonl(path):
    """Yield the value of each non-blank line of the simulator's JSON-lines log
    stream, decoding _BLOCK_LINES lines at a time; a bad line raises ValueError
    when its block is reached."""
    with open(path) as fh:
        first_number = 1
        while block := list(itertools.islice(fh, _BLOCK_LINES)):
            yield from _decode_json_lines(block, path, first_number)
            first_number += len(block)
