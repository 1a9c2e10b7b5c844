"""Modality panels: per-entity time series with the KPI as the last row.

Both the metric and the log modality are handled as an n x T matrix whose
first n-1 rows are entity series and whose last row is the system KPI.

On disk a panel is a long CSV (timestamp, entity, metric_name, value), one
row per cell, timestamp-major. write_panel_csv formats the rows itself,
with the bytes csv.writer gives them, and read_panel_csv parses them with
csv.reader and assembles the grid with numpy; neither handles one cell at a
time in Python beyond the number conversions. A value or timestamp that is
not a number, a missing cell and a repeated cell each raise ValueError
naming the file, the entity and the timestamp.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open

KPI_ENTITY = "kpi"


@dataclass
class ModalityPanel:
    """An n x T panel of time series; row n-1 is always the KPI."""

    values: np.ndarray
    entity_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("panel values must be a 2-D array")
        if self.values.shape[0] != len(self.entity_names) + 1:
            raise ValueError(
                f"panel has {self.values.shape[0]} rows but "
                f"{len(self.entity_names)} entity names (+1 KPI expected)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel contains NaN or Inf")

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_timesteps(self) -> int:
        return self.values.shape[1]

    @property
    def node_names(self) -> list[str]:
        return list(self.entity_names) + [KPI_ENTITY]

    @property
    def kpi(self) -> np.ndarray:
        return self.values[-1]


def aggregate_windows(panel: ModalityPanel, window_size: int) -> ModalityPanel:
    """Average a panel over consecutive fixed windows (last window may be short).

    With window_size=1 each window is one step, so the values come back
    unchanged; larger windows align a timestep-resolution panel with
    window-resolution log series.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    n, t = panel.values.shape
    full = t // window_size
    out = np.empty((n, -(-t // window_size)))
    out[:, :full] = panel.values[:, :full * window_size].reshape(n, full, window_size).mean(axis=2)
    if full < out.shape[1]:
        out[:, full] = panel.values[:, full * window_size:].mean(axis=1)
    return ModalityPanel(out, list(panel.entity_names))


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in the middle of a row, quoted where it must be."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def write_panel_csv(panel: ModalityPanel, path, metric_name: str) -> None:
    """Write a panel in the long metric CSV schema (timestamp, entity, metric_name, value).

    One row per cell, timestamp-major with the KPI last at each timestamp,
    every value as repr(float): the bytes csv.writer gives. Each timestamp's
    rows are written as one string, so a value that is not a number fails the
    write after the rows of the timestamps before it.
    """
    metric = _csv_field(metric_name)
    prefixes = [f",{_csv_field(name)},{metric}," for name in panel.entity_names]
    prefixes.append(f",{KPI_ENTITY},{KPI_ENTITY},")
    with atomic_open(path, "w", newline="") as fh:
        fh.write("timestamp,entity,metric_name,value\r\n")
        for t, column in enumerate(panel.values.T.tolist()):
            rows = [f"{t}{prefix}{float(v)!r}\r\n" for prefix, v in zip(prefixes, column)]
            fh.write("".join(rows))


def _int64(text: str) -> int:
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _first_rejected(convert, texts) -> int:
    """Index of the first of texts that convert rejects with ValueError."""
    for i, text in enumerate(texts):
        try:
            convert(text)
        except ValueError:
            return i
    raise AssertionError("convert accepts every text")


def read_panel_csv(path, metric_name: str) -> ModalityPanel:
    """Rebuild a panel from the long CSV schema.

    The entity series come from the rows of metric_name, in the order their
    entities first appear, and the last row from the KPI rows
    (entity == "kpi"). Every series must have exactly one value at every
    timestamp that any series has. The first of these rows in file order
    raises ValueError: one with fewer fields than the header, a timestamp
    that is not an int, a repeated (timestamp, entity) cell, a value that is
    not a number. Then a file without KPI rows, and then the first missing
    cell, series by series, raise ValueError. Each error names the file, and
    a cell's error the entity and the timestamp.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        names = ("timestamp", "entity", "metric_name", "value")
        if not set(names) <= set(header):
            raise ValueError(f"{path} needs the columns {', '.join(names)}; it has {header}")
        t_col, e_col, m_col, v_col = map(header.index, names)
        width = max(t_col, e_col, m_col, v_col) + 1
        rows = [
            row
            for row in reader
            if row and (len(row) < width or row[e_col] == KPI_ENTITY or row[m_col] == metric_name)
        ]

    # each check reads only the rows before the first row that an earlier check rejects
    end = next((i for i, row in enumerate(rows) if len(row) < width), len(rows))
    if end < len(rows):
        problem = f"{path} has a row with fewer fields than its header: {rows[end]}"
    entities = [row[e_col] for row in rows[:end]]
    stamp_texts = [row[t_col] for row in rows[:end]]
    try:
        stamps = np.array(list(map(int, stamp_texts)), dtype=np.int64)
    except (ValueError, OverflowError):
        end = _first_rejected(_int64, stamp_texts)
        problem = (
            f"{path} has timestamp {stamp_texts[end]!r} for entity {entities[end]!r}, "
            "which is not a 64-bit int"
        )
        stamps = np.array(list(map(int, stamp_texts[:end])), dtype=np.int64)
    index_of: dict[str, int] = {}
    ids = np.array([index_of.setdefault(e, len(index_of)) for e in entities[:end]], dtype=np.int64)
    order = np.lexsort((stamps, ids))  # stable: a repeated cell's later rows follow its first
    sorted_ids, sorted_stamps = ids[order], stamps[order]
    repeats = order[1:][
        (sorted_ids[1:] == sorted_ids[:-1]) & (sorted_stamps[1:] == sorted_stamps[:-1])
    ]
    if len(repeats):
        end = int(repeats.min())
        problem = (
            f"{path} has more than one row for entity {entities[end]!r} "
            f"at timestamp {stamps[end]}"
        )
    value_texts = [row[v_col] for row in rows[:end]]
    try:
        cells = np.array(list(map(float, value_texts)))
    except ValueError:
        end = _first_rejected(float, value_texts)
        problem = (
            f"{path} has value {value_texts[end]!r} for entity {entities[end]!r} "
            f"at timestamp {stamps[end]}, which is not a number"
        )
    if end < len(rows):
        raise ValueError(problem)

    if KPI_ENTITY not in index_of:
        raise ValueError(f"no KPI rows found in {path}")
    entity_order = [name for name in index_of if name != KPI_ENTITY]
    series_row = np.empty(len(index_of), dtype=np.int64)
    series_row[[index_of[name] for name in entity_order + [KPI_ENTITY]]] = np.arange(len(index_of))
    timestamps, column = np.unique(stamps, return_inverse=True)
    values = np.empty((len(index_of), len(timestamps)))
    filled = np.zeros(values.shape, dtype=bool)
    values[series_row[ids], column] = cells
    filled[series_row[ids], column] = True
    if not filled.all():
        row, col = np.argwhere(~filled)[0]
        name = (entity_order + [KPI_ENTITY])[row]
        raise ValueError(f"{path} has no row for entity {name!r} at timestamp {timestamps[col]}")
    return ModalityPanel(values, entity_order)
