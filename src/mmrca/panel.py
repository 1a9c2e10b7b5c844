"""Modality panels: per-entity time series with the KPI as the last row.

Both the metric and the log modality are handled as an n x T matrix whose
first n-1 rows are entity series and whose last row is the system KPI.

On disk a panel is a long CSV (timestamp, entity, metric_name, value), one
row per cell, timestamp-major. write_panel_csv formats the rows itself,
with the bytes csv.writer gives them, and read_panel_csv parses them with
csv.reader and assembles the grid with numpy; neither handles one cell at a
time in Python beyond the number conversions. A value that is not a finite
number, a timestamp that is not an int, a missing cell and a repeated cell
each raise ValueError naming the file, the entity and the timestamp.
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
    window-resolution log series. window_size must be at least 1.
    """
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


def _first_bad_row(path, rows, width: int, t_col: int, e_col: int, v_col: int) -> ValueError:
    """The error of the first of rows that has fewer than width fields, a timestamp
    that is not a 64-bit int, the (timestamp, entity) cell of an earlier row or a
    value that is not a finite number, checked in that order; rows must hold one."""
    seen = set()
    for row in rows:
        if len(row) < width:
            return ValueError(f"{path} has a row with fewer fields than its header: {row}")
        entity = row[e_col]
        try:
            stamp = int(row[t_col])
            np.int64(stamp)  # OverflowError beyond 64 bits
        except (ValueError, OverflowError):
            return ValueError(
                f"{path} has timestamp {row[t_col]!r} for entity {entity!r}, "
                "which is not a 64-bit int"
            )
        if (stamp, entity) in seen:
            return ValueError(
                f"{path} has more than one row for entity {entity!r} at timestamp {stamp}"
            )
        seen.add((stamp, entity))
        try:
            problem = None if np.isfinite(float(row[v_col])) else "finite"
        except ValueError:
            problem = "a number"
        if problem:
            return ValueError(
                f"{path} has value {row[v_col]!r} for entity {entity!r} "
                f"at timestamp {stamp}, which is not {problem}"
            )
    raise AssertionError("the bulk pass fails only on a bad row")


def read_panel_csv(path, metric_name: str) -> ModalityPanel:
    """Rebuild a panel from the long CSV schema.

    The entity series come from the rows of metric_name, in the order their
    entities first appear, and the last row from the KPI rows
    (entity == "kpi"). Every series must have exactly one value at every
    timestamp that any series has. The first of these rows in file order
    raises ValueError: one with fewer fields than the header, a timestamp
    that is not an int, a repeated (timestamp, entity) cell, a value that is
    not a finite number (such as nan or inf). Then a file without KPI rows,
    and then the first missing cell, series by series, raise ValueError. Each
    error names the file, and a cell's error the entity and the timestamp.

    The rows are converted and placed in one bulk pass; only when that fails
    are they checked one by one, to name the first bad row.
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

    index_of: dict[str, int] = {}
    try:
        if min(map(len, rows), default=width) < width:
            raise ValueError("a short row")
        ids = [index_of.setdefault(row[e_col], len(index_of)) for row in rows]
        stamps = np.array([int(row[t_col]) for row in rows], dtype=np.int64)
        cells = np.array([float(row[v_col]) for row in rows])
        timestamps, column = np.unique(stamps, return_inverse=True)
        # each row's cell of the (series, timestamp) grid, series in first-row order
        cell = np.array(ids, dtype=np.int64) * len(timestamps) + column
        counts = np.bincount(cell, minlength=len(index_of) * len(timestamps))
        if np.any(counts > 1) or not np.isfinite(cells).all():
            raise ValueError("a repeated cell or a value that is not finite")
    except (ValueError, OverflowError):
        raise _first_bad_row(path, rows, width, t_col, e_col, v_col) from None

    if KPI_ENTITY not in index_of:
        raise ValueError(f"no KPI rows found in {path}")
    entity_order = [name for name in index_of if name != KPI_ENTITY]
    series_names = entity_order + [KPI_ENTITY]
    series = [index_of[name] for name in series_names]
    grid = np.empty(len(counts))
    grid[cell] = cells
    values = grid.reshape(len(index_of), len(timestamps))[series]
    missing = counts.reshape(values.shape)[series] == 0
    if missing.any():
        row, col = np.argwhere(missing)[0]
        raise ValueError(
            f"{path} has no row for entity {series_names[row]!r} at timestamp {timestamps[col]}"
        )
    return ModalityPanel(values, entity_order)
