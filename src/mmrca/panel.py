"""Modality panels: per-entity time series with the KPI as the last row.

Both the metric and the log modality are handled as an n x T matrix whose
first n-1 rows are entity series and whose last row is the system KPI.
"""

from __future__ import annotations

import csv
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

    With window_size=1 the panel is returned unchanged (same resolution as the
    raw timeline); larger windows align a timestep-resolution panel with
    window-resolution log series.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    if window_size == 1:
        return ModalityPanel(panel.values.copy(), list(panel.entity_names))
    n, t = panel.values.shape
    n_windows = -(-t // window_size)
    out = np.empty((n, n_windows))
    for w in range(n_windows):
        out[:, w] = panel.values[:, w * window_size:(w + 1) * window_size].mean(axis=1)
    return ModalityPanel(out, list(panel.entity_names))


def write_panel_csv(panel: ModalityPanel, path, metric_name: str) -> None:
    """Write a panel in the long metric CSV schema (timestamp, entity, metric_name, value)."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "entity", "metric_name", "value"])
        names = panel.entity_names
        for t in range(panel.n_timesteps):
            for i, name in enumerate(names):
                writer.writerow([t, name, metric_name, repr(float(panel.values[i, t]))])
            writer.writerow([t, KPI_ENTITY, KPI_ENTITY, repr(float(panel.values[-1, t]))])


def read_panel_csv(path, metric_name: str) -> ModalityPanel:
    """Rebuild a panel from the long CSV schema.

    The entity series come from the rows of metric_name, the last row from
    the KPI rows (entity == "kpi"). Every series must have exactly one value
    at every timestamp that any series has; a missing or a repeated
    (timestamp, entity) cell raises ValueError naming the file, the entity
    and the timestamp.
    """
    series: dict[str, dict[int, float]] = {}
    entity_order: list[str] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            entity = row["entity"]
            if entity != KPI_ENTITY and row["metric_name"] != metric_name:
                continue
            if entity not in series:
                series[entity] = {}
                if entity != KPI_ENTITY:
                    entity_order.append(entity)
            cells, t = series[entity], int(row["timestamp"])
            if t in cells:
                raise ValueError(
                    f"{path} has more than one row for entity {entity!r} at timestamp {t}"
                )
            cells[t] = float(row["value"])
    if KPI_ENTITY not in series:
        raise ValueError(f"no KPI rows found in {path}")
    timestamps = sorted(set().union(*series.values()))
    values = np.empty((len(entity_order) + 1, len(timestamps)))
    for i, name in enumerate(entity_order + [KPI_ENTITY]):
        try:
            values[i] = [series[name][t] for t in timestamps]
        except KeyError as exc:
            raise ValueError(f"{path} has no row for entity {name!r} at timestamp {exc}") from None
    return ModalityPanel(values, entity_order)
