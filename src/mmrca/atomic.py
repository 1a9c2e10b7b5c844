"""Atomic artifact writes: a file appears under its final name only once complete."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open path + ".partial" for writing; rename it onto path when the block succeeds.

    A block that raises leaves any earlier file at path untouched and the
    .partial file beside it.
    """
    partial = os.fspath(path) + ".partial"
    with open(partial, mode, **kwargs) as fh:
        yield fh
    os.replace(partial, path)
