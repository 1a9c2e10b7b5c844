"""Artifact files: atomic writes, the one JSON format, and the one checked JSON reader.

A file appears under its final name only once complete. Every JSON file the
package writes goes through write_json, and every JSON file it loads through
read_json_object.
"""

from __future__ import annotations

import contextlib
import json
import os

from .nn import check_type


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


def write_json(path, payload) -> None:
    """Write payload atomically as JSON: two-space indents, sorted keys, a final newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json_object(path) -> dict:
    """The JSON object the file at path holds; ValueError naming path if it holds anything else."""
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    check_type(str(path), payload, dict)
    return payload
