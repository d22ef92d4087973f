"""CSV/JSON emission helpers shared by the CLI and the verification runner.

CSV documents start with a comment line carrying the fully resolved
configuration, then a header row: the keys of the first row, which every
row shares.  A cell holding a comma, a quote, a line feed or a carriage
return is quoted, so each row parses to as many fields as the header.
Rows end in a line feed.  Floats are written with shortest round-trip repr
so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from pathlib import Path

__all__ = [
    "format_cell", "format_csv", "format_json", "make_output_dir", "resolve_output_path", "write_output",
]

#: Environment variable naming the default directory for emitted artifacts.
OUTPUT_DIR_ENV = "KSTEP_LLN_OUTPUT_DIR"


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Lines(list):
    """Write target of a csv writer: one list item per row, its terminator cut."""

    def write(self, row: str) -> None:
        self.append(row[:-2])


def format_csv(rows: list[dict], config: dict) -> str:
    # A writer ending rows with "\r\n" quotes cells holding either character;
    # the rows are then joined with "\n".
    lines = _Lines(["# config: " + json.dumps(config, sort_keys=True)])
    writer = csv.writer(lines, lineterminator="\r\n")
    header = list(rows[0])
    writer.writerow(header)
    writer.writerows([format_cell(row[c]) for c in header] for row in rows)
    return "\n".join(lines) + "\n"


def format_json(payload, config: dict) -> str:
    return json.dumps({"config": config, "result": payload}, indent=1, sort_keys=True) + "\n"


def resolve_output_path(path: str | None) -> Path | None:
    """Resolve a user-supplied output path against the output-dir environment variable."""
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def make_output_dir(path: str) -> None:
    """Create directory `path`, resolved as `resolve_output_path` does; ValueError if it cannot be."""
    target = resolve_output_path(path)
    try:
        target.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc}") from exc


def write_output(text: str, path: str | None) -> None:
    """Write `text` to `path` (stdout if None); an unwritable path is a ValueError."""
    target = resolve_output_path(path)
    if target is None:
        sys.stdout.write(text)
        return
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {target}: {exc}") from exc
