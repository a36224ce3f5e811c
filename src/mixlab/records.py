"""Result records and their deterministic CSV / JSON serializations.

A record is a flat table plus a flat metadata mapping.  Serialization is
fully determined by the record contents: floats are written with 17
significant digits (which round-trips doubles exactly), metadata keys
are sorted, and nothing time- or host-dependent is ever emitted, so
rerunning an experiment with the same config and seed reproduces the
output byte for byte.

The rows may be any sequence whose slices are lists of tuples, such as
one that builds its rows from arrays on demand.  Both formats render
them 1024 rows at a time, so no more row objects than that exist at
once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Any


@dataclass
class ResultRecord:
    """One experiment's output: metadata plus a column-labeled table."""

    experiment: str
    meta: dict[str, Any] = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: Sequence[tuple] = field(default_factory=list)


def config_hash(normalized: dict) -> str:
    """Short stable digest of a normalized config mapping."""
    blob = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def format_cell(value: Any) -> str:
    """Canonical text for one CSV cell (None becomes the empty cell)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


#: printf conversions that give :func:`format_cell`'s text for cells of
#: exactly these types (bool and None take the per-cell path).
_CONVERSIONS = {float: "%.17g", int: "%d", str: "%s"}

#: Rows rendered at a time; bounds the row objects and strings held at once.
_CHUNK_ROWS = 1024

#: Cell types that ``json.dumps`` with ``indent`` None (the C encoder) writes
#: as the indenting encoder does, and the breaks between the cells and the
#: rows of the json text's "rows" array.
_JSON_CELLS = {int, float, str, bool, type(None)}
_CELL_BREAK = ",\n      "
_ROW_BREAK = "\n    ],\n    [\n      "

#: Characters handed to a text stream per write, so that it never
#: encodes a second copy of the whole text.
_WRITE_CHARS = 1 << 16


def _printf_rows(rows: list[tuple], width: int) -> str | None:
    """The csv text of ``rows`` from one printf template, or None when a
    column of ``rows`` mixes cell types or holds a type other than float,
    int and str, or a str cell needs csv quoting."""
    if width < 2 or set(map(len, rows)) != {width}:
        return None
    specs = []
    for column in range(width):
        kinds = set(map(type, map(itemgetter(column), rows)))
        spec = _CONVERSIONS.get(kinds.pop()) if len(kinds) == 1 else None
        if spec is None:
            return None
        specs.append(spec)
    text = "".join(map((",".join(specs) + "\n").__mod__, rows))
    # numbers hold no comma, quote or line break, so any beyond the
    # template's own come from a str cell that csv would quote
    if (
        text.count(",") != (width - 1) * len(rows)
        or text.count("\n") != len(rows)
        or '"' in text
        or "\r" in text
    ):
        return None
    return text


def to_csv_text(record: ResultRecord) -> str:
    """The record as csv text: the bytes of ``csv.writer`` on cells
    formatted by :func:`format_cell`, written a chunk of rows at a time
    from one printf template where the cells allow it."""
    buf = io.StringIO()
    for key in sorted(record.meta):
        buf.write(f"# {key}={format_cell(record.meta[key])}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for start in range(0, len(record.rows), _CHUNK_ROWS):
        chunk = record.rows[start : start + _CHUNK_ROWS]
        text = _printf_rows(chunk, len(record.columns))
        if text is None:
            writer.writerows([format_cell(v) for v in row] for row in chunk)
        else:
            buf.write(text)
    return buf.getvalue()


def to_json_text(record: ResultRecord) -> str:
    """The record as the text of ``json.dumps(payload, sort_keys=True,
    indent=2)`` plus a newline, with the rows dumped a chunk at a time.

    "rows" sorts last among the payload's keys, so the text is the rest
    of the payload with the rows' array appended before its closing
    brace; each chunk's array loses its brackets and is indented one
    level deeper (a JSON string holds no raw line break).  A chunk of
    nonempty rows of ``_JSON_CELLS`` cells is dumped by the C encoder
    (``indent`` None) with the indented cell break as its separator, and
    "]" + that break + "[", which only a row break can hold, is replaced.
    """
    head = json.dumps(
        {"experiment": record.experiment, "meta": record.meta, "columns": record.columns},
        sort_keys=True,
        indent=2,
    )
    parts = [head[:-2], ',\n  "rows": [']
    for start in range(0, len(record.rows), _CHUNK_ROWS):
        chunk = [list(row) for row in record.rows[start : start + _CHUNK_ROWS]]
        if all(chunk) and set(map(type, chain.from_iterable(chunk))) <= _JSON_CELLS:
            text = json.dumps(chunk, separators=(_CELL_BREAK, ": "))
            text = "\n    [\n      " + text[2:-2].replace("]" + _CELL_BREAK + "[", _ROW_BREAK)
            text += "\n    ]"
        else:
            text = json.dumps(chunk, sort_keys=True, indent=2)[1:-2].replace("\n", "\n  ")
        parts += ("," if start else "", text)
    parts.append("\n  ]\n}\n" if record.rows else "]\n}\n")
    return "".join(parts)


def render(record: ResultRecord, fmt: str) -> str:
    if fmt == "csv":
        return to_csv_text(record)
    if fmt == "json":
        return to_json_text(record)
    raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def write_record(record: ResultRecord, out: str | None, fmt: str) -> None:
    """Write to a file, or stdout when no path is given, in slices of
    ``_WRITE_CHARS`` characters."""
    text = render(record, fmt)
    if out is None:
        import sys

        _write_slices(sys.stdout, text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write_slices(fh, text)


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _WRITE_CHARS):
        stream.write(text[start : start + _WRITE_CHARS])
