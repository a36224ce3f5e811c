"""Result records and their deterministic CSV / JSON serializations.

A record is a flat table plus a flat metadata mapping.  Serialization is
fully determined by the record contents: floats are written with 17
significant digits (which round-trips doubles exactly), metadata keys
are sorted, and nothing time- or host-dependent is ever emitted, so
rerunning an experiment with the same config and seed reproduces the
output byte for byte.

The rows may be any sequence whose slices are lists of tuples, such as
one that builds its rows from arrays on demand.  :func:`render` makes
the text of one chunk of 1024 rows, and :func:`write_record` writes each
chunk as it is made, so no more row objects and text than one chunk's
exist at once.  csv and json are two templates of that chunk loop: a
head, the chunks with a break between two of them, and a tail.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from collections.abc import Sequence
from contextlib import nullcontext
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


def _csv_lines(rows) -> str:
    """The lines ``csv.writer`` writes for ``rows``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_head(record: ResultRecord) -> str:
    meta = "".join(f"# {key}={format_cell(record.meta[key])}\n" for key in sorted(record.meta))
    return meta + _csv_lines([record.columns])


def _csv_rows(rows: list[tuple], width: int) -> str:
    """A chunk of csv rows: the bytes of ``csv.writer`` on cells formatted
    by :func:`format_cell`, from one printf template where the cells allow
    it."""
    text = _printf_rows(rows, width)
    if text is None:
        text = _csv_lines([format_cell(v) for v in row] for row in rows)
    return text


def _json_head(record: ResultRecord) -> str:
    head = json.dumps(
        {"experiment": record.experiment, "meta": record.meta, "columns": record.columns},
        sort_keys=True,
        indent=2,
    )
    return head[:-2] + ',\n  "rows": ['


def _json_rows(rows: list[tuple], width: int) -> str:
    """A chunk of the json text's "rows" array, without its brackets and
    indented one level deeper (a JSON string holds no raw line break).

    Nonempty rows of ``_JSON_CELLS`` cells are dumped by the C encoder
    (``indent`` None) with the indented cell break as its separator, and
    "]" + that break + "[", which only a row break can hold, is replaced.
    """
    chunk = [list(row) for row in rows]
    if all(chunk) and set(map(type, chain.from_iterable(chunk))) <= _JSON_CELLS:
        text = json.dumps(chunk, separators=(_CELL_BREAK, ": "))
        text = text[2:-2].replace("]" + _CELL_BREAK + "[", _ROW_BREAK)
        return "\n    [\n      " + text + "\n    ]"
    return json.dumps(chunk, sort_keys=True, indent=2)[1:-2].replace("\n", "\n  ")


def _json_tail(record: ResultRecord) -> str:
    return "\n  ]\n}\n" if record.rows else "]\n}\n"


#: Per format: the head's text, a chunk's text, the break between two
#: chunks and the tail's text.  The json text is that of
#: ``json.dumps(payload, sort_keys=True, indent=2)`` plus a newline:
#: "rows" sorts last among the payload's keys, so the head is the rest of
#: the payload opening the rows' array.
_FORMATS = {
    "csv": (_csv_head, _csv_rows, "", lambda record: ""),
    "json": (_json_head, _json_rows, ",", _json_tail),
}


def _format(fmt: str):
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}") from None


def render(record: ResultRecord, fmt: str, start: int) -> str:
    """The text of rows ``start .. start + _CHUNK_ROWS - 1``: the head
    comes before it when ``start`` is 0, and the tail after it when it
    holds the last row.  A record with no rows is the one call at 0."""
    head, body, between, tail = _format(fmt)
    rows = record.rows[start : start + _CHUNK_ROWS]
    text = head(record) if start == 0 else between
    if rows:
        text += body(rows, len(record.columns))
    if start + _CHUNK_ROWS >= len(record.rows):
        text += tail(record)
    return text


def write_record(record: ResultRecord, out: str | None, fmt: str) -> None:
    """Write to a file, or stdout when no path is given, each chunk as
    :func:`render` makes it."""
    _format(fmt)  # an unknown format raises before the file is opened
    starts = range(0, max(len(record.rows), 1), _CHUNK_ROWS)
    if out is None:
        stream = nullcontext(sys.stdout)
    else:
        stream = open(out, "w", encoding="utf-8", newline="")
    with stream as fh:
        fh.writelines(render(record, fmt, start) for start in starts)
