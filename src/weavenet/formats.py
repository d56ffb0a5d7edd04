"""File interchange: JSON Lines for boxes, CSV and aligned text for reports.

Detections carry keys image_id, class_id, score, xmin, ymin, xmax, ymax;
ground truth is identical minus score, plus an optional boolean ignored.
All files are UTF-8 with LF line endings. Each JSONL file is read, decoded
and parsed once, which checks JSON syntax and key sets; the record types
check the values. Of all violations the first in file order is reported,
with its line number.

The table readers return a file as columns (evaluation.BoxTable) when its
values already have the stored types (str, int, float, bool) and pass the
record checks, screened column by column; otherwise they build the records
from the same parse and convert them, so every error is the record reader's.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from contextlib import contextmanager
from itertools import filterfalse
from operator import itemgetter

import numpy as np

from .detect import BOX_KEYS, BBox
from .errors import ValidationError
from .evaluation import (
    BoxTable,
    DetectionRecord,
    GroundTruth,
    detection_table,
    ground_truth_table,
)

DETECTION_KEYS = ("image_id", "class_id", "score") + BOX_KEYS
GROUND_TRUTH_KEYS = ("image_id", "class_id") + BOX_KEYS


# json.dumps of a record's fields as a dict in key order; %r is float.__repr__
_DETECTION_LINE = '{"image_id": %s, "class_id": %d, "score": %r, "xmin": %r, "ymin": %r, "xmax": %r, "ymax": %r}\n'
_GROUND_TRUTH_LINE = '{"image_id": %s, "class_id": %d, "xmin": %r, "ymin": %r, "xmax": %r, "ymax": %r%s}\n'
_IGNORED = ("", ', "ignored": true')  # written only when set, so other files keep their bytes


@contextmanager
def _rewrite(path: str, newline: str):
    """open(path, "w") without O_TRUNC, which can wait on ext4's writeback of the
    last output; a regular file is cut after the bytes written, as O_TRUNC would."""
    with open(path, "w", encoding="utf-8", newline=newline,
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:  # 0o666 as open() creates
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not a pipe or device
                fh.truncate()


def write_detections(path: str, records: list[DetectionRecord]) -> None:
    with _rewrite(path, "\n") as fh:
        fh.writelines(_DETECTION_LINE % (json.dumps(r.image_id), r.class_id, r.score, *r.box.coords()) for r in records)


def write_ground_truth(path: str, records: list[GroundTruth]) -> None:
    with _rewrite(path, "\n") as fh:
        fh.writelines(_GROUND_TRUTH_LINE % (json.dumps(r.image_id), r.class_id, *r.box.coords(), _IGNORED[r.ignored])
                      for r in records)


def _parse(path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> tuple[list, list[tuple], str | None]:
    """The one read and parse of a JSONL file. Returns its lines as read
    (universal newlines; each keeps its "\\n", which json.loads sees), the
    values of each non-blank line in the order of keys, then optional (an
    absent one reads False), and the fault of the first line that is not one
    JSON object with the right keys, or None; the rows stop before that line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:
        raise ValidationError(f"{path}: not valid UTF-8: {err.reason}") from err
    scan = json.JSONDecoder().scan_once  # the C scanner under json.loads, without its Python wrappers
    values, key_sets, rows = itemgetter(*keys), (set(keys), {*keys, *optional}), []
    for line in filterfalse(str.isspace, lines):  # the lines str.strip empties, without a copy of each
        try:
            obj, end = scan(line, 0)
            if line[end:].strip(" \t\n\r"):  # after the value json.loads allows JSON whitespace only
                raise ValueError
        except (StopIteration, ValueError, RecursionError):  # json.loads takes the line, or says why not
            try:
                obj = json.loads(line)
            # JSONDecodeError, an integer literal too long to convert, or nesting too deep
            except (ValueError, RecursionError) as err:
                return lines, rows, f"invalid JSON: {getattr(err, 'msg', err)}"
        if type(obj) is not dict:
            return lines, rows, "expected a JSON object"
        if obj.keys() not in key_sets:
            missing = ", ".join(k for k in keys if k not in obj)
            extra = ", ".join(sorted(obj.keys() - key_sets[1]))
            return lines, rows, f"missing keys: {missing}" if missing else f"unexpected keys: {extra}"
        rows.append(values(obj) + tuple(obj.get(k, False) for k in optional) if optional else values(obj))
    return lines, rows, None


def _records(path: str, record_type, names: tuple[str, ...], lines: list, rows: list[tuple], fault: str | None) -> list:
    """One record per row of _parse (names are the rows' fields); the record
    types check the values. Raises the file's first fault, a value fault of
    a row or else the parse fault, with its line number."""
    records = []
    try:
        for row in rows:
            fields = dict(zip(names, row))
            box = BBox(*(fields.pop(k) for k in BOX_KEYS))
            records.append(record_type(box=box, **fields))
        if fault is not None:
            raise ValidationError(fault)
    except ValidationError as err:  # the line of row len(records)
        lineno = [n for n, line in enumerate(lines, start=1) if not line.isspace()][len(records)]
        raise ValidationError(f"{path}:{lineno}: {err}") from err
    return records


def read_detections(path: str) -> list[DetectionRecord]:
    return _records(path, DetectionRecord, DETECTION_KEYS, *_parse(path, DETECTION_KEYS))


def read_ground_truth(path: str) -> list[GroundTruth]:
    names = GROUND_TRUTH_KEYS + ("ignored",)
    return _records(path, GroundTruth, names, *_parse(path, GROUND_TRUTH_KEYS, ("ignored",)))


def _only(values: tuple, kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def _columns(rows: list[tuple], names: tuple[str, ...]) -> BoxTable | None:
    """The table of a file's rows when every value already has the type its
    record field stores and passes the record checks; None otherwise.

    names are the rows' field names: DETECTION_KEYS, or GROUND_TRUTH_KEYS
    and "ignored".
    """
    column = dict(zip(names, zip(*rows))) if rows else dict.fromkeys(names, ())
    image_id, class_id = column["image_id"], column["class_id"]
    coords = [column[k] for k in BOX_KEYS]
    if not (
        _only(image_id, str) and all(image_id)
        and _only(class_id, int) and min(class_id, default=0) >= 0
        and all(_only(c, float) for c in coords)
    ):
        return None
    coords = np.array(coords, dtype=np.float64)
    xmin, ymin, xmax, ymax = coords
    with np.errstate(over="ignore", invalid="ignore"):
        width, height = xmax - xmin, ymax - ymin  # as BBox checks them
        area = width * height
        finite = np.isfinite([*coords, width, height, 2.0 * area]).all()
        if not (finite and (xmin <= xmax).all() and (ymin <= ymax).all()):
            return None
    boxes = coords.T.copy()
    if "score" in column:
        if not _only(column["score"], float):
            return None
        score = np.array(column["score"], dtype=np.float64)
        if not np.isfinite(score).all():
            return None
        return BoxTable(list(image_id), list(class_id), boxes, score=score)
    if not _only(column["ignored"], bool) or not (area > 0.0).all():
        return None
    return BoxTable(list(image_id), list(class_id), boxes, ignored=np.array(column["ignored"], dtype=bool))


def _table(path: str, keys: tuple[str, ...], optional: tuple[str, ...], record_type, convert) -> BoxTable:
    """The screened columns of a file, or convert(its records) when the
    screen fails, from the file's one parse."""
    lines, rows, fault = _parse(path, keys, optional)
    table = None if fault else _columns(rows, keys + optional)
    return convert(_records(path, record_type, keys + optional, lines, rows, fault)) if table is None else table


def read_detection_table(path: str) -> BoxTable:
    """read_detections as a table, with the same errors."""
    return _table(path, DETECTION_KEYS, (), DetectionRecord, detection_table)


def read_ground_truth_table(path: str) -> BoxTable:
    """read_ground_truth as a table, with the same errors."""
    return _table(path, GROUND_TRUTH_KEYS, ("ignored",), GroundTruth, ground_truth_table)


def write_csv(path: str, header: tuple[str, ...] | list[str], rows: list[list[str]]) -> None:
    with _rewrite(path, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Aligned text table: first column left-aligned, the rest right-aligned."""
    table = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        cells = [
            row[0].ljust(widths[0]),
            *(cell.rjust(w) for cell, w in zip(row[1:], widths[1:])),
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
