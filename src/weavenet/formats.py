"""File interchange: JSON Lines for boxes, CSV and aligned text for reports.

Detections carry keys image_id, class_id, score, xmin, ymin, xmax, ymax;
ground truth is identical minus score, plus an optional boolean ignored.
All files are UTF-8 with LF line endings. The reader checks JSON syntax and
key sets; the record types check the values. Either kind of violation is
reported with its line number.

The table readers return a file as columns (evaluation.BoxTable). A file
whose lines all parse and whose values already have the stored types (str,
int, float, bool) and pass the record checks is checked column by column;
any other file goes through the record reader and is converted, so every
error keeps the record reader's line and message.
"""

from __future__ import annotations

import csv
import json
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


def write_detections(path: str, records: list[DetectionRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_DETECTION_LINE % (json.dumps(r.image_id), r.class_id, r.score, *r.box.coords()) for r in records)


def write_ground_truth(path: str, records: list[GroundTruth]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_GROUND_TRUTH_LINE % (json.dumps(r.image_id), r.class_id, *r.box.coords(), _IGNORED[r.ignored])
                      for r in records)


def _lines(path: str):
    """(line number, line) for every non-blank line of a UTF-8 text file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path}: not valid UTF-8: {err.reason}") from err


def _fields(line: str, keys: tuple[str, ...], optional: tuple[str, ...]) -> dict:
    """The JSON object of one line, holding every key and no unknown one."""
    try:
        obj = json.loads(line)
    # JSONDecodeError, an integer literal too long to convert, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"invalid JSON: {getattr(err, 'msg', err)}") from err
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValidationError(f"missing keys: {', '.join(missing)}")
    extra = sorted(obj.keys() - {*keys, *optional})
    if extra:
        raise ValidationError(f"unexpected keys: {', '.join(extra)}")
    return obj


def _read(path: str, record_type, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> list:
    """One record per line; the record types check the field values."""
    records = []
    for lineno, line in _lines(path):
        try:
            obj = _fields(line, keys, optional)
            box = BBox(*(obj.pop(k) for k in BOX_KEYS))
            records.append(record_type(box=box, **obj))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from err
    return records


def read_detections(path: str) -> list[DetectionRecord]:
    return _read(path, DetectionRecord, DETECTION_KEYS)


def read_ground_truth(path: str) -> list[GroundTruth]:
    return _read(path, GroundTruth, GROUND_TRUTH_KEYS, ("ignored",))


def _only(values: tuple, kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def _rows(path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> list[tuple] | None:
    """Each line's values in the order of keys, then optional (an absent one
    reads False); None unless every line (split as _lines splits) is one JSON
    object with the right keys from its first character: the record reader
    then reports the file's first fault."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        return None
    scan = json.JSONDecoder().scan_once  # the C scanner under json.loads, without its Python wrappers
    values, key_sets, rows = itemgetter(*keys), (set(keys), {*keys, *optional}), []
    for line in filter(str.strip, lines):
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):  # no value at 0, or as in _fields
            return None
        # after the value json.loads allows JSON whitespace only
        if type(obj) is not dict or line[end:].strip(" \t\n\r") or obj.keys() not in key_sets:
            return None
        rows.append(values(obj) + tuple(obj.get(k, False) for k in optional) if optional else values(obj))
    return rows


def _columns(rows: list[tuple] | None, names: tuple[str, ...]) -> BoxTable | None:
    """The table of a file's rows when every value already has the type its
    record field stores and passes the record checks; None otherwise.

    names are the rows' field names: DETECTION_KEYS, or GROUND_TRUTH_KEYS
    and "ignored".
    """
    if rows is None:
        return None
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


def read_detection_table(path: str) -> BoxTable:
    """read_detections as a table, with the same errors."""
    table = _columns(_rows(path, DETECTION_KEYS), DETECTION_KEYS)
    return detection_table(read_detections(path)) if table is None else table


def read_ground_truth_table(path: str) -> BoxTable:
    """read_ground_truth as a table, with the same errors."""
    keys, optional = GROUND_TRUTH_KEYS, ("ignored",)
    table = _columns(_rows(path, keys, optional), keys + optional)
    return ground_truth_table(read_ground_truth(path)) if table is None else table


def write_csv(path: str, header: tuple[str, ...] | list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
