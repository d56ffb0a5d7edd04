"""File interchange: JSON Lines for boxes, CSV and aligned text for reports.

Detections carry keys image_id, class_id, score, xmin, ymin, xmax, ymax;
ground truth is identical minus score, plus an optional boolean ignored.
All files are UTF-8 with LF line endings. The reader checks JSON syntax and
key sets; the record types check the values. Either kind of violation is
reported with its line number.
"""

from __future__ import annotations

import csv
import json

from .detect import BOX_KEYS, BBox
from .errors import ValidationError
from .evaluation import DetectionRecord, GroundTruth

DETECTION_KEYS = ("image_id", "class_id", "score") + BOX_KEYS
GROUND_TRUTH_KEYS = ("image_id", "class_id") + BOX_KEYS


def _write(path: str, records: list, keys: tuple[str, ...]) -> None:
    """One JSON object per record with the given keys, then `ignored` only
    when it is set, so files without ignored boxes keep the same bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            obj = {key: getattr(r.box if key in BOX_KEYS else r, key) for key in keys}
            if getattr(r, "ignored", False):
                obj["ignored"] = True
            fh.write(json.dumps(obj) + "\n")


def write_detections(path: str, records: list[DetectionRecord]) -> None:
    _write(path, records, DETECTION_KEYS)


def write_ground_truth(path: str, records: list[GroundTruth]) -> None:
    _write(path, records, GROUND_TRUTH_KEYS)


def _lines(path: str):
    """(line number, line) for every non-blank line of a UTF-8 text file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path}: not valid UTF-8: {err.reason}") from err


def _record(line: str, record_type, keys: tuple[str, ...], optional: tuple[str, ...]):
    """The record of one line; the record types check the field values."""
    try:
        obj = json.loads(line)
    # JSONDecodeError, an integer literal too long to convert, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"invalid JSON: {getattr(err, 'msg', err)}") from err
    if not isinstance(obj, dict):
        raise ValidationError("expected a JSON object")
    missing = [k for k in keys if k not in obj]
    extra = sorted(set(obj) - set(keys) - set(optional))
    if missing:
        raise ValidationError(f"missing keys: {', '.join(missing)}")
    if extra:
        raise ValidationError(f"unexpected keys: {', '.join(extra)}")
    box = BBox(*(obj.pop(k) for k in BOX_KEYS))
    return record_type(box=box, **obj)


def _read(path: str, record_type, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> list:
    records = []
    for lineno, line in _lines(path):
        try:
            records.append(_record(line, record_type, keys, optional))
        except ValidationError as err:
            raise ValidationError(f"{path}:{lineno}: {err}") from err
    return records


def read_detections(path: str) -> list[DetectionRecord]:
    return _read(path, DetectionRecord, DETECTION_KEYS)


def read_ground_truth(path: str) -> list[GroundTruth]:
    return _read(path, GroundTruth, GROUND_TRUTH_KEYS, ("ignored",))


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
