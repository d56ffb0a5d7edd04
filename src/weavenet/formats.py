"""File interchange: JSON Lines for boxes, CSV and aligned text for reports.

Detections carry keys image_id, class_id, score, xmin, ymin, xmax, ymax;
ground truth is identical minus score. All files are UTF-8 with LF line
endings; schema violations are reported with their line number.
"""

from __future__ import annotations

import csv
import json
import math

from .detect import BBox
from .errors import ValidationError
from .evaluation import DetectionRecord, GroundTruth

DETECTION_KEYS = ("image_id", "class_id", "score", "xmin", "ymin", "xmax", "ymax")
GROUND_TRUTH_KEYS = ("image_id", "class_id", "xmin", "ymin", "xmax", "ymax")


def write_detections(path: str, records: list[DetectionRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            obj = {
                "image_id": r.image_id,
                "class_id": r.class_id,
                "score": r.score,
                "xmin": r.box.xmin,
                "ymin": r.box.ymin,
                "xmax": r.box.xmax,
                "ymax": r.box.ymax,
            }
            fh.write(json.dumps(obj) + "\n")


def write_ground_truth(path: str, records: list[GroundTruth]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in records:
            obj = {
                "image_id": r.image_id,
                "class_id": r.class_id,
                "xmin": r.box.xmin,
                "ymin": r.box.ymin,
                "xmax": r.box.xmax,
                "ymax": r.box.ymax,
            }
            fh.write(json.dumps(obj) + "\n")


def _parse_line(path: str, lineno: int, line: str, keys: tuple[str, ...]) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}:{lineno}: invalid JSON: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}:{lineno}: expected a JSON object")
    missing = [k for k in keys if k not in obj]
    extra = sorted(set(obj) - set(keys))
    if missing:
        raise ValidationError(f"{path}:{lineno}: missing keys: {', '.join(missing)}")
    if extra:
        raise ValidationError(f"{path}:{lineno}: unexpected keys: {', '.join(extra)}")
    return obj


def _parse_box(path: str, lineno: int, obj: dict) -> BBox:
    coords = []
    for key in ("xmin", "ymin", "xmax", "ymax"):
        v = obj[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValidationError(f"{path}:{lineno}: {key} must be a finite number, got {v!r}")
        coords.append(float(v))
    try:
        return BBox(*coords)
    except ValidationError as err:
        raise ValidationError(f"{path}:{lineno}: {err}") from err


def _parse_class_id(path: str, lineno: int, obj: dict) -> int:
    v = obj["class_id"]
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValidationError(f"{path}:{lineno}: class_id must be a non-negative integer, got {v!r}")
    return v


def _parse_image_id(path: str, lineno: int, obj: dict) -> str:
    v = obj["image_id"]
    if not isinstance(v, str) or not v:
        raise ValidationError(f"{path}:{lineno}: image_id must be a non-empty string, got {v!r}")
    return v


def _lines(path: str):
    """(line number, line) for every non-blank line of a UTF-8 text file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as err:
            raise ValidationError(f"{path}: not valid UTF-8: {err.reason}") from err


def read_detections(path: str) -> list[DetectionRecord]:
    records = []
    for lineno, line in _lines(path):
        obj = _parse_line(path, lineno, line, DETECTION_KEYS)
        score = obj["score"]
        if not isinstance(score, (int, float)) or isinstance(score, bool) or not math.isfinite(score):
            raise ValidationError(f"{path}:{lineno}: score must be a finite number, got {score!r}")
        records.append(
            DetectionRecord(
                image_id=_parse_image_id(path, lineno, obj),
                box=_parse_box(path, lineno, obj),
                score=float(score),
                class_id=_parse_class_id(path, lineno, obj),
            )
        )
    return records


def read_ground_truth(path: str) -> list[GroundTruth]:
    records = []
    for lineno, line in _lines(path):
        obj = _parse_line(path, lineno, line, GROUND_TRUTH_KEYS)
        try:
            records.append(
                GroundTruth(
                    image_id=_parse_image_id(path, lineno, obj),
                    box=_parse_box(path, lineno, obj),
                    class_id=_parse_class_id(path, lineno, obj),
                )
            )
        except ValidationError as err:
            msg = str(err)
            if not msg.startswith(path):
                msg = f"{path}:{lineno}: {msg}"
            raise ValidationError(msg) from err
    return records


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
