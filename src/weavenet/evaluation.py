"""Detection evaluation: size-stratified 11-point average precision.

Ground-truth boxes are split per class into small/medium/large by the 25th
and 75th area percentiles over the whole test set; each stratum is scored
by ignoring the other strata's boxes, and "overall" ignores nothing.

`evaluate` works on columns (BoxTable): every (image, class) group gets one
overlap matrix per block of detections, and the greedy matching of all four
strata runs over it in one pass, each stratum with its own consumed boxes.
`stratify_by_area`, `match_detections` and `average_precision_11pt` are the
same code for lists of records.
"""

from __future__ import annotations

import math

import numpy as np

from .detect import BBox, block_rows, check_class_id, check_image_id, checked_score, iou_matrix
from .errors import Record, ValidationError, shown

SIZE_STRATA = ("small", "medium", "large")
ALL_STRATA = SIZE_STRATA + ("overall",)

# matching labels, as stored in the label rows and as match_detections names them
FP, TP, IGNORED = 0, 1, 2
LABEL_NAMES = ("fp", "tp", "ignored")
RECALL_LEVELS = np.array([level / 10 for level in range(11)])


class GroundTruth(Record):
    __slots__ = ("image_id", "box", "class_id", "ignored")

    def __init__(self, image_id: str, box: BBox, class_id: int, ignored: bool = False):
        check_image_id(image_id)
        check_class_id(class_id)
        if not isinstance(ignored, bool):
            raise ValidationError(f"ignored must be a boolean, got {shown(ignored)}")
        if box.area <= 0.0:
            raise ValidationError(f"ground-truth box must have positive area, got {box}")
        object.__setattr__(self, "image_id", image_id)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "class_id", class_id)
        object.__setattr__(self, "ignored", ignored)


class DetectionRecord(Record):
    __slots__ = ("image_id", "box", "score", "class_id")

    def __init__(self, image_id: str, box: BBox, score: float, class_id: int):
        check_image_id(image_id)
        object.__setattr__(self, "image_id", image_id)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "score", checked_score(score, class_id))
        object.__setattr__(self, "class_id", class_id)


class BoxTable(Record):
    """Detections or ground truth as columns; row i is record i.

    image_id and class_id are lists of str and int, so class ids keep any
    size; boxes is an (N, 4) float64 array of (xmin, ymin, xmax, ymax) rows.
    Detections carry a float64 score column, ground truth a bool ignored
    column. The readers in `formats` and the conversions below build tables
    only from values that the record types accept.
    """

    __slots__ = ("image_id", "class_id", "boxes", "score", "ignored")

    def __init__(
        self,
        image_id: list[str],
        class_id: list[int],
        boxes: np.ndarray,
        score: np.ndarray | None = None,
        ignored: np.ndarray | None = None,
    ):
        object.__setattr__(self, "image_id", image_id)
        object.__setattr__(self, "class_id", class_id)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "ignored", ignored)

    def __len__(self) -> int:
        return len(self.image_id)


def _table(records: list, **column) -> BoxTable:
    boxes = np.array([r.box.coords() for r in records], dtype=np.float64).reshape(-1, 4)
    return BoxTable([r.image_id for r in records], [r.class_id for r in records], boxes, **column)


def detection_table(records: list[DetectionRecord]) -> BoxTable:
    return _table(records, score=np.array([r.score for r in records], dtype=np.float64))


def ground_truth_table(records: list[GroundTruth]) -> BoxTable:
    return _table(records, ignored=np.array([r.ignored for r in records], dtype=bool))


class EvalReport(Record):
    """Per-class AP by stratum, stratum mAPs, and bookkeeping counts.

    ap[stratum][class_id] is None when that class has no scorable box in
    the stratum; such classes are excluded from the stratum's mAP.
    """

    __slots__ = ("ap", "mean_ap", "gt_count", "det_count", "positives", "notes")

    def __init__(
        self,
        ap: dict[str, dict[int, float | None]],
        mean_ap: dict[str, float],
        gt_count: int,
        det_count: int,
        positives: dict[str, dict[int, int]],
        notes: tuple[str, ...] = (),
    ):
        object.__setattr__(self, "ap", ap)
        object.__setattr__(self, "mean_ap", mean_ap)
        object.__setattr__(self, "gt_count", gt_count)
        object.__setattr__(self, "det_count", det_count)
        object.__setattr__(self, "positives", positives)
        object.__setattr__(self, "notes", notes)

    def classes(self) -> list[int]:
        return sorted(self.ap["overall"])


def _group(keys: list, rows) -> dict[object, list[int]]:
    """The rows by keys[row], each group in the order the rows come."""
    groups: dict[object, list[int]] = {}
    for i in rows:
        groups.setdefault(keys[i], []).append(i)
    return groups


def _strata(gts: BoxTable, by_class: dict[int, list[int]]) -> np.ndarray:
    """Stratum index of every box (0 small, 1 medium, 2 large), as stratify_by_area."""
    boxes = gts.boxes
    area = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])  # as BBox.area
    strata = np.empty(len(gts), dtype=np.int8)
    for rows in by_class.values():
        areas = area[rows]
        ranked = np.sort(areas)
        n = len(ranked)
        p25, p75 = ranked[math.floor(0.25 * n)], ranked[math.floor(0.75 * n)]
        strata[rows] = (areas >= p25).astype(np.int8) + (areas >= p75)
    return strata


def _score_order(dets: BoxTable) -> list[int]:
    """Detection rows by descending score, ties by row."""
    return np.argsort(-dets.score, kind="stable").tolist()


def _match(
    dets: BoxTable, order: list[int], gts: BoxTable, positive: np.ndarray, iou_threshold: float
) -> list[list[int]]:
    """Greedy matching labels (FP, TP or IGNORED) of every detection, one row per stratum.

    positive[s, j] says ground-truth box j is a positive of stratum s; the
    stratum ignores every other box. Detections are visited in `order`. In
    each stratum a detection takes the box of highest overlap among those
    the stratum has not consumed, the first such box on ties, when that
    overlap is positive and at or above the threshold: a positive box
    scores a TP and is consumed, an ignored one absorbs the detection
    without being consumed, and no match is an FP. Each (image, class) group
    reads its overlaps from iou_matrix one block of detections at a time,
    and every stratum scans the same block.
    """
    labels = [[FP] * len(dets) for _ in positive]
    gt_groups = _group(list(zip(gts.image_id, gts.class_id)), range(len(gts)))
    det_groups = _group(list(zip(dets.image_id, dets.class_id)), order)
    for key, rows in det_groups.items():
        cols = gt_groups.get(key)
        if cols is None:
            continue
        boxes = gts.boxes[cols]
        strata = list(zip(labels, positive[:, cols].tolist(), [[False] * len(cols) for _ in positive]))
        step = block_rows(len(cols))
        for r0 in range(0, len(rows), step):
            block = rows[r0 : r0 + step]
            over = iou_matrix(dets.boxes[block], boxes)
            usable = (over > 0.0) & (over >= iou_threshold)
            # the usable boxes row by row, each row's by descending overlap and
            # the first of equal overlaps first: two stable sorts of nonzero's order
            row, col = np.nonzero(usable)
            by_overlap = np.argsort(-over[row, col], kind="stable")
            ranked = col[by_overlap[np.argsort(row[by_overlap], kind="stable")]].tolist()
            end = 0
            for i, count in zip(block, usable.sum(axis=1).tolist()):
                if not count:  # no usable overlap: an FP in every stratum
                    continue
                candidates = ranked[end : end + count]
                end += count
                for stratum_labels, is_positive, consumed in strata:
                    for j in candidates:
                        if not consumed[j]:
                            if is_positive[j]:
                                stratum_labels[i] = TP
                                consumed[j] = True
                            else:
                                stratum_labels[i] = IGNORED
                            break
    return labels


def _average_precision(tp: np.ndarray, num_positive: int) -> float:
    """11-point AP of a score-ordered bool TP/FP array, num_positive > 0.

    Precision and recall come from cumulative TP counts; recall never falls,
    so the precisions at or beyond a recall level are a suffix, and the
    level takes that suffix's maximum (0 when it is empty). The 11 levels
    are summed in order, as the scalar definition does.
    """
    hits = np.cumsum(tp)
    precision = hits / np.arange(1, len(tp) + 1)
    recall = hits / num_positive
    suffix_best = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    total = 0.0
    for best in suffix_best[np.searchsorted(recall, RECALL_LEVELS)].tolist():
        total += best
    return total / 11.0


def stratify_by_area(gts: list[GroundTruth]) -> list[str]:
    """Label every box small/medium/large by per-class area percentiles.

    Thresholds are ranked values: with N areas sorted ascending, p25 is the
    value at index floor(0.25*N) and p75 at floor(0.75*N). Boxes below p25
    are small, below p75 medium, the rest large; ties collapse upward (all
    equal areas rank large).
    """
    if not gts:
        raise ValidationError("cannot stratify an empty ground-truth list")
    table = ground_truth_table(gts)
    strata = _strata(table, _group(table.class_id, range(len(table))))
    return [SIZE_STRATA[s] for s in strata.tolist()]


def match_detections(
    dets: list[DetectionRecord], gts: list[GroundTruth], iou_threshold: float = 0.5
) -> list[str]:
    """Greedy matching labels ("tp" | "fp" | "ignored") aligned with dets.

    Detections are visited by descending score (ties by input order). Each
    one takes the unconsumed same-class, same-image ground-truth box of
    highest overlap, the first such box on ties, when that overlap is
    positive and at or above the threshold: a fresh box scores a TP and is
    consumed, an ignored box absorbs the detection without being consumed,
    and no match is an FP. Each (image, class) group reads its overlaps
    from iou_matrix, one block of detections at a time.
    """
    det_table, gt_table = detection_table(dets), ground_truth_table(gts)
    (labels,) = _match(
        det_table, _score_order(det_table), gt_table, ~gt_table.ignored[None, :], iou_threshold
    )
    return [LABEL_NAMES[label] for label in labels]


def average_precision_11pt(tp_sequence: list[bool], num_positive_gts: int) -> float:
    """11-point interpolated AP over a score-ordered TP/FP sequence.

    AP = mean over recall levels {0, 0.1, ..., 1.0} of the highest
    precision achieved at or beyond each level; 0 when there is nothing to
    recall.
    """
    if num_positive_gts < 0:
        raise ValidationError(f"positive count must be non-negative, got {num_positive_gts}")
    if num_positive_gts == 0:
        return 0.0
    return _average_precision(np.fromiter(tp_sequence, dtype=bool), num_positive_gts)


def evaluate(
    dets: list[DetectionRecord] | BoxTable,
    gts: list[GroundTruth] | BoxTable,
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Score detections against ground truth for every stratum and overall.

    dets and gts are lists of records or tables; one matching pass labels
    the detections in all four strata.
    """
    if not isinstance(dets, BoxTable):
        dets = detection_table(dets)
    if not isinstance(gts, BoxTable):
        gts = ground_truth_table(gts)
    if not len(gts):
        raise ValidationError("evaluation requires at least one ground-truth box")
    gt_classes = _group(gts.class_id, range(len(gts)))
    classes = sorted(gt_classes)
    strata = _strata(gts, gt_classes)
    scorable = ~gts.ignored
    positive = np.stack([scorable & (strata == s) for s in range(len(SIZE_STRATA))] + [scorable])
    order = _score_order(dets)
    labels = np.array(_match(dets, order, gts, positive, iou_threshold), dtype=np.int8)
    det_classes = _group(dets.class_id, order)
    notes = []
    stray = sorted(det_classes.keys() - gt_classes.keys())
    if stray:
        notes.append(f"detections for classes without ground truth skipped: {stray}")

    ap: dict[str, dict[int, float | None]] = {}
    positives: dict[str, dict[int, int]] = {}
    mean_ap: dict[str, float] = {}
    for s, stratum in enumerate(ALL_STRATA):
        ap[stratum] = {}
        positives[stratum] = {}
        scored = []
        for cls in classes:
            num_positive = int(positive[s, gt_classes[cls]].sum())
            cls_ap = None
            if num_positive:
                ranked = labels[s, np.array(det_classes.get(cls, []), dtype=np.intp)]
                cls_ap = _average_precision(ranked[ranked != IGNORED] == TP, num_positive)
                scored.append(cls_ap)
            elif stratum == "overall":
                notes.append(f"class {cls} has no scorable ground truth overall")
            ap[stratum][cls] = cls_ap
            positives[stratum][cls] = num_positive
        mean_ap[stratum] = sum(scored) / len(scored) if scored else 0.0

    return EvalReport(
        ap=ap,
        mean_ap=mean_ap,
        gt_count=len(gts),
        det_count=len(dets),
        positives=positives,
        notes=tuple(notes),
    )
