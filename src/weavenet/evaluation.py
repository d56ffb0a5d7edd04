"""Detection evaluation: size-stratified 11-point average precision.

Ground-truth boxes are split per class into small/medium/large by the 25th
and 75th area percentiles over the whole test set; each stratum is scored
by ignoring the other strata's boxes, and "overall" ignores nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import BBox, block_rows, check_class_id, check_image_id, check_scored, iou_matrix
from .errors import ValidationError

SIZE_STRATA = ("small", "medium", "large")
ALL_STRATA = SIZE_STRATA + ("overall",)


@dataclass(frozen=True)
class GroundTruth:
    image_id: str
    box: BBox
    class_id: int
    ignored: bool = False

    def __post_init__(self):
        check_image_id(self.image_id)
        check_class_id(self.class_id)
        if not isinstance(self.ignored, bool):
            raise ValidationError(f"ignored must be a boolean, got {self.ignored!r}")
        if self.box.area <= 0.0:
            raise ValidationError(f"ground-truth box must have positive area, got {self.box}")


@dataclass(frozen=True)
class DetectionRecord:
    image_id: str
    box: BBox
    score: float
    class_id: int

    def __post_init__(self):
        check_image_id(self.image_id)
        check_scored(self)


@dataclass(frozen=True)
class EvalReport:
    """Per-class AP by stratum, stratum mAPs, and bookkeeping counts.

    ap[stratum][class_id] is None when that class has no scorable box in
    the stratum; such classes are excluded from the stratum's mAP.
    """

    ap: dict[str, dict[int, float | None]]
    mean_ap: dict[str, float]
    gt_count: int
    det_count: int
    positives: dict[str, dict[int, int]]
    notes: tuple[str, ...] = ()

    def classes(self) -> list[int]:
        return sorted(self.ap["overall"])


def stratify_by_area(gts: list[GroundTruth]) -> list[str]:
    """Label every box small/medium/large by per-class area percentiles.

    Thresholds are ranked values: with N areas sorted ascending, p25 is the
    value at index floor(0.25*N) and p75 at floor(0.75*N). Boxes below p25
    are small, below p75 medium, the rest large; ties collapse upward (all
    equal areas rank large).
    """
    if not gts:
        raise ValidationError("cannot stratify an empty ground-truth list")
    labels = [""] * len(gts)
    by_class: dict[int, list[int]] = {}
    for idx, gt in enumerate(gts):
        by_class.setdefault(gt.class_id, []).append(idx)
    for indices in by_class.values():
        areas = sorted(gts[i].box.area for i in indices)
        n = len(areas)
        p25 = areas[math.floor(0.25 * n)]
        p75 = areas[math.floor(0.75 * n)]
        for i in indices:
            area = gts[i].box.area
            if area < p25:
                labels[i] = "small"
            elif area < p75:
                labels[i] = "medium"
            else:
                labels[i] = "large"
    return labels


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
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    det_groups: dict[tuple[str, int], list[int]] = {}
    for i in order:
        det_groups.setdefault((dets[i].image_id, dets[i].class_id), []).append(i)
    gt_groups: dict[tuple[str, int], list[int]] = {}
    for j, gt in enumerate(gts):
        gt_groups.setdefault((gt.image_id, gt.class_id), []).append(j)
    labels = ["fp"] * len(dets)
    for key, rows in det_groups.items():
        cols = gt_groups.get(key)
        if cols is None:
            continue
        gt_boxes = np.array([gts[j].box.coords() for j in cols])
        ignored = [gts[j].ignored for j in cols]
        consumed = np.zeros(len(cols), dtype=bool)
        step = block_rows(len(cols))
        for r0 in range(0, len(rows), step):
            block = rows[r0 : r0 + step]
            over = iou_matrix(np.array([dets[i].box.coords() for i in block]), gt_boxes)
            over[:, consumed] = -1.0  # below any overlap that can match, which is > 0
            for p, i in enumerate(block):
                j = int(over[p].argmax())  # the first of equal overlaps
                best = over[p, j]
                if best > 0.0 and best >= iou_threshold:
                    if ignored[j]:
                        labels[i] = "ignored"
                    else:
                        labels[i] = "tp"
                        consumed[j] = True
                        over[p + 1 :, j] = -1.0
    return labels


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
    precisions = []
    recalls = []
    tp = 0
    for rank, is_tp in enumerate(tp_sequence, start=1):
        tp += int(is_tp)
        precisions.append(tp / rank)
        recalls.append(tp / num_positive_gts)
    total = 0.0
    for level in range(11):
        r = level / 10
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r and p > best:
                best = p
        total += best
    return total / 11.0


def _class_ap(
    dets: list[DetectionRecord],
    gts: list[GroundTruth],
    iou_threshold: float,
) -> tuple[float | None, int]:
    """AP of one class under one stratum view; None when nothing is scorable."""
    num_positive = sum(1 for g in gts if not g.ignored)
    if num_positive == 0:
        return None, 0
    labels = match_detections(dets, gts, iou_threshold)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    seq = [labels[i] == "tp" for i in order if labels[i] != "ignored"]
    return average_precision_11pt(seq, num_positive), num_positive


def evaluate(
    dets: list[DetectionRecord],
    gts: list[GroundTruth],
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Score detections against ground truth for every stratum and overall."""
    if not gts:
        raise ValidationError("evaluation requires at least one ground-truth box")
    strata_labels = stratify_by_area(gts)
    classes = sorted({g.class_id for g in gts})
    notes = []
    det_classes = sorted({d.class_id for d in dets} - set(classes))
    if det_classes:
        notes.append(f"detections for classes without ground truth skipped: {det_classes}")

    ap: dict[str, dict[int, float | None]] = {}
    positives: dict[str, dict[int, int]] = {}
    mean_ap: dict[str, float] = {}
    for stratum in ALL_STRATA:
        if stratum == "overall":
            view = gts
        else:
            view = [
                replace(g, ignored=g.ignored or label != stratum)
                for g, label in zip(gts, strata_labels)
            ]
        ap[stratum] = {}
        positives[stratum] = {}
        scored = []
        for cls in classes:
            cls_dets = [d for d in dets if d.class_id == cls]
            cls_gts = [g for g in view if g.class_id == cls]
            cls_ap, npos = _class_ap(cls_dets, cls_gts, iou_threshold)
            ap[stratum][cls] = cls_ap
            positives[stratum][cls] = npos
            if cls_ap is not None:
                scored.append(cls_ap)
            elif stratum == "overall":
                notes.append(f"class {cls} has no scorable ground truth overall")
        mean_ap[stratum] = sum(scored) / len(scored) if scored else 0.0

    return EvalReport(
        ap=ap,
        mean_ap=mean_ap,
        gt_count=len(gts),
        det_count=len(dets),
        positives=positives,
        notes=tuple(notes),
    )
