"""Single-shot detection heads and box post-processing.

Covers anchor generation over the feature pyramid, the per-scale 3x3
prediction convolutions, center-size box decoding, greedy NMS, and the
score-weighted box refinement step applied after suppression.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Record, ValidationError, finite_float, shown
from .tensor_core import ConvKernel, Tensor, conv3x3

DEFAULT_SCALE_FRACTIONS = (0.1, 0.2, 0.375, 0.55, 0.725, 0.9)
BOX_VARIANCES = (0.1, 0.1, 0.2, 0.2)
ANCHOR_MODES = ("A", "B")
BOX_KEYS = ("xmin", "ymin", "xmax", "ymax")

# three ratios on the outermost scales, five on the middle ones
_MODE_A_SHORT = (1.0, 2.0, 0.5)
_MODE_A_LONG = (1.0, 2.0, 0.5, 3.0, 1.0 / 3.0)
_MODE_B_RATIOS = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)


def check_image_id(value) -> None:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"image_id must be a non-empty string, got {shown(value)}")


def check_class_id(value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValidationError(f"class_id must be a non-negative integer, got {shown(value)}")


def checked_score(score, class_id) -> float:
    """The checks Detection and DetectionRecord share: class_id is an int >= 0,
    not a bool, and score a finite real number, returned as a float."""
    check_class_id(class_id)
    if type(score) is not float or not math.isfinite(score):
        return finite_float("score", score)
    return score


class BBox(Record):
    """Axis-aligned box in input-image coordinates.

    Coordinates must be finite real numbers and are stored as floats.
    Width, height and twice the area must be finite: IoU adds two areas, so
    a larger box would give an infinite union and an IoU of 0 (or NaN) with
    an identical box.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(self, xmin: float, ymin: float, xmax: float, ymax: float):
        coords = xmin, ymin, xmax, ymax
        if not all(type(c) is float and math.isfinite(c) for c in coords):
            coords = xmin, ymin, xmax, ymax = tuple(map(finite_float, BOX_KEYS, coords))
        if xmin > xmax or ymin > ymax:
            raise ValidationError(f"box corners out of order: {coords}")
        width, height = xmax - xmin, ymax - ymin  # as the width and height properties
        if not (math.isfinite(width) and math.isfinite(height) and math.isfinite(2.0 * (width * height))):
            raise ValidationError(f"box too large: its width, height or twice its area overflows, got {coords}")
        object.__setattr__(self, "xmin", xmin)
        object.__setattr__(self, "ymin", ymin)
        object.__setattr__(self, "xmax", xmax)
        object.__setattr__(self, "ymax", ymax)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0

    def coords(self) -> tuple[float, float, float, float]:
        return self.xmin, self.ymin, self.xmax, self.ymax


class Detection(Record):
    __slots__ = ("box", "score", "class_id")

    def __init__(self, box: BBox, score: float, class_id: int):
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "score", checked_score(score, class_id))
        object.__setattr__(self, "class_id", class_id)


def anchor_ratios(mode: str, num_scales: int = len(DEFAULT_SCALE_FRACTIONS)) -> tuple[tuple[float, ...], ...]:
    """Each scale's aspect ratios under anchor_mode; a cell holds len(ratios) + 1 anchors.

    Mode A uses three aspect ratios on the outer scales and five on the
    middle ones; mode B uses the same five ratios at every scale. Both add
    one extra square anchor at the geometric mean of adjacent scale
    fractions (the last scale pairs with 1.0).
    """
    if num_scales > len(DEFAULT_SCALE_FRACTIONS):
        raise ValidationError(f"no default scale fractions for {num_scales} scales")
    if mode == "A":
        return tuple(_MODE_A_LONG if 0 < i < num_scales - 2 else _MODE_A_SHORT for i in range(num_scales))
    if mode == "B":
        return (_MODE_B_RATIOS,) * num_scales
    raise ValidationError(f"anchor_mode must be one of {ANCHOR_MODES}, got {shown(mode)}")


def anchor_array(mode: str, pyramid_sizes: tuple[int, ...], input_size: int) -> np.ndarray:
    """All anchors as an (N, 4) array of (xmin, ymin, xmax, ymax) rows.

    Rows are ordered scale-major, then row-major over cells, then ratio.
    Each cell's anchors are the scale's anchor_ratios in order followed by
    the extra geometric-mean square box; anchors are centered at cell
    centers and are not clipped.
    """
    ratios = anchor_ratios(mode, len(pyramid_sizes))
    blocks = [np.empty((0, 4))]
    fractions = DEFAULT_SCALE_FRACTIONS[: len(pyramid_sizes)]
    for scale, fm in enumerate(pyramid_sizes):
        s = fractions[scale]
        s_next = fractions[scale + 1] if scale + 1 < len(fractions) else 1.0
        side = math.sqrt(s * s_next) * input_size
        shapes = [
            (s * input_size * math.sqrt(r), s * input_size / math.sqrt(r))
            for r in ratios[scale]
        ] + [(side, side)]
        half_w, half_h = np.array(shapes).T / 2
        centers = (np.arange(fm) + 0.5) / fm * input_size
        cy, cx = centers[:, None, None], centers[None, :, None]
        corners = np.broadcast_arrays(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
        blocks.append(np.stack(corners, axis=-1).reshape(-1, 4))
    return np.concatenate(blocks)


def generate_anchors(mode: str, pyramid_sizes: tuple[int, ...], input_size: int) -> list[BBox]:
    """anchor_array as one BBox per anchor, in the same order."""
    return [BBox(*row) for row in anchor_array(mode, pyramid_sizes, input_size).tolist()]


def init_head_params(
    state_channels: list[int],
    anchors_per_cell: list[int],
    num_classes: int,
    seed: int,
) -> list[ConvKernel]:
    """Seeded per-scale prediction kernels: location rows, then confidence rows.

    Same uniform fan-in rule as the fusion blocks; drawn scales ascending,
    and per scale location weights and bias before confidence weights and
    bias.
    """
    if len(state_channels) != len(anchors_per_cell):
        raise ValidationError("state_channels and anchors_per_cell lengths differ")
    if num_classes < 1:
        raise ValidationError(f"num_classes must be positive, got {num_classes}")
    rng = np.random.default_rng([seed, 2])
    kernels = []
    for cin, a in zip(state_channels, anchors_per_cell):
        s = 1.0 / np.sqrt(cin * 9)
        weights, bias = [], []
        for out in (4 * a, (num_classes + 1) * a):
            weights.append(rng.uniform(-s, s, size=(out, cin, 3, 3)))
            bias.append(rng.uniform(-s, s, size=out))
        kernels.append(ConvKernel(np.concatenate(weights), np.concatenate(bias)))
    return kernels


def head_forward(
    state: Tensor,
    kernel: ConvKernel,
    anchors_per_cell: int,
    num_classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Predict per-anchor offsets and class scores for one scale.

    kernel holds the 4*A location rows, then the (C+1)*A confidence rows.
    Returns (offsets of shape (H*W*A, 4), scores of shape (H*W*A, C+1));
    rows are ordered row-major over cells then by anchor, matching
    anchor_array within the scale. Scores are the normalized
    exponential of the confidence logits per anchor.

    conv3x3 computes output channels independently, so the one convolution
    is bit-exact with separate location and confidence convolutions.
    """
    a, c = anchors_per_cell, num_classes + 1
    if kernel.out_channels != (4 + c) * a:
        raise ValidationError(
            f"head kernel emits {kernel.out_channels} channels, expected (4 + {c}) x {a} = {(4 + c) * a}"
        )
    h, w = state.height, state.width
    loc, conf = np.split(conv3x3(state, kernel).data, [4 * a])
    # channels are anchor-major: anchor i owns channels [i*4, i*4+4) / [i*c, i*c+c)
    offsets = loc.reshape(a, 4, h, w).transpose(2, 3, 0, 1).reshape(-1, 4)
    logits = conf.reshape(a, c, h, w).transpose(2, 3, 0, 1).reshape(-1, c)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    scores = e / e.sum(axis=1, keepdims=True)
    return offsets, scores


def _exp(values: np.ndarray) -> np.ndarray:
    """math.exp of every value of a 1-D array, inf where it overflows.

    np.exp differs from math.exp in the last bit for a few percent of
    inputs, which would move decoded coordinates, so math.exp stays.
    """
    out = []
    for v in values.tolist():
        try:
            out.append(math.exp(v))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=np.float64)


def _clip(v: np.ndarray, hi: float) -> np.ndarray:
    # min(max(v, 0.0), hi) with Python's tie rule, so signed zeros survive as before
    v = np.where(0.0 > v, 0.0, v)
    return np.where(hi < v, hi, v)


def _anchor_error(rows: np.ndarray, o: np.ndarray, bad: np.ndarray, what: str) -> ValidationError:
    k = int(np.argmax(bad))
    return ValidationError(f"anchor {int(rows[k])}: {what}, offsets {tuple(o[k].tolist())}")


def check_offsets(offsets: np.ndarray, rows: np.ndarray) -> None:
    """Raise ValidationError naming the first anchor of rows whose offsets are not all finite."""
    o = np.asarray(offsets, dtype=np.float64)[rows]
    bad = ~np.isfinite(o).all(axis=1)
    if bad.any():
        raise _anchor_error(rows, o, bad, "offsets must be finite")


def decode_boxes(anchors: np.ndarray, offsets: np.ndarray, input_size: int, rows=None) -> np.ndarray:
    """Center-size decoding of anchors[rows] by offsets[rows], clipped to the image square.

    anchors and offsets are (N, 4) arrays; rows (default: all) selects the
    anchors to decode, and the result has one (xmin, ymin, xmax, ymax) row
    per selected anchor. Every value is computed with the same IEEE
    operations, in the same order, as the scalar formula
    cx = acx + dx*vx*aw, w = aw*exp(dw*vw) on BBox.center and BBox.width.
    Non-finite offsets and decodes that overflow raise ValidationError
    naming the anchor index.
    """
    if rows is None:
        rows = np.arange(len(anchors))
    check_offsets(offsets, rows)
    a = anchors[rows]
    o = np.asarray(offsets, dtype=np.float64)[rows]
    vx, vy, vw, vh = BOX_VARIANCES
    xmin, ymin, xmax, ymax = a.T
    aw, ah = xmax - xmin, ymax - ymin
    with np.errstate(over="ignore"):  # overflow is reported below, by anchor
        cx = (xmin + xmax) / 2.0 + o[:, 0] * vx * aw
        cy = (ymin + ymax) / 2.0 + o[:, 1] * vy * ah
        w = aw * _exp(o[:, 2] * vw)
        h = ah * _exp(o[:, 3] * vh)
    bad = ~np.isfinite(np.stack((cx, cy, w, h), axis=1)).all(axis=1)
    if bad.any():
        raise _anchor_error(rows, o, bad, "decoded box overflows")
    corners = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
    return np.stack([_clip(c, float(input_size)) for c in corners], axis=1)


def decode_box(anchor: BBox, offsets, input_size: int) -> BBox:
    """decode_boxes for a single anchor."""
    offsets = np.asarray(offsets, dtype=np.float64).reshape(1, 4)
    return BBox(*decode_boxes(np.array([anchor.coords()]), offsets, input_size)[0].tolist())


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area; 0 when the union is empty."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


# Elements of one block of pairwise overlaps (8 bytes each); nms_rows,
# refine_rows and evaluation._match take as many rows per block as
# fit, at least one, so their memory stays flat however many boxes they get.
# 2^14 (128 KiB a buffer) stays in a 2 MiB L2 cache; NMS measured 9-18% slower at 2^16 and 2^13.
IOU_BLOCK_ELEMENTS = 1 << 14


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise overlaps of (M, 4) and (N, 4) boxes: entry [i, j] is iou(a[i], b[j]).

    Every entry is computed with iou's operations in iou's order (in place,
    in an intersection and a union buffer), so row i is bit-identical to the
    scalar iou of a[i] against each row of b.
    """
    inter = np.minimum(a[:, 2, None], b[:, 2])
    inter -= np.maximum(a[:, 0, None], b[:, 0])  # the intersection's width
    np.maximum(inter, 0.0, out=inter)
    union = np.minimum(a[:, 3, None], b[:, 3])
    union -= np.maximum(a[:, 1, None], b[:, 1])  # its height
    inter *= np.maximum(union, 0.0, out=union)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    np.subtract(np.add(area_a[:, None], area_b, out=union), inter, out=union)
    with np.errstate(divide="ignore", invalid="ignore"):  # those entries are set to 0 below
        inter /= union
    inter[union <= 0.0] = 0.0
    return inter


def block_rows(n: int) -> int:
    """Rows of n overlaps each that make one block of about IOU_BLOCK_ELEMENTS, at least one."""
    return max(1, IOU_BLOCK_ELEMENTS // max(n, 1))


def nms_rows(boxes: np.ndarray, iou_threshold: float, classes: np.ndarray | None = None) -> np.ndarray:
    """Greedy suppression over (N, 4) boxes already in priority order.

    Returns the kept row indices, ascending. Row p is suppressed when its
    overlap with an earlier kept row (of the same class when classes is
    given) strictly exceeds the threshold. Overlaps come from one
    iou_matrix call per block of rows against all later rows, a block
    holding about IOU_BLOCK_ELEMENTS overlaps; the greedy scan then walks
    the block's rows in order.
    """
    n = len(boxes)
    alive = np.ones(n, dtype=bool)
    step = block_rows(n)
    for b0 in range(0, n, step):
        b1 = min(b0 + step, n)
        if not alive[b0:b1].any():
            continue
        keep = iou_matrix(boxes[b0:b1], boxes[b0:]) <= iou_threshold
        if classes is not None:
            keep |= classes[b0:b1, None] != classes[b0:]
        for p in range(b0, b1):
            if alive[p]:
                alive[p + 1 :] &= keep[p - b0, p + 1 - b0 :]
    return np.flatnonzero(alive)


def priority_order(boxes: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Stable order by (score desc, xmin asc, ymin asc); ties keep input order."""
    return np.lexsort((boxes[:, 1], boxes[:, 0], -scores))


def _columns(dets: list[Detection]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    boxes = np.array([d.box.coords() for d in dets], dtype=np.float64).reshape(-1, 4)
    scores = np.array([d.score for d in dets], dtype=np.float64)
    classes = np.array([d.class_id for d in dets], dtype=np.int64)
    return boxes, scores, classes


def nms_greedy(dets: list[Detection], iou_threshold: float = 0.45, per_class: bool = True) -> list[Detection]:
    """Greedy suppression: keep the best remaining detection, drop overlaps.

    A detection is suppressed when its overlap with an already-kept
    detection (of the same class when per_class is set) strictly exceeds
    the threshold. Ties are broken by (score desc, xmin asc, ymin asc,
    input index asc).
    """
    boxes, scores, classes = _columns(dets)
    order = priority_order(boxes, scores)
    kept = nms_rows(boxes[order], iou_threshold, classes[order] if per_class else None)
    return [dets[i] for i in order[kept].tolist()]


def refine_rows(
    kept_boxes: np.ndarray,
    kept_scores: np.ndarray,
    kept_classes: np.ndarray,
    own: list,
    boxes: np.ndarray,
    scores: np.ndarray,
    classes: np.ndarray,
    iou_threshold: float,
) -> np.ndarray:
    """Refined (K, 4) coordinates of K kept boxes against a pool of N candidates.

    Kept box i is averaged, weighted by score, with every pool row of its
    class whose overlap with it strictly exceeds the threshold, except the
    pool rows own[i] (an index or index array) that are the kept box
    itself; its own term is counted once. The sums start from the kept
    box's own term and add one neighbor at a time in pool order, as a
    scalar loop would. A box without neighbors, or with a non-positive
    total weight, keeps its coordinates. Overlaps come from one iou_matrix
    call per block of a class's kept boxes against that class's pool rows,
    a block holding about IOU_BLOCK_ELEMENTS overlaps.
    """
    kept_boxes = np.asarray(kept_boxes, dtype=np.float64)
    out = kept_boxes.copy()
    weighted = boxes * scores[:, None]
    for cls in np.unique(kept_classes):
        members = np.flatnonzero(classes == cls)
        rank = np.full(len(boxes), -1)  # a pool row's column among members
        rank[members] = np.arange(len(members))
        rows = np.flatnonzero(kept_classes == cls)
        step = block_rows(len(members))
        for r0 in range(0, len(rows), step):
            block = rows[r0 : r0 + step]
            over = iou_matrix(kept_boxes[block], boxes[members]) > iou_threshold
            for i, near in zip(block.tolist(), over):
                own_cols = rank[own[i]]
                near[own_cols[own_cols >= 0]] = False
                hood = members[near]
                if len(hood) == 0:
                    continue
                score = kept_scores[i]
                # add.accumulate sums strictly left to right; np.sum would pair terms up
                weight = np.add.accumulate(np.concatenate(([score], scores[hood])))[-1]
                if weight <= 0.0:
                    continue
                total = np.add.accumulate(np.vstack((out[i] * score, weighted[hood])), axis=0)[-1]
                out[i] = total / weight
    return out


def refine_boxes(
    kept: list[Detection], candidates: list[Detection], iou_threshold: float = 0.6
) -> list[Detection]:
    """Score-weighted coordinate averaging over each kept box's neighborhood.

    The neighborhood of a kept detection b is every same-class candidate
    whose overlap with b strictly exceeds the threshold, plus b itself
    (counted once). Scores and classes are unchanged.
    """
    if not candidates:
        raise ValidationError("refinement requires a non-empty candidate pool")
    kept_boxes, kept_scores, kept_classes = _columns(kept)
    own = [np.flatnonzero([c is b for c in candidates]) for b in kept]
    coords = refine_rows(kept_boxes, kept_scores, kept_classes, own, *_columns(candidates), iou_threshold)
    refined = []
    for b, row in zip(kept, coords.tolist()):
        if tuple(row) != b.box.coords():
            b = Detection(box=BBox(*row), score=b.score, class_id=b.class_id)
        refined.append(b)
    return refined
