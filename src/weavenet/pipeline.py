"""The single-image detection pipeline behind `weavenet demo`.

Weave the synthetic pyramid, run the per-scale heads, then post-process:
decode the candidate anchors, per-class greedy NMS that stops at the
global top-k, and optional score-weighted refinement. Boxes stay (N, 4)
float64 arrays of (xmin, ymin, xmax, ymax) throughout; DetectionRecords
are built only for the rows that are returned.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .detect import (
    BBox,
    anchor_array,
    anchor_ratios,
    check_offsets,
    decode_boxes,
    head_forward,
    init_head_params,
    nms_rows,
    priority_order,
    refine_rows,
)
from .evaluation import DetectionRecord
from .fixtures import make_raw_pyramid
from .weave import init_params, weave_forward

IMAGE_ID = "synthetic-0"


def run_demo(config: RunConfig, refine: bool = True, mode: str = "simplified") -> list[DetectionRecord]:
    """Detections for the seeded synthetic image that `config` describes."""
    num_scales = len(config.pyramid_sizes)
    per_cell = [len(r) + 1 for r in anchor_ratios(config.anchor_mode, num_scales)]
    pyramid = make_raw_pyramid(config)
    states = weave_forward(pyramid, config, init_params(config), mode)

    anchors = anchor_array(config.anchor_mode, config.pyramid_sizes, config.input_size)
    state_channels = [config.state_channels(i, config.iterations) for i in range(num_scales)]
    heads = init_head_params(state_channels, per_cell, config.num_classes, config.seed)

    offsets, scores = head_forward(states, heads, per_cell, config.num_classes)
    return postprocess(anchors, offsets, scores, config, refine)


def _at_least_kth(rows: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The rows whose score is at least the k-th highest of scores, ties included."""
    if len(rows) <= k:
        return rows
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    return rows[scores >= kth]


def postprocess(
    anchors: np.ndarray, offsets: np.ndarray, scores: np.ndarray, config: RunConfig, refine: bool
) -> list[DetectionRecord]:
    """Detections from per-anchor offsets (N, 4) and class scores (N, C+1).

    Column 0 of scores is background. Per class, the anchors scoring above
    score_floor are ordered by (score desc, xmin asc, ymin asc, anchor
    index), cut to pre_nms_top_k and suppressed greedily; the survivors of
    all classes are ordered by (score desc, class, xmin, ymin) and cut to
    keep_top_k. Refinement averages each survivor with its same-class
    neighbors in the pool of cut candidates.

    The suppression runs once over the whole pool in that output order,
    within each class, and stops at the keep_top_k-th survivor: a box's
    fate depends only on the higher-priority boxes of its class, so the
    result is the same, and the pool rows past the last output are never
    compared.

    Only anchors that can make some class's cut are decoded: per class,
    those scoring at least its pre_nms_top_k-th highest score, ties
    included, since decoded coordinates break ties. Non-finite offsets
    raise ValidationError for any anchor above score_floor; a decode that
    overflows raises it only for the anchors that are decoded.
    """
    k = config.pre_nms_top_k
    foreground = scores[:, 1 : config.num_classes + 1]
    above = foreground > config.score_floor
    check_offsets(offsets, np.flatnonzero(above.any(axis=1)))
    cut = [
        _at_least_kth(np.flatnonzero(col), foreground[col, cls], k)
        for cls, col in enumerate(above.T)
    ]
    rows = np.unique(np.concatenate(cut))
    boxes = np.full_like(anchors, np.nan)
    boxes[rows] = decode_boxes(anchors, offsets, config.input_size, rows)

    pool_rows = [idx[priority_order(boxes[idx], foreground[idx, cls])][:k] for cls, idx in enumerate(cut)]
    pool_classes = np.concatenate([np.full(len(idx), cls) for cls, idx in enumerate(pool_rows)])
    pool_rows = np.concatenate(pool_rows)
    pool_boxes = boxes[pool_rows]
    pool_scores = foreground[pool_rows, pool_classes]
    order = np.lexsort((pool_boxes[:, 1], pool_boxes[:, 0], pool_classes, -pool_scores))
    kept = order[
        nms_rows(pool_boxes[order], config.nms_iou_threshold, pool_classes[order], config.keep_top_k)
    ]

    out_boxes = pool_boxes[kept]
    if refine and len(kept):
        out_boxes = refine_rows(
            out_boxes, pool_scores[kept], pool_classes[kept], kept,
            pool_boxes, pool_scores, pool_classes, config.refine_iou_threshold,
        )
    return [
        DetectionRecord(image_id=IMAGE_ID, box=BBox(*box), score=score, class_id=cls)
        for box, score, cls in zip(
            out_boxes.tolist(), pool_scores[kept].tolist(), pool_classes[kept].tolist()
        )
    ]
