"""Seeded synthetic inputs: raw pyramids and ground-truth/detection files.

The ground-truth fixture is built so per-class area percentiles are
unambiguous (12 boxes per class, strictly increasing areas) and every
perturbed detection keeps IoU >= 0.5 with its source box.
"""

from __future__ import annotations

import os

import numpy as np

from .config import RunConfig
from .detect import BBox
from .errors import ValidationError
from .evaluation import DetectionRecord, GroundTruth
from .formats import write_array, write_detections, write_ground_truth
from .tensor_core import Tensor
from .weave import WeaveConfig

FIXTURE_IMAGES = 3
FIXTURE_CLASSES = 2
BOXES_PER_CLASS = 12


def make_raw_pyramid(config: WeaveConfig, stream: int = 1) -> list[Tensor]:
    """Standard-normal raw features for every scale, from seed stream
    (config.seed, stream): 1 for `demo`, `verify` and fixtures, 4 for `bench`."""
    rng = np.random.default_rng([config.seed, stream])
    return [
        Tensor(rng.normal(size=(config.raw_channels[i], s, s)))
        for i, s in enumerate(config.pyramid_sizes)
    ]


def make_ground_truth(seed: int, input_size: int = 320) -> list[GroundTruth]:
    """2 classes x 12 boxes over 3 images, areas spanning all three strata.

    Boxes sit in disjoint grid slots (per class, per image) so that greedy
    matching against perturbed copies is unambiguous; box sides grow
    strictly with rank, making the 25th/75th percentile thresholds exact.
    """
    rng = np.random.default_rng([seed, 3])
    records = []
    for cls in range(FIXTURE_CLASSES):
        for rank in range(BOXES_PER_CLASS):
            image = f"img{rank % FIXTURE_IMAGES}"
            slot = rank // FIXTURE_IMAGES  # 4 slots per (class, image)
            side = 5.0 + 3.0 * rank
            x0 = 16.0 + slot * 76.0 + float(rng.uniform(0.0, 20.0))
            y0 = 16.0 + cls * 160.0 + float(rng.uniform(0.0, 20.0))
            box = BBox(x0, y0, x0 + side, y0 + side)
            if box.xmax > input_size or box.ymax > input_size:
                raise ValidationError(f"fixture box escapes the image: {box}")
            records.append(GroundTruth(image_id=image, box=box, class_id=cls))
    return records


def make_detections(gts: list[GroundTruth], seed: int) -> list[DetectionRecord]:
    """One detection per ground-truth box, shifted by at most 5% of its side.

    The worst-case overlap of such a shift is 0.9025/1.0975 of the area,
    comfortably above the 0.5 matching threshold.
    """
    rng = np.random.default_rng([seed, 3, 1])
    records = []
    for gt in gts:
        side = gt.box.width
        dx = float(rng.uniform(-0.05, 0.05)) * side
        dy = float(rng.uniform(-0.05, 0.05)) * side
        records.append(
            DetectionRecord(
                image_id=gt.image_id,
                box=BBox(gt.box.xmin + dx, gt.box.ymin + dy, gt.box.xmax + dx, gt.box.ymax + dy),
                score=float(rng.uniform(0.5, 1.0)),
                class_id=gt.class_id,
            )
        )
    return records


def write_fixtures(config: RunConfig, out_dir: str) -> list[str]:
    """Write pyramid arrays plus matching GT and detection files, all drawn
    from config.seed; returns paths. Everything is built, and so checked,
    before the first file is written."""
    pyramid = make_raw_pyramid(config)
    gts = make_ground_truth(config.seed, config.input_size)
    dets = make_detections(gts, config.seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, tensor in enumerate(pyramid):
        path = os.path.join(out_dir, f"pyramid_scale{i}.npy")
        write_array(path, tensor.data)
        paths.append(path)
    gt_path = os.path.join(out_dir, "ground_truth.jsonl")
    write_ground_truth(gt_path, gts)
    paths.append(gt_path)
    det_path = os.path.join(out_dir, "detections.jsonl")
    write_detections(det_path, dets)
    paths.append(det_path)
    return paths
