import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weavenet import detect
from weavenet.detect import BBox, iou
from weavenet.errors import ValidationError
from weavenet.evaluation import (
    ALL_STRATA,
    DetectionRecord,
    EvalReport,
    GroundTruth,
    average_precision_11pt,
    detection_table,
    evaluate,
    ground_truth_table,
    match_detections,
    stratify_by_area,
)


def gt_with_area(area, image_id="img0", class_id=0, ignored=False):
    return GroundTruth(
        image_id=image_id, box=BBox(0.0, 0.0, 1.0, float(area)), class_id=class_id, ignored=ignored
    )


def det_on(gt, score, shift=0.0):
    b = gt.box
    return DetectionRecord(
        image_id=gt.image_id,
        box=BBox(b.xmin + shift, b.ymin, b.xmax + shift, b.ymax),
        score=score,
        class_id=gt.class_id,
    )


class TestStratify:
    def test_four_distinct_areas(self):
        gts = [gt_with_area(a) for a in (1, 2, 3, 4)]
        assert stratify_by_area(gts) == ["small", "medium", "medium", "large"]

    def test_order_independent_of_input_order(self):
        gts = [gt_with_area(a) for a in (4, 1, 3, 2)]
        assert stratify_by_area(gts) == ["large", "small", "medium", "medium"]

    def test_all_equal_areas_rank_large(self):
        gts = [gt_with_area(2.0) for _ in range(5)]
        assert stratify_by_area(gts) == ["large"] * 5

    def test_singleton_class_is_large(self):
        assert stratify_by_area([gt_with_area(7.0)]) == ["large"]

    def test_classes_stratified_independently(self):
        gts = [gt_with_area(a, class_id=0) for a in (1, 2, 3, 4)] + [
            gt_with_area(a, class_id=1) for a in (100, 200, 300, 400)
        ]
        labels = stratify_by_area(gts)
        assert labels[:4] == ["small", "medium", "medium", "large"]
        assert labels[4:] == ["small", "medium", "medium", "large"]

    def test_eight_boxes_quartiles(self):
        areas = [1, 2, 3, 4, 5, 6, 7, 8]
        labels = stratify_by_area([gt_with_area(a) for a in areas])
        # thresholds: index floor(0.25*8)=2 -> 3, floor(0.75*8)=6 -> 7
        assert labels == ["small", "small", "medium", "medium", "medium", "medium", "large", "large"]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            stratify_by_area([])


class TestMatchDetections:
    def test_perfect_match_is_tp(self):
        gt = gt_with_area(4.0)
        assert match_detections([det_on(gt, 0.9)], [gt]) == ["tp"]

    def test_no_gt_is_fp(self):
        d = DetectionRecord(image_id="img0", box=BBox(0, 0, 1, 1), score=0.9, class_id=0)
        assert match_detections([d], [gt_with_area(4.0, image_id="img1")]) == ["fp"]

    def test_second_detection_on_consumed_gt_is_fp(self):
        gt = gt_with_area(4.0)
        dets = [det_on(gt, 0.9), det_on(gt, 0.8)]
        assert match_detections(dets, [gt]) == ["tp", "fp"]

    def test_score_order_decides_who_wins(self):
        gt = gt_with_area(4.0)
        dets = [det_on(gt, 0.8), det_on(gt, 0.9)]
        assert match_detections(dets, [gt]) == ["fp", "tp"]

    def test_ignored_gt_absorbs_repeatedly_without_consumption(self):
        gt = gt_with_area(4.0, ignored=True)
        dets = [det_on(gt, 0.9), det_on(gt, 0.8)]
        assert match_detections(dets, [gt]) == ["ignored", "ignored"]

    def test_detection_takes_highest_overlap_gt(self):
        a = GroundTruth(image_id="i", box=BBox(0, 0, 10, 10), class_id=0)
        b = GroundTruth(image_id="i", box=BBox(2, 0, 12, 10), class_id=0)
        d = DetectionRecord(image_id="i", box=BBox(2.2, 0, 12.2, 10), score=0.9, class_id=0)
        assert iou(d.box, b.box) > iou(d.box, a.box)
        labels = match_detections([d], [a, b])
        assert labels == ["tp"]
        follow = DetectionRecord(image_id="i", box=BBox(2, 0, 12, 10), score=0.5, class_id=0)
        assert match_detections([d, follow], [a, b]) == ["tp", "tp"]

    def test_class_and_image_must_agree(self):
        gt = gt_with_area(4.0)
        wrong_class = DetectionRecord(image_id="img0", box=gt.box, score=0.9, class_id=1)
        wrong_image = DetectionRecord(image_id="imgX", box=gt.box, score=0.9, class_id=0)
        assert match_detections([wrong_class, wrong_image], [gt]) == ["fp", "fp"]

    def test_threshold_is_inclusive(self):
        gt = GroundTruth(image_id="i", box=BBox(0, 0, 1, 1), class_id=0)
        d = DetectionRecord(image_id="i", box=BBox(0, 0, 1, 2), score=0.9, class_id=0)
        assert iou(d.box, gt.box) == pytest.approx(0.5, abs=1e-15)
        assert match_detections([d], [gt], iou_threshold=0.5) == ["tp"]


def scalar_match(dets, gts, iou_threshold=0.5):
    """The scalar loop match_detections replaced, kept as its oracle: one
    iou call per (detection, unconsumed ground-truth box) pair of the same
    image and class, detections visited by descending score then index."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    by_key = {}
    for j, gt in enumerate(gts):
        by_key.setdefault((gt.image_id, gt.class_id), []).append(j)
    consumed = [False] * len(gts)
    labels = [""] * len(dets)
    for i in order:
        d = dets[i]
        best_j = -1
        best_iou = 0.0
        for j in by_key.get((d.image_id, d.class_id), ()):
            if consumed[j]:
                continue
            v = iou(d.box, gts[j].box)
            if v > best_iou:
                best_iou = v
                best_j = j
        if best_j >= 0 and best_iou >= iou_threshold:
            if gts[best_j].ignored:
                labels[i] = "ignored"
            else:
                labels[i] = "tp"
                consumed[best_j] = True
        else:
            labels[i] = "fp"
    return labels


@st.composite
def small_box(draw, min_side=0):
    """A box on a 0..9 integer grid, so equal overlaps and exact copies are common."""
    x, y = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    w, h = draw(st.integers(min_side, 3)), draw(st.integers(min_side, 3))
    return BBox(x, y, x + w, y + h)


class TestMatchOracle:
    @settings(deadline=None, max_examples=200)
    @given(
        data=st.data(),
        block=st.integers(1, 48),
        threshold=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_matches_scalar_loop(self, data, block, threshold):
        """Duplicates, equal scores, ground-truth boxes of equal overlap (the
        first wins), ignored boxes, two images and two classes, with overlap
        blocks of 1-48 elements so a group spans many blocks."""
        image, cls = st.sampled_from(["a", "b"]), st.integers(0, 1)
        score = st.sampled_from([0.2, 0.5, 0.9])
        gts = data.draw(st.lists(
            st.builds(GroundTruth, image, small_box(min_side=1), cls, st.booleans()), max_size=10
        ))
        if gts:  # exact copies of ground-truth boxes, ignored or not
            copies = data.draw(st.lists(st.tuples(st.sampled_from(gts), st.booleans()), max_size=4))
            gts += [GroundTruth(g.image_id, g.box, g.class_id, flag) for g, flag in copies]
        dets = data.draw(st.lists(st.builds(DetectionRecord, image, small_box(), score, cls), max_size=14))
        if dets:
            dets += data.draw(st.lists(st.sampled_from(dets), max_size=4))
        if gts:  # detections sitting exactly on ground truth
            hits = data.draw(st.lists(st.tuples(st.sampled_from(gts), score), max_size=8))
            dets += [DetectionRecord(g.image_id, g.box, s, g.class_id) for g, s in hits]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "IOU_BLOCK_ELEMENTS", block)
            assert match_detections(dets, gts, threshold) == scalar_match(dets, gts, threshold)

    def test_first_of_equal_overlaps_wins(self):
        # the detection overlaps both boxes by 1/3; the ignored one comes first
        left = GroundTruth("i", BBox(0, 0, 2, 1), 0, ignored=True)
        right = GroundTruth("i", BBox(2, 0, 4, 1), 0)
        d = DetectionRecord("i", BBox(1, 0, 3, 1), 0.9, 0)
        assert iou(d.box, left.box) == iou(d.box, right.box) > 0.0
        assert match_detections([d], [left, right], 0.3) == ["ignored"]
        assert match_detections([d], [right, left], 0.3) == ["tp"]

    def test_zero_overlap_never_matches(self):
        gt = GroundTruth("i", BBox(0, 0, 1, 1), 0)
        d = DetectionRecord("i", BBox(5, 5, 6, 6), 0.9, 0)
        assert match_detections([d], [gt], 0.0) == ["fp"]


class TestAveragePrecision:
    def test_single_true_positive_full_recall(self):
        assert average_precision_11pt([True], 1) == pytest.approx(1.0, abs=1e-12)

    def test_no_true_positives(self):
        assert average_precision_11pt([False, False], 3) == pytest.approx(0.0, abs=1e-12)

    def test_tp_then_fp_over_two_gts(self):
        assert average_precision_11pt([True, False], 2) == pytest.approx(6.0 / 11.0, abs=1e-12)

    def test_negative_positive_count_rejected(self):
        with pytest.raises(ValidationError, match="^positive count must be non-negative, got -1$"):
            average_precision_11pt([True], -1)

    def test_zero_positives_is_zero(self):
        assert average_precision_11pt([], 0) == 0.0

    def test_trailing_fp_never_raises_ap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            seq = [bool(rng.integers(2)) for _ in range(int(rng.integers(1, 12)))]
            npos = max(sum(seq), 1)
            base = average_precision_11pt(seq, npos)
            assert average_precision_11pt(seq + [False], npos) <= base + 1e-15

    def test_perfect_ordering_is_one(self):
        assert average_precision_11pt([True] * 7, 7) == pytest.approx(1.0, abs=1e-12)


def build_fixture(seed=0):
    """3 images, 2 classes, 12 GT per class with spread areas, noisy detections."""
    rng = np.random.default_rng(seed)
    gts = []
    for cls in (0, 1):
        for i in range(12):
            image_id = f"img{i % 3}"
            side = 2.0 + 3.0 * i + cls  # strictly increasing areas within class
            x0 = float(rng.uniform(0, 200))
            y0 = float(rng.uniform(0, 200))
            gts.append(
                GroundTruth(
                    image_id=image_id,
                    box=BBox(x0, y0, x0 + side, y0 + side),
                    class_id=cls,
                )
            )
    dets = []
    for j, gt in enumerate(gts):
        if j % 4 == 3:
            continue  # some GTs go undetected
        shift = float(rng.uniform(0, 0.2)) * gt.box.width
        dets.append(det_on(gt, score=float(rng.uniform(0.3, 1.0)), shift=shift))
        if j % 5 == 0:
            dets.append(det_on(gt, score=float(rng.uniform(0.05, 0.3)), shift=shift + 1.0))
    for _ in range(6):  # far-away false positives
        x0 = float(rng.uniform(500, 900))
        dets.append(
            DetectionRecord(
                image_id=f"img{int(rng.integers(3))}",
                box=BBox(x0, x0, x0 + 10, x0 + 10),
                score=float(rng.uniform(0, 1)),
                class_id=int(rng.integers(2)),
            )
        )
    return dets, gts


def reference_evaluate(dets, gts, iou_threshold=0.5):
    """Slow exhaustive restatement used as an oracle: no indexing, plain loops."""

    def ref_strata():
        labels = {}
        for cls in {g.class_id for g in gts}:
            pool = [(g.box.area, i) for i, g in enumerate(gts) if g.class_id == cls]
            pool.sort()
            n = len(pool)
            lo = pool[int(math.floor(0.25 * n))][0]
            hi = pool[int(math.floor(0.75 * n))][0]
            for area, i in pool:
                labels[i] = "small" if area < lo else ("medium" if area < hi else "large")
        return labels

    def ref_ap(points, npos):
        if npos == 0:
            return None
        total = 0.0
        for level in [x / 10 for x in range(11)]:
            cands = [p for p, r in points if r >= level]
            total += max(cands) if cands else 0.0
        return total / 11.0

    labels = ref_strata()
    classes = sorted({g.class_id for g in gts})
    report = {}
    for stratum in ALL_STRATA:
        report[stratum] = {}
        for cls in classes:
            cls_gts = [
                (i, g)
                for i, g in enumerate(gts)
                if g.class_id == cls
            ]
            active = {
                i
                for i, g in cls_gts
                if not g.ignored and (stratum == "overall" or labels[i] == stratum)
            }
            npos = len(active)
            cls_dets = sorted(
                [d for d in dets if d.class_id == cls],
                key=lambda d: -d.score,
            )
            used = set()
            points = []
            tp = fp = 0
            for d in cls_dets:
                best, best_v = None, 0.0
                for i, g in cls_gts:
                    if g.image_id != d.image_id or i in used:
                        continue
                    v = iou(d.box, g.box)
                    if v > best_v:
                        best, best_v = i, v
                if best is not None and best_v >= iou_threshold:
                    if best in active:
                        tp += 1
                        used.add(best)
                        points.append((tp / (tp + fp), tp / npos if npos else 0.0))
                    else:
                        continue  # absorbed by an ignored box, not consumed
                else:
                    fp += 1
                    points.append((tp / (tp + fp), tp / npos if npos else 0.0))
            report[stratum][cls] = ref_ap(points, npos)
    return report


class TestEvaluate:
    def test_perfect_detections_score_one_everywhere(self):
        gts = [gt_with_area(a, class_id=c) for c in (0, 1) for a in (1, 2, 3, 4)]
        dets = [det_on(g, score=1.0) for g in gts]
        report = evaluate(dets, gts)
        for stratum in ALL_STRATA:
            for cls in (0, 1):
                if report.ap[stratum][cls] is not None:
                    assert report.ap[stratum][cls] == pytest.approx(1.0, abs=1e-12)
            assert report.mean_ap[stratum] == pytest.approx(1.0, abs=1e-12)
        assert report.gt_count == 8 and report.det_count == 8

    def test_requires_ground_truth(self):
        with pytest.raises(ValidationError):
            evaluate([], [])

    def test_empty_detections_are_all_zero(self):
        gts = [gt_with_area(a) for a in (1, 2, 3, 4)]
        report = evaluate([], gts)
        assert report.mean_ap["overall"] == 0.0
        assert report.ap["overall"][0] == 0.0

    def test_detection_only_classes_are_noted(self):
        gts = [gt_with_area(4.0, class_id=0)]
        stray = DetectionRecord(image_id="img0", box=BBox(0, 0, 1, 1), score=0.5, class_id=7)
        report = evaluate([stray], gts)
        assert any("7" in note for note in report.notes)
        assert 7 not in report.ap["overall"]

    def test_matches_slow_reference_on_fixture(self):
        for seed in (0, 1, 2):
            dets, gts = build_fixture(seed)
            got = evaluate(dets, gts)
            want = reference_evaluate(dets, gts)
            for stratum in ALL_STRATA:
                for cls in (0, 1):
                    w = want[stratum][cls]
                    g = got.ap[stratum][cls]
                    if w is None:
                        assert g is None
                    else:
                        assert g == pytest.approx(w, abs=1e-12), (seed, stratum, cls)

    def test_ap_invariant_under_monotone_score_transform(self):
        dets, gts = build_fixture(4)
        squeezed = [
            DetectionRecord(d.image_id, d.box, 0.05 + 0.9 / (1.0 + math.exp(-d.score)), d.class_id)
            for d in dets
        ]
        a = evaluate(dets, gts)
        b = evaluate(squeezed, gts)
        for stratum in ALL_STRATA:
            assert a.mean_ap[stratum] == pytest.approx(b.mean_ap[stratum], abs=1e-12)

    def test_far_low_score_detection_never_raises_ap(self):
        dets, gts = build_fixture(5)
        lowest = min(d.score for d in dets) / 2.0
        junk = DetectionRecord(
            image_id="img0", box=BBox(900.0, 900.0, 910.0, 910.0), score=lowest, class_id=0
        )
        a = evaluate(dets, gts)
        b = evaluate(dets + [junk], gts)
        for stratum in ALL_STRATA:
            for cls in (0, 1):
                if a.ap[stratum][cls] is not None:
                    assert b.ap[stratum][cls] <= a.ap[stratum][cls] + 1e-15

    def test_stratum_tp_counts_partition_overall(self):
        dets, gts = build_fixture(6)
        labels = stratify_by_area(gts)
        for cls in (0, 1):
            cls_dets = [d for d in dets if d.class_id == cls]
            total = 0
            for stratum in ("small", "medium", "large"):
                view = [
                    GroundTruth(g.image_id, g.box, g.class_id, ignored=label != stratum)
                    for g, label in zip(gts, labels)
                ]
                cls_gts = [g for g in view if g.class_id == cls]
                marks = match_detections(cls_dets, cls_gts)
                total += marks.count("tp")
            overall_gts = [g for g in gts if g.class_id == cls]
            overall = match_detections(cls_dets, overall_gts).count("tp")
            assert total == overall

    def test_positives_counts_per_stratum(self):
        gts = [gt_with_area(a) for a in (1, 2, 3, 4)]
        report = evaluate([], gts)
        assert report.positives["small"][0] == 1
        assert report.positives["medium"][0] == 2
        assert report.positives["large"][0] == 1
        assert report.positives["overall"][0] == 4


# a box on an integer grid times a power of ten, so magnitudes span 1e-100
# to 2e153 while twice the area stays finite
grid_box = st.builds(
    lambda x, y, w, h, e: (x * 10.0**e, y * 10.0**e, (x + w) * 10.0**e, (y + h) * 10.0**e),
    st.integers(-1000, 1000), st.integers(-1000, 1000),
    st.integers(1, 1000), st.integers(1, 1000), st.integers(-100, 150),
)


class TestBoxMagnitudes:
    @pytest.mark.parametrize(
        "coords",
        [
            (-1e308, -1e308, 1e308, 1e308),  # infinite width and area
            (0.0, 0.0, 1e200, 1e200),  # finite sides, infinite area
            (0.0, 0.0, 1e154, 1e154),  # area 1e308, but twice it overflows
        ],
    )
    def test_overflowing_box_rejected(self, coords):
        with pytest.raises(ValidationError, match="too large"):
            BBox(*coords)

    def test_largest_boxes_still_match_themselves(self):
        side = 0.7e154  # area 4.9e307, twice that still finite
        gt = GroundTruth("img0", BBox(-side / 2, -side / 2, side / 2, side / 2), 0)
        assert iou(gt.box, gt.box) == 1.0
        assert evaluate([det_on(gt, 0.9)], [gt]).mean_ap["overall"] == 1.0

    @settings(deadline=None, max_examples=60)
    @given(
        boxes=st.lists(
            st.tuples(grid_box, st.sampled_from(["a", "b"]), st.integers(0, 2)),
            min_size=1, max_size=12,
        ),
        scores=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12),
    )
    def test_perfect_detections_give_ap_one(self, boxes, scores):
        gts = [GroundTruth(image, BBox(*coords), cls) for coords, image, cls in boxes]
        dets = [det_on(g, score) for g, score in zip(gts, scores)]
        report = evaluate(dets, gts)
        for stratum in ALL_STRATA:
            assert all(ap in (None, 1.0) for ap in report.ap[stratum].values())
        assert report.mean_ap["overall"] == 1.0


class TestApBounds:
    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_every_ap_lies_in_unit_interval(self, data):
        """Arbitrary detections against arbitrary ground truth: duplicates,
        zero-area detections, classes with no detections or no ground truth."""
        side = st.one_of(st.just(0.0), st.integers(1, 20).map(float), st.floats(0.0, 50.0))
        corner = st.one_of(st.integers(0, 30).map(float), st.floats(-10.0, 60.0))
        image = st.sampled_from(["a", "b"])

        @st.composite
        def box(draw, min_side=0.0):
            x, y = draw(corner), draw(corner)
            w = max(draw(side), min_side)
            h = max(draw(side), min_side)
            return BBox(x, y, x + w, y + h)

        gts = data.draw(st.lists(
            st.builds(GroundTruth, image, box(min_side=0.5), st.integers(0, 2)), min_size=1, max_size=10
        ))
        dets = data.draw(st.lists(
            st.builds(DetectionRecord, image, box(), st.floats(-1.0, 2.0), st.integers(0, 3)),
            max_size=12,
        ))
        # exact copies of drawn detections and detections sitting on ground truth
        dets += data.draw(st.lists(st.sampled_from(dets), max_size=4)) if dets else []
        dets += [det_on(g, s) for g, s in zip(gts, data.draw(st.lists(st.floats(0.0, 1.0), max_size=4)))]
        report = evaluate(dets, gts)
        for stratum in ALL_STRATA:
            for ap in report.ap[stratum].values():
                assert ap is None or 0.0 <= ap <= 1.0
            assert 0.0 <= report.mean_ap[stratum] <= 1.0


def list_strata(gts):
    """The list stratify_by_area the array version replaced."""
    labels = [""] * len(gts)
    by_class = {}
    for idx, gt in enumerate(gts):
        by_class.setdefault(gt.class_id, []).append(idx)
    for indices in by_class.values():
        areas = sorted(gts[i].box.area for i in indices)
        n = len(areas)
        p25 = areas[math.floor(0.25 * n)]
        p75 = areas[math.floor(0.75 * n)]
        for i in indices:
            area = gts[i].box.area
            labels[i] = "small" if area < p25 else ("medium" if area < p75 else "large")
    return labels


def list_ap(tp_sequence, num_positive_gts):
    """The Python-loop average_precision_11pt the cumulative-count version replaced."""
    if num_positive_gts == 0:
        return 0.0
    precisions, recalls = [], []
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


def list_evaluate(dets, gts, iou_threshold=0.5):
    """The evaluate the one-pass version replaced, kept as its oracle: every
    stratum views the ground truth through a copy of each box (the other
    strata's boxes ignored) and scores each class with its own matcher call,
    here the scalar matcher, the list strata and the list AP."""
    strata_labels = list_strata(gts)
    classes = sorted({g.class_id for g in gts})
    notes = []
    det_classes = sorted({d.class_id for d in dets} - set(classes))
    if det_classes:
        notes.append(f"detections for classes without ground truth skipped: {det_classes}")
    ap, positives, mean_ap = {}, {}, {}
    for stratum in ALL_STRATA:
        if stratum == "overall":
            view = gts
        else:
            view = [
                GroundTruth(g.image_id, g.box, g.class_id, ignored=g.ignored or label != stratum)
                for g, label in zip(gts, strata_labels)
            ]
        ap[stratum], positives[stratum] = {}, {}
        scored = []
        for cls in classes:
            cls_dets = [d for d in dets if d.class_id == cls]
            cls_gts = [g for g in view if g.class_id == cls]
            num_positive = sum(1 for g in cls_gts if not g.ignored)
            cls_ap = None
            if num_positive:
                labels = scalar_match(cls_dets, cls_gts, iou_threshold)
                order = sorted(range(len(cls_dets)), key=lambda i: (-cls_dets[i].score, i))
                seq = [labels[i] == "tp" for i in order if labels[i] != "ignored"]
                cls_ap = list_ap(seq, num_positive)
                scored.append(cls_ap)
            elif stratum == "overall":
                notes.append(f"class {cls} has no scorable ground truth overall")
            ap[stratum][cls] = cls_ap
            positives[stratum][cls] = num_positive
        mean_ap[stratum] = sum(scored) / len(scored) if scored else 0.0
    return ap, positives, mean_ap, notes


def hexed(value):
    return None if value is None else value.hex()


class TestEvaluateOracle:
    @settings(deadline=None, max_examples=150)
    @given(
        data=st.data(),
        block=st.integers(1, 48),
        threshold=st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_matches_list_oracle(self, data, block, threshold):
        """Every AP and mAP bit for bit, every positive count and note:
        duplicates, equal scores, exact ground-truth copies (equal overlaps),
        ignored boxes, a detection-only class, two images, and overlap blocks
        of 1-48 elements."""
        image, cls = st.sampled_from(["a", "b"]), st.integers(0, 2)
        score = st.one_of(st.sampled_from([0.2, 0.5, 0.9]), st.floats(0.0, 1.0))
        gts = data.draw(st.lists(
            st.builds(GroundTruth, image, small_box(min_side=1), cls, st.booleans()), min_size=1, max_size=12
        ))
        copies = data.draw(st.lists(st.tuples(st.sampled_from(gts), st.booleans()), max_size=4))
        gts += [GroundTruth(g.image_id, g.box, g.class_id, flag) for g, flag in copies]
        dets = data.draw(st.lists(
            st.builds(DetectionRecord, image, small_box(), score, st.integers(0, 3)), max_size=16
        ))
        if dets:
            dets += data.draw(st.lists(st.sampled_from(dets), max_size=4))
        hits = data.draw(st.lists(st.tuples(st.sampled_from(gts), score), max_size=10))
        dets += [DetectionRecord(g.image_id, g.box, s, g.class_id) for g, s in hits]
        order = data.draw(st.permutations(range(len(dets))))
        dets = [dets[i] for i in order]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "IOU_BLOCK_ELEMENTS", block)
            report = evaluate(dets, gts, threshold)
        ap, positives, mean_ap, notes = list_evaluate(dets, gts, threshold)
        for stratum in ALL_STRATA:
            assert {c: hexed(v) for c, v in report.ap[stratum].items()} == {
                c: hexed(v) for c, v in ap[stratum].items()
            }
            assert report.positives[stratum] == positives[stratum]
            assert report.mean_ap[stratum].hex() == mean_ap[stratum].hex()
        assert list(report.notes) == notes
        assert (report.gt_count, report.det_count) == (len(gts), len(dets))

    def test_tables_and_records_give_one_report(self):
        dets, gts = build_fixture(7)
        assert evaluate(detection_table(dets), ground_truth_table(gts)) == evaluate(dets, gts)

    @settings(deadline=None, max_examples=100)
    @given(
        seq=st.lists(st.booleans(), max_size=30),
        extra=st.integers(0, 5),
    )
    def test_average_precision_matches_list_loop(self, seq, extra):
        num_positive = sum(seq) + extra
        assert average_precision_11pt(seq, num_positive).hex() == list_ap(seq, num_positive).hex()

    @settings(deadline=None, max_examples=100)
    @given(areas=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2)), min_size=1, max_size=20))
    def test_stratify_matches_list_loop(self, areas):
        gts = [gt_with_area(a, class_id=c) for a, c in areas]
        assert stratify_by_area(gts) == list_strata(gts)
