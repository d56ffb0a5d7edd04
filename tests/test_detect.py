import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weavenet import detect
from weavenet.config import RunConfig
from weavenet.detect import (
    BBox,
    BOX_VARIANCES,
    DEFAULT_SCALE_FRACTIONS,
    Detection,
    anchor_array,
    anchor_ratios,
    decode_box,
    decode_boxes,
    generate_anchors,
    head_forward,
    init_head_params,
    iou,
    iou_matrix,
    nms_greedy,
    nms_rows,
    refine_boxes,
)
from weavenet.errors import ValidationError
from weavenet.pipeline import postprocess
from weavenet.tensor_core import ConvKernel, Tensor, conv3x3

SIZES = (40, 20, 10, 5, 3, 1)


def det(xmin, ymin, xmax, ymax, score, class_id=0):
    return Detection(box=BBox(xmin, ymin, xmax, ymax), score=score, class_id=class_id)


def random_detections(rng, n, classes=3, span=100.0):
    dets = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, span, size=2)
        w, h = rng.uniform(1, span / 2, size=2)
        dets.append(
            Detection(
                box=BBox(x0, y0, x0 + w, y0 + h),
                score=float(rng.uniform(0, 1)),
                class_id=int(rng.integers(classes)),
            )
        )
    return dets


class TestBBox:
    def test_geometry_accessors(self):
        b = BBox(1.0, 2.0, 4.0, 8.0)
        assert b.width == 3.0 and b.height == 6.0
        assert b.area == 18.0
        assert b.center == (2.5, 5.0)

    def test_rejects_inverted_and_non_finite(self):
        with pytest.raises(ValidationError):
            BBox(5.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            BBox(0.0, 3.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            BBox(0.0, 0.0, math.nan, 1.0)

    def test_detection_rejects_bad_fields(self):
        box = BBox(0, 0, 1, 1)
        with pytest.raises(ValidationError):
            Detection(box=box, score=math.inf, class_id=0)
        with pytest.raises(ValidationError):
            Detection(box=box, score=0.5, class_id=-1)


class TestAnchorRatios:
    def test_mode_counts_per_cell(self):
        assert [len(r) + 1 for r in anchor_ratios("A")] == [4, 6, 6, 6, 4, 4]
        assert [len(r) + 1 for r in anchor_ratios("B")] == [6] * 6
        assert [len(r) + 1 for r in anchor_ratios("A", 3)] == [4, 4, 4]

    def test_unknown_mode_names_the_config_key(self):
        with pytest.raises(ValidationError, match=r"^anchor_mode must be one of \('A', 'B'\), got 'C'$"):
            anchor_ratios("C")

    def test_scale_count_is_checked_before_the_mode(self):
        with pytest.raises(ValidationError, match="^no default scale fractions for 7 scales$"):
            anchor_ratios("C", 7)


class TestGenerateAnchors:
    def test_total_counts(self):
        cells = [s * s for s in SIZES]
        b = generate_anchors("B", SIZES, 320)
        assert len(b) == 6 * sum(cells) == 12_810
        a = generate_anchors("A", SIZES, 320)
        expected = sum(
            c * n for c, n in zip(cells, [4, 6, 6, 6, 4, 4])
        )
        assert len(a) == expected == 9_590

    def test_unit_ratio_box_side_and_center(self):
        anchors = generate_anchors("B", SIZES, 320)
        # first cell of scale 0, ratio list (1/3, 1/2, 1, 2, 3): unit ratio is index 2
        unit = anchors[2]
        assert unit.width == pytest.approx(320 * 0.1, abs=1e-12)
        assert unit.height == pytest.approx(320 * 0.1, abs=1e-12)
        assert unit.center == (pytest.approx(4.0), pytest.approx(4.0))

    def test_extra_box_uses_geometric_mean_and_last_pairs_with_one(self):
        anchors = generate_anchors("B", SIZES, 320)
        first_extra = anchors[5]
        assert first_extra.width == pytest.approx(math.sqrt(0.1 * 0.2) * 320, abs=1e-9)
        last_extra = anchors[-1]
        assert last_extra.width == pytest.approx(math.sqrt(0.9 * 1.0) * 320, abs=1e-9)
        assert last_extra.width == pytest.approx(last_extra.height, abs=1e-12)

    def test_ratio_shapes_preserve_area(self):
        anchors = generate_anchors("B", SIZES, 320)
        cell0 = anchors[:6]
        areas = [b.area for b in cell0[:5]]
        assert areas == pytest.approx([(320 * 0.1) ** 2] * 5, rel=1e-12)
        assert cell0[3].width / cell0[3].height == pytest.approx(2.0)

    def test_all_centers_inside_image(self):
        for mode in ("A", "B"):
            anchors = generate_anchors(mode, SIZES, 320)
            for b in anchors:
                cx, cy = b.center
                assert 0.0 < cx < 320.0 and 0.0 < cy < 320.0

    def test_row_major_cell_order(self):
        anchors = generate_anchors("B", (2,), 4)
        # each cell holds its five ratio boxes, then the extra square box, all on the cell's center
        centers = [b.center for b in anchors]
        assert centers[::6] == [(1.0, 1.0), (3.0, 1.0), (1.0, 3.0), (3.0, 3.0)]
        for cell in range(4):
            assert [pytest.approx(c) for c in centers[6 * cell : 6 * cell + 6]] == [centers[6 * cell]] * 6


def head_kernel(loc_weights, loc_bias, conf_weights, conf_bias) -> ConvKernel:
    """A head kernel from its location and confidence parts, rows stacked."""
    return ConvKernel(np.concatenate([loc_weights, conf_weights]), np.concatenate([loc_bias, conf_bias]))


def two_kernel_head_params(state_channels, anchors_per_cell, num_classes, seed):
    """The former init_head_params: a separate (location, confidence) kernel pair per scale."""
    rng = np.random.default_rng([seed, 2])
    pairs = []
    for cin, a in zip(state_channels, anchors_per_cell):
        s = 1.0 / np.sqrt(cin * 9)
        loc = ConvKernel(rng.uniform(-s, s, size=(4 * a, cin, 3, 3)), rng.uniform(-s, s, size=4 * a))
        conf_out = (num_classes + 1) * a
        conf = ConvKernel(rng.uniform(-s, s, size=(conf_out, cin, 3, 3)), rng.uniform(-s, s, size=conf_out))
        pairs.append((loc, conf))
    return pairs


class TestHeadForward:
    def test_channel_bookkeeping(self):
        (kernel,) = init_head_params([32], [6], 20, seed=0)
        assert kernel.out_channels == 24 + 126
        assert kernel.in_channels == 32

    def test_rejects_channel_mismatch(self):
        state = Tensor(np.zeros((8, 4, 4)))
        good = ConvKernel(np.zeros((20, 8, 3, 3)), np.zeros(20))
        with pytest.raises(ValidationError, match="^scale 0: head kernel emits 20 channels, expected"):
            head_forward([state], [good], [3], 5)
        with pytest.raises(ValidationError, match="^scale 1: head kernel emits 19 channels, expected"):
            head_forward([state, state], [good, ConvKernel(np.zeros((19, 8, 3, 3)), np.zeros(19))], [2, 2], 5)
        with pytest.raises(ValidationError, match="one of each per scale"):
            head_forward([state, state], [good], [2, 2], 5)
        head_forward([state], [good], [2], 5)

    def test_stacked_conv_equals_separate_convs(self):
        rng = np.random.default_rng(21)
        state = Tensor(rng.normal(size=(24, 5, 7)))
        a, classes = 4, 3
        (kernel,) = init_head_params([24], [a], classes, seed=9)
        ((loc, conf),) = two_kernel_head_params([24], [a], classes, seed=9)
        assert kernel.weights.tobytes() == np.concatenate([loc.weights, conf.weights]).tobytes()
        assert kernel.bias.tobytes() == np.concatenate([loc.bias, conf.bias]).tobytes()
        offsets, scores = head_forward([state], [kernel], [a], classes)
        loc_out = conv3x3(state, loc).data
        conf_out = conv3x3(state, conf).data
        want_offsets = loc_out.reshape(a, 4, 5, 7).transpose(2, 3, 0, 1).reshape(-1, 4)
        logits = conf_out.reshape(a, classes + 1, 5, 7).transpose(2, 3, 0, 1).reshape(-1, classes + 1)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert offsets.tobytes() == want_offsets.tobytes()
        assert scores.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_scales_stack_in_order_and_equal_each_scale_alone(self):
        rng = np.random.default_rng(22)
        shapes, anchors, classes = [(6, 8, 8), (6, 4, 4), (5, 1, 1)], [4, 6, 2], 3
        states = [Tensor(rng.normal(size=shape)) for shape in shapes]
        kernels = init_head_params([c for c, _, _ in shapes], anchors, classes, seed=4)
        offsets, scores = head_forward(states, kernels, anchors, classes)
        alone = [head_forward([s], [k], [a], classes) for s, k, a in zip(states, kernels, anchors)]
        assert offsets.tobytes() == np.vstack([o for o, _ in alone]).tobytes()
        assert scores.tobytes() == np.vstack([p for _, p in alone]).tobytes()
        assert len(offsets) == sum(h * w * a for (_, h, w), a in zip(shapes, anchors))
        empty = head_forward([], [], [], classes)
        assert [e.shape for e in empty] == [(0, 4), (0, classes + 1)]

    def test_draws_match_the_former_two_kernel_params(self):
        kernels = init_head_params([32, 64, 16], [4, 6, 4], 20, seed=3)
        for kernel, (loc, conf) in zip(kernels, two_kernel_head_params([32, 64, 16], [4, 6, 4], 20, seed=3)):
            assert kernel.weights.tobytes() == np.concatenate([loc.weights, conf.weights]).tobytes()
            assert kernel.bias.tobytes() == np.concatenate([loc.bias, conf.bias]).tobytes()

    def test_zero_logits_give_uniform_scores(self):
        state = Tensor(np.random.default_rng(0).normal(size=(4, 3, 3)))
        a, classes = 2, 20
        out = (4 + classes + 1) * a
        offsets, scores = head_forward([state], [ConvKernel(np.zeros((out, 4, 3, 3)), np.zeros(out))], [a], classes)
        assert offsets.shape == (9 * a, 4)
        assert scores.shape == (9 * a, classes + 1)
        assert np.allclose(scores, 1.0 / 21.0, atol=1e-15)
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)

    def test_row_order_is_cell_major_then_anchor(self):
        # bias-only loc rows: every row repeats the per-anchor bias pattern
        a = 3
        state = Tensor(np.random.default_rng(1).normal(size=(2, 2, 2)))
        bias = np.arange(4 * a, dtype=float)
        kernel = head_kernel(np.zeros((4 * a, 2, 3, 3)), bias, np.zeros((2 * a, 2, 3, 3)), np.zeros(2 * a))
        offsets, _ = head_forward([state], [kernel], [a], 1)
        for cell in range(4):
            for anchor in range(a):
                row = offsets[cell * a + anchor]
                assert np.array_equal(row, bias[anchor * 4 : anchor * 4 + 4])

    def test_rows_track_cells_row_major(self):
        # loc weights copy the center of input channel 0 into every output
        a, h, w = 2, 3, 4
        data = np.zeros((1, h, w))
        data[0] = np.arange(h * w, dtype=float).reshape(h, w)
        state = Tensor(data)
        weights = np.zeros((4 * a, 1, 3, 3))
        weights[:, 0, 1, 1] = 1.0
        kernel = head_kernel(weights, np.zeros(4 * a), np.zeros((2 * a, 1, 3, 3)), np.zeros(2 * a))
        offsets, _ = head_forward([state], [kernel], [a], 1)
        for y in range(h):
            for x in range(w):
                for anchor in range(a):
                    row = offsets[(y * w + x) * a + anchor]
                    assert np.all(row == data[0, y, x])

    def test_head_params_reject_mismatched_lists_and_no_classes(self):
        with pytest.raises(ValidationError, match="^state_channels and anchors_per_cell lengths differ$"):
            init_head_params([32, 64], [4], 3, seed=0)
        with pytest.raises(ValidationError, match="^num_classes must be positive, got 0$"):
            init_head_params([32], [4], 0, seed=0)

    def test_seeded_params_deterministic(self):
        a = init_head_params([32, 64], [4, 6], 3, seed=9)
        b = init_head_params([32, 64], [4, 6], 3, seed=9)
        c = init_head_params([32, 64], [4, 6], 3, seed=10)
        assert np.array_equal(a[0].weights, b[0].weights)
        assert np.array_equal(a[1].bias, b[1].bias)
        assert not np.array_equal(a[0].weights, c[0].weights)


class TestDecodeBox:
    ANCHOR = BBox(100.0, 120.0, 200.0, 180.0)  # 100 x 60, center (150, 150)

    def test_zero_offsets_return_anchor(self):
        out = decode_box(self.ANCHOR, (0.0, 0.0, 0.0, 0.0), 320)
        assert out.coords() == pytest.approx(self.ANCHOR.coords(), abs=1e-12)

    def test_width_doubles_with_closed_form_offset(self):
        dw = math.log(2.0) / BOX_VARIANCES[2]
        out = decode_box(self.ANCHOR, (0.0, 0.0, dw, 0.0), 320)
        assert out.width == pytest.approx(200.0, abs=1e-9)
        assert out.center[0] == pytest.approx(150.0, abs=1e-9)
        assert out.height == pytest.approx(60.0, abs=1e-12)

    def test_unit_dx_shifts_center_by_variance_times_width(self):
        out = decode_box(self.ANCHOR, (1.0, 0.0, 0.0, 0.0), 320)
        assert out.center[0] == pytest.approx(160.0, abs=1e-9)
        assert out.center[1] == pytest.approx(150.0, abs=1e-9)

    def test_clipped_to_image(self):
        anchor = BBox(-20.0, -10.0, 40.0, 50.0)
        out = decode_box(anchor, (0.0, 0.0, 0.0, 0.0), 320)
        assert out.xmin == 0.0 and out.ymin == 0.0
        big = decode_box(BBox(300.0, 300.0, 340.0, 330.0), (0.0, 0.0, 0.0, 0.0), 320)
        assert big.xmax == 320.0 and big.ymax == 320.0

    def test_rejects_non_finite_offsets(self):
        with pytest.raises(ValidationError):
            decode_box(self.ANCHOR, (math.nan, 0.0, 0.0, 0.0), 320)

    def test_overflow_is_validation_error(self):
        with pytest.raises(ValidationError, match="anchor 0: decoded box overflows"):
            decode_box(self.ANCHOR, (0, 0, 1e4, 0), 320)
        with pytest.raises(ValidationError, match="anchor 0: decoded box overflows"):
            decode_box(self.ANCHOR, (1e308, 0, 0, 0), 320)

    def test_errors_name_the_anchor_index(self):
        anchors = np.array([self.ANCHOR.coords()] * 4)
        offsets = np.zeros((4, 4))
        offsets[2, 3] = 1e4
        offsets[3, 0] = math.inf
        # the bad rows are skipped unless selected
        assert decode_boxes(anchors, offsets, 320, np.array([0, 1])).shape == (2, 4)
        with pytest.raises(ValidationError, match="anchor 2: decoded box overflows"):
            decode_boxes(anchors, offsets, 320, np.array([1, 2]))
        with pytest.raises(ValidationError, match="anchor 3: offsets must be finite"):
            decode_boxes(anchors, offsets, 320)

    def test_encode_decode_round_trip(self):
        vx, vy, vw, vh = BOX_VARIANCES

        def encode(box: BBox, anchor: BBox):
            bcx, bcy = box.center
            acx, acy = anchor.center
            return (
                (bcx - acx) / (vx * anchor.width),
                (bcy - acy) / (vy * anchor.height),
                math.log(box.width / anchor.width) / vw,
                math.log(box.height / anchor.height) / vh,
            )

        rng = np.random.default_rng(12)
        for _ in range(200):
            x0, y0 = rng.uniform(5, 200, size=2)
            bw, bh = rng.uniform(5, 100, size=2)
            box = BBox(x0, y0, min(x0 + bw, 315.0), min(y0 + bh, 315.0))
            ax0, ay0 = rng.uniform(5, 200, size=2)
            aw, ah = rng.uniform(10, 100, size=2)
            anchor = BBox(ax0, ay0, min(ax0 + aw, 315.0), min(ay0 + ah, 315.0))
            out = decode_box(anchor, encode(box, anchor), 320)
            assert out.coords() == pytest.approx(box.coords(), abs=1e-9)


class TestIoU:
    def test_identical_and_disjoint(self):
        a = BBox(0, 0, 2, 2)
        assert iou(a, a) == 1.0
        assert iou(a, BBox(5, 5, 7, 7)) == 0.0

    def test_half_shifted_unit_squares(self):
        a = BBox(0.0, 0.0, 1.0, 1.0)
        b = BBox(0.5, 0.0, 1.5, 1.0)
        assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d1, d2 = random_detections(rng, 2)
            v = iou(d1.box, d2.box)
            assert v == iou(d2.box, d1.box)
            assert 0.0 <= v <= 1.0

    def test_zero_area_union(self):
        a = BBox(1.0, 1.0, 1.0, 1.0)
        assert iou(a, a) == 0.0

    def test_iou_matrix_holds_few_block_sized_arrays(self):
        """The overlaps are computed in place: a block's peak stays under four
        (m, n) float arrays, where a temporary per operation took five."""
        rng = np.random.default_rng(2)
        m, n = 150, 400
        corners = rng.uniform(0.0, 300.0, size=(m + n, 2))
        boxes = np.hstack((corners, corners + rng.uniform(0.0, 60.0, size=(m + n, 2))))
        boxes[:5, 2:] = boxes[:5, :2]  # points, so some unions are empty
        boxes[m : m + 5] = boxes[:5]
        tracemalloc.start()
        try:
            got = iou_matrix(boxes[:m], boxes[m:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (m, n) and not got[:5, :5].any() and not np.isnan(got).any()
        assert peak < 4 * m * n * 8


def reference_nms(dets, iou_threshold, per_class):
    """Independent restatement of the greedy rule with explicit remaining sets."""
    remaining = list(range(len(dets)))
    kept = []
    while remaining:
        best = min(
            remaining,
            key=lambda i: (-dets[i].score, dets[i].box.xmin, dets[i].box.ymin, i),
        )
        kept.append(dets[best])
        remaining.remove(best)
        survivors = []
        for i in remaining:
            same = (not per_class) or dets[i].class_id == dets[best].class_id
            if same and iou(dets[best].box, dets[i].box) > iou_threshold:
                continue
            survivors.append(i)
        remaining = survivors
    return kept


class TestNms:
    def test_single_detection_kept(self):
        d = det(0, 0, 10, 10, 0.5)
        assert nms_greedy([d]) == [d]

    def test_identical_boxes_keep_highest(self):
        a = det(0, 0, 10, 10, 0.9)
        b = det(0, 0, 10, 10, 0.8)
        assert nms_greedy([b, a]) == [a]

    def test_classes_do_not_suppress_each_other(self):
        a = det(0, 0, 10, 10, 0.9, class_id=0)
        b = det(0, 0, 10, 10, 0.8, class_id=1)
        assert nms_greedy([a, b]) == [a, b]
        assert nms_greedy([a, b], per_class=False) == [a]

    def test_exact_threshold_is_not_suppressed(self):
        a = det(0.0, 0.0, 1.0, 1.0, 0.9)
        b = det(0.5, 0.0, 1.5, 1.0, 0.8)  # IoU exactly 1/3
        kept = nms_greedy([a, b], iou_threshold=1.0 / 3.0)
        assert kept == [a, b]

    def test_score_tie_breaks_by_position(self):
        a = det(5.0, 0.0, 6.0, 1.0, 0.5)
        b = det(1.0, 0.0, 2.0, 1.0, 0.5)
        c = det(1.0, 3.0, 2.0, 4.0, 0.5)
        kept = nms_greedy([a, b, c], iou_threshold=0.5)
        assert kept == [b, c, a]

    def test_matches_reference_on_random_trials(self):
        rng = np.random.default_rng(77)
        for trial in range(100):
            n = int(rng.integers(0, 13))
            dets = random_detections(rng, n, span=30.0)
            thr = float(rng.uniform(0.1, 0.9))
            per_class = bool(rng.integers(2))
            got = nms_greedy(dets, thr, per_class)
            want = reference_nms(dets, thr, per_class)
            assert got == want, f"trial {trial} diverged"

    def test_kept_invariants(self):
        rng = np.random.default_rng(13)
        dets = random_detections(rng, 40, span=40.0)
        kept = nms_greedy(dets, 0.4)
        scores = [d.score for d in kept]
        assert scores == sorted(scores, reverse=True)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert iou(a.box, b.box) <= 0.4

    def test_memory_stays_flat_for_many_boxes(self):
        n = 20_000
        # 100 disjoint groups of 200 identical boxes: one survivor per group
        x = np.repeat(np.arange(100) * 10.0, 200)
        boxes = np.stack([x, x, x + 5.0, x + 5.0], axis=1)
        for classes in (None, np.zeros(n, dtype=np.int64)):
            tracemalloc.start()
            try:
                kept = nms_rows(boxes, 0.5, classes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(kept, np.arange(0, n, 200))
            # a full 20,000 x 20,000 overlap matrix would take 3.2 GB
            assert peak < 4 * 2**20


class TestRefineBoxes:
    def test_singleton_unchanged(self):
        d = det(3.0, 4.0, 9.0, 11.0, 0.7)
        out = refine_boxes([d], [d])
        assert out == [d]

    def test_two_box_hand_case(self):
        a = det(0.0, 0.0, 10.0, 10.0, 0.8)
        b = det(1.0, 1.0, 11.0, 11.0, 0.4)
        assert iou(a.box, b.box) == pytest.approx(81.0 / 119.0, abs=1e-12)
        out = refine_boxes([a], [a, b])
        coords = out[0].box.coords()
        assert coords == pytest.approx((1 / 3, 1 / 3, 31 / 3, 31 / 3), abs=1e-12)
        assert out[0].score == 0.8 and out[0].class_id == 0

    def test_other_classes_excluded(self):
        a = det(0.0, 0.0, 10.0, 10.0, 0.8, class_id=0)
        b = det(1.0, 1.0, 11.0, 11.0, 0.4, class_id=1)
        out = refine_boxes([a], [a, b])
        assert out == [a]

    def test_uniform_scores_reduce_to_centroid(self):
        a = det(0.0, 0.0, 10.0, 10.0, 0.5)
        b = det(2.0, 0.0, 10.0, 10.0, 0.5)
        c = det(0.0, 2.0, 10.0, 12.0, 0.5)
        out = refine_boxes([a], [a, b, c])
        expected = np.mean(
            [np.array(d.box.coords()) for d in (a, b, c)], axis=0
        )
        assert out[0].box.coords() == pytest.approx(tuple(expected), abs=1e-12)

    def test_kept_box_outside_candidates_still_counts_once(self):
        a = det(0.0, 0.0, 10.0, 10.0, 0.8)
        twin = det(0.0, 0.0, 10.0, 10.0, 0.8)
        out = refine_boxes([a], [twin])
        # both contribute, but they coincide so coordinates are unchanged
        assert out[0].box.coords() == pytest.approx(a.box.coords(), abs=1e-12)

    def test_counts_scores_classes_preserved(self):
        rng = np.random.default_rng(31)
        candidates = random_detections(rng, 30, span=25.0)
        kept = nms_greedy(candidates, 0.45)
        out = refine_boxes(kept, candidates)
        assert len(out) == len(kept)
        assert [d.score for d in out] == [d.score for d in kept]
        assert [d.class_id for d in out] == [d.class_id for d in kept]

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            candidates = random_detections(rng, 15, span=20.0)
            kept = nms_greedy(candidates, 0.5)
            refined = refine_boxes(kept, candidates)
            for b, r in zip(kept, refined):
                hood = [b] + [
                    c
                    for c in candidates
                    if c is not b and c.class_id == b.class_id and iou(c.box, b.box) > 0.6
                ]
                for axis in range(4):
                    vals = [c.box.coords()[axis] for c in hood]
                    assert min(vals) - 1e-12 <= r.box.coords()[axis] <= max(vals) + 1e-12

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValidationError):
            refine_boxes([det(0, 0, 1, 1, 0.5)], [])

    def test_non_positive_total_weight_keeps_the_box(self):
        a = det(0.0, 0.0, 10.0, 10.0, -1.0)
        b = det(1.0, 1.0, 11.0, 11.0, 0.5)
        assert iou(a.box, b.box) > 0.6
        # weights -1.0 + 0.5 sum below zero: no average is taken
        out = refine_boxes([a], [a, b], 0.6)
        assert out == [a] and out[0] is a


class TestPostprocessCut:
    # five identical anchors 40 px wide; offsets shift each decoded box right by 4*dx
    ANCHORS = np.array([(100.0, 100.0, 140.0, 140.0)] * 5)

    @staticmethod
    def run(offsets, foreground, pre_nms_top_k):
        scores = np.column_stack([1.0 - np.array(foreground), foreground])
        config = RunConfig(num_classes=1, pre_nms_top_k=pre_nms_top_k, nms_iou_threshold=1.0)
        return postprocess(TestPostprocessCut.ANCHORS, np.array(offsets), scores, config, False)

    def test_ties_at_the_cut_are_broken_by_decoded_xmin(self):
        # rows 1-4 tie at 0.5; the cut keeps two of them, and decoded xmin
        # (116, 112, 108, 104) picks rows 4 and 3, the last ones by index
        offsets = [(5.0, 0, 0, 0), (4.0, 0, 0, 0), (3.0, 0, 0, 0), (2.0, 0, 0, 0), (1.0, 0, 0, 0)]
        got = self.run(offsets, [0.9, 0.5, 0.5, 0.5, 0.5], pre_nms_top_k=3)
        assert [(r.score, r.box.xmin) for r in got] == [(0.9, 120.0), (0.5, 104.0), (0.5, 108.0)]

    def test_non_finite_offsets_below_the_cut_still_raise(self):
        offsets = np.zeros((5, 4))
        offsets[4, 2] = math.nan
        with pytest.raises(ValidationError, match="anchor 4: offsets must be finite"):
            self.run(offsets, [0.9, 0.8, 0.7, 0.6, 0.5], pre_nms_top_k=1)
        # below score_floor nothing is read
        assert len(self.run(offsets, [0.9, 0.8, 0.7, 0.6, 0.0], pre_nms_top_k=1)) == 1


# Property tests: the array code against scalar restatements of each step.

coord = st.one_of(st.integers(-4, 12).map(float), st.floats(-50.0, 400.0, width=64))
side = st.one_of(st.just(0.0), st.integers(1, 6).map(float), st.floats(0.0, 120.0, width=64))
score = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1.0, width=64))


@st.composite
def boxes(draw):
    x0, y0 = draw(coord), draw(coord)
    return BBox(x0, y0, x0 + draw(side), y0 + draw(side))


@st.composite
def cluster(draw, center=None):
    """Jittered copies of one box: many overlaps, with inexact float arithmetic."""
    if center is None:
        x0, y0 = draw(st.floats(0.0, 100.0)), draw(st.floats(0.0, 100.0))
        center = BBox(x0, y0, x0 + draw(st.floats(5.0, 60.0)), y0 + draw(st.floats(5.0, 60.0)))
    jitter = st.floats(-2.0, 2.0, width=64)
    out = []
    for _ in range(draw(st.integers(1, 16))):
        x0, y0 = center.xmin + draw(jitter), center.ymin + draw(jitter)
        out.append(BBox(x0, y0, x0 + max(center.width + draw(jitter), 0.0),
                        y0 + max(center.height + draw(jitter), 0.0)))
    return out


@st.composite
def detections(draw, max_size=14):
    """Sparse or clustered lists with score ties, zero-area boxes and
    equal-but-distinct duplicates."""
    if draw(st.booleans()):
        box_list = draw(st.lists(boxes(), max_size=max_size))
    else:
        box_list = [b for c in draw(st.lists(cluster(), min_size=1, max_size=3)) for b in c]
    classes = st.integers(0, 2) if len(box_list) <= max_size else st.sampled_from([0, 0, 0, 1])
    dets = [Detection(b, draw(score), draw(classes)) for b in box_list]
    if dets:
        extra = draw(st.lists(st.sampled_from(dets), max_size=4))
        dets = draw(st.permutations(dets + [Detection(d.box, d.score, d.class_id) for d in extra]))
    return dets


def bits(rows) -> bytes:
    return np.array(rows, dtype=np.float64).tobytes()


def scalar_decode(anchor: BBox, offsets, input_size):
    dx, dy, dw, dh = offsets
    vx, vy, vw, vh = BOX_VARIANCES
    acx, acy = anchor.center
    aw, ah = anchor.width, anchor.height
    cx = acx + dx * vx * aw
    cy = acy + dy * vy * ah
    w = aw * math.exp(dw * vw)
    h = ah * math.exp(dh * vh)

    def clip(v):
        return min(max(v, 0.0), float(input_size))

    return clip(cx - w / 2), clip(cy - h / 2), clip(cx + w / 2), clip(cy + h / 2)


def scalar_refine(kept, candidates, iou_threshold):
    out = []
    for b in kept:
        total = np.array(b.box.coords()) * b.score
        weight = b.score
        neighbors = 0
        for c in candidates:
            if c is b or c.class_id != b.class_id:
                continue
            if iou(c.box, b.box) > iou_threshold:
                total += np.array(c.box.coords()) * c.score
                weight += c.score
                neighbors += 1
        out.append(b.box.coords() if neighbors == 0 or weight <= 0.0 else tuple(total / weight))
    return out


def scalar_anchors(mode, pyramid_sizes, input_size):
    out = []
    fractions = DEFAULT_SCALE_FRACTIONS
    ratios = anchor_ratios(mode, len(pyramid_sizes))
    for scale, fm in enumerate(pyramid_sizes):
        s = fractions[scale]
        s_next = fractions[scale + 1] if scale + 1 < len(pyramid_sizes) else 1.0
        shapes = [(s * input_size * math.sqrt(r), s * input_size / math.sqrt(r)) for r in ratios[scale]]
        shapes.append((math.sqrt(s * s_next) * input_size,) * 2)
        for y in range(fm):
            cy = (y + 0.5) / fm * input_size
            for x in range(fm):
                cx = (x + 0.5) / fm * input_size
                for w, h in shapes:
                    out.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return out


class TestArrayProperties:
    @settings(deadline=None)
    @given(
        dets=detections(),
        thr=st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 0.5]), st.floats(0.0, 1.0)),
        per_class=st.booleans(),
    )
    def test_nms_matches_reference_idempotent_subset(self, dets, thr, per_class):
        kept = nms_greedy(dets, thr, per_class)
        want = reference_nms(dets, thr, per_class)
        assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))
        positions = [next(i for i, d in enumerate(dets) if d is k) for k in kept]
        assert len(set(positions)) == len(positions)
        again = nms_greedy(kept, thr, per_class)
        assert len(again) == len(kept) and all(a is b for a, b in zip(again, kept))

    @settings(deadline=None)
    @given(dets=detections(), data=st.data(), thr=st.floats(0.0, 1.0) | st.floats(0.0, 0.3))
    def test_refine_matches_scalar_loop_bit_for_bit(self, dets, data, thr):
        assume(dets)
        kept = data.draw(st.lists(st.sampled_from(dets), max_size=5))
        # a kept box outside the pool still counts its own term once
        kept += data.draw(st.lists(
            st.builds(Detection, box=boxes(), score=score, class_id=st.integers(0, 2)), max_size=2
        ))
        got = [d.box.coords() for d in refine_boxes(kept, dets, thr)]
        assert bits(got) == bits(scalar_refine(kept, dets, thr))

    @settings(deadline=None)
    @given(
        anchors=st.lists(boxes(), min_size=1, max_size=20),
        data=st.data(),
        input_size=st.integers(1, 400),
    )
    def test_decode_matches_scalar_formula_bit_for_bit(self, anchors, data, input_size):
        offset = st.one_of(st.integers(-3, 3).map(float), st.floats(-6.0, 6.0, width=64))
        offsets = data.draw(st.lists(st.tuples(offset, offset, offset, offset),
                                     min_size=len(anchors), max_size=len(anchors)))
        got = decode_boxes(np.array([a.coords() for a in anchors]), np.array(offsets), input_size)
        want = [scalar_decode(a, o, input_size) for a, o in zip(anchors, offsets)]
        assert bits(got) == bits(want)

    @settings(deadline=None)
    @given(a=st.lists(boxes(), min_size=1, max_size=4), data=st.data())
    def test_iou_matrix_matches_iou(self, a, data):
        rows = data.draw(st.lists(boxes(), max_size=5)) + data.draw(cluster(a[0]))
        got = iou_matrix(np.array([x.coords() for x in a]), np.array([b.coords() for b in rows]))
        assert got.shape == (len(a), len(rows))
        for x, row in zip(a, got):
            assert bits(row) == bits([iou(x, b) for b in rows])

    @settings(deadline=None)
    @given(
        dets=detections(),
        data=st.data(),
        block=st.integers(1, 48),
        thr=st.one_of(st.sampled_from([0.0, 1.0 / 3.0, 0.5]), st.floats(0.0, 1.0)),
        per_class=st.booleans(),
    )
    def test_small_iou_blocks_change_nothing(self, dets, data, block, thr, per_class):
        """Blocks of a few overlaps each: NMS (nms_greedy over nms_rows) and
        refinement still match the scalar rules bit for bit."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detect, "IOU_BLOCK_ELEMENTS", block)
            kept = nms_greedy(dets, thr, per_class)
            want = reference_nms(dets, thr, per_class)
            assert len(kept) == len(want) and all(a is b for a, b in zip(kept, want))
            if dets:
                pool = data.draw(st.lists(st.sampled_from(dets), max_size=6))
                got = [d.box.coords() for d in refine_boxes(pool, dets, thr)]
                assert bits(got) == bits(scalar_refine(pool, dets, thr))

    @settings(deadline=None)
    @given(
        mode=st.sampled_from(["A", "B"]),
        sizes=st.lists(st.integers(0, 6), min_size=1, max_size=6).map(tuple),
        input_size=st.integers(1, 512),
    )
    def test_anchor_array_matches_scalar_loop(self, mode, sizes, input_size):
        arr = anchor_array(mode, sizes, input_size)
        want = scalar_anchors(mode, sizes, input_size)
        assert arr.shape == (len(want), 4)
        assert bits(arr) == bits(want)
        assert [b.coords() for b in generate_anchors(mode, sizes, input_size)] == [tuple(r) for r in want]

    @settings(deadline=None)
    @given(
        anchors=st.lists(boxes(), min_size=1, max_size=25),
        data=st.data(),
        num_classes=st.integers(1, 3),
        pre_nms_top_k=st.integers(1, 8),
        keep_top_k=st.integers(1, 8),
        nms_thr=st.floats(0.0, 1.0),
        refine_thr=st.floats(0.0, 1.0),
        refine=st.booleans(),
    )
    def test_postprocess_matches_scalar_pipeline(
        self, anchors, data, num_classes, pre_nms_top_k, keep_top_k, nms_thr, refine_thr, refine
    ):
        n = len(anchors)
        offset = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, width=64))
        offsets = np.array(data.draw(st.lists(st.tuples(*[offset] * 4), min_size=n, max_size=n)))
        prob = st.one_of(st.sampled_from([0.0, 0.01, 0.2, 0.5]), st.floats(0.0, 1.0, width=64))
        scores = np.array(data.draw(
            st.lists(st.tuples(*[prob] * (num_classes + 1)), min_size=n, max_size=n)
        ))
        config = RunConfig(
            num_classes=num_classes, pre_nms_top_k=pre_nms_top_k, keep_top_k=keep_top_k,
            nms_iou_threshold=nms_thr, refine_iou_threshold=refine_thr,
        )
        got = postprocess(np.array([a.coords() for a in anchors]), offsets, scores, config, refine)

        kept, pool = [], []
        for cls in range(num_classes):
            col = scores[:, cls + 1]
            candidates = [
                Detection(BBox(*scalar_decode(anchors[i], offsets[i].tolist(), 320)), float(col[i]), cls)
                for i in np.nonzero(col > config.score_floor)[0]
            ]
            candidates.sort(key=lambda d: (-d.score, d.box.xmin, d.box.ymin))
            candidates = candidates[:pre_nms_top_k]
            pool.extend(candidates)
            kept.extend(reference_nms(candidates, nms_thr, True))
        kept.sort(key=lambda d: (-d.score, d.class_id, d.box.xmin, d.box.ymin))
        kept = kept[:keep_top_k]
        coords = scalar_refine(kept, pool, refine_thr) if refine else [d.box.coords() for d in kept]

        assert [(r.score, r.class_id) for r in got] == [(d.score, d.class_id) for d in kept]
        assert bits([r.box.coords() for r in got]) == bits(coords)
