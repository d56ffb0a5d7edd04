import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import weavenet
from weavenet import formats, pipeline, tensor_core
from weavenet.bench import RATIO_COLUMNS, TIMING_COLUMNS
from weavenet.cli import main
from weavenet.config import (
    MAX_HEAD_CHANNELS,
    RunConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from weavenet.detect import BOX_KEYS, BBox, Detection
from weavenet.errors import ValidationError
from weavenet.evaluation import DetectionRecord, GroundTruth, stratify_by_area
from weavenet.fixtures import write_fixtures
from weavenet.formats import (
    DETECTION_KEYS,
    GROUND_TRUTH_KEYS,
    format_table,
    read_detection_table,
    read_detections,
    read_ground_truth,
    read_ground_truth_table,
    write_csv,
    write_detections,
    write_ground_truth,
)
from weavenet.pipeline import run_demo
from weavenet.weave import MAX_STATE_CHANNELS, MAX_STATE_ELEMENTS, WeaveConfig

TINY = {
    "input_size": 64,
    "pyramid_sizes": [8, 4, 2, 1],
    "raw_channels": [6, 6, 6, 6],
    "woven_scales": [0, 1, 2],
    "k": 4,
    "iterations": 2,
    "num_classes": 2,
    "seed": 5,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.input_size == 320
        assert cfg.weave_config().pyramid_sizes == (40, 20, 10, 5, 3, 1)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValidationError, match="unknown config keys.*budget"):
            config_from_dict({"budget": 3})

    def test_rejects_bad_thresholds_and_modes(self):
        with pytest.raises(ValidationError):
            RunConfig(nms_iou_threshold=1.5)
        with pytest.raises(ValidationError):
            RunConfig(score_floor=-0.1)
        with pytest.raises(ValidationError):
            RunConfig(anchor_mode="C")
        with pytest.raises(ValidationError):
            RunConfig(num_classes=0)

    def test_corrupt_block_must_target_message_columns(self):
        with pytest.raises(ValidationError):
            RunConfig(corrupt_block=(1, 1))
        with pytest.raises(ValidationError):
            RunConfig(corrupt_block=(5, 2))
        assert RunConfig(corrupt_block=(1, 2)).corrupt_block == (1, 2)

    def test_corrupt_block_needs_two_entries(self):
        with pytest.raises(ValidationError, match=r"^corrupt_block must be \[scale, iteration\], got \(1,\)$"):
            RunConfig(corrupt_block=(1,))

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"anchor_mode": "C"}, r"anchor_mode must be one of \('A', 'B'\), got 'C'"),
            ({"anchor_mode": "C", "num_classes": 0, "pre_nms_top_k": 0}, r"anchor_mode must be one of"),
            ({"anchor_mode": "C", "score_floor": 2.0}, r"score_floor must be in \[0, 1\], got 2.0"),
        ],
        ids=["mode", "mode-first", "floor-first"],
    )
    def test_unknown_anchor_mode_is_reported_in_check_order(self, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            RunConfig(**kwargs)

    def test_load_config_round_trip(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.pyramid_sizes == (8, 4, 2, 1)
        assert cfg.k == 4 and cfg.seed == 5

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_config(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError, match="object"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"iterations": 1.5}, "iterations must be an integer, got 1.5"),
            ({"iterations": 1.0}, "iterations must be an integer"),
            ({"k": True}, "k must be an integer, got true"),
            ({"seed": "3"}, "seed must be an integer"),
            ({"keep_top_k": None}, "keep_top_k must be an integer, got null"),
            ({"nms_iou_threshold": True}, "nms_iou_threshold must be a number, got true"),
            ({"score_floor": "0.1"}, "score_floor must be a number"),
            ({"enable_top_down": 1}, "enable_top_down must be true or false, got 1"),
            ({"pyramid_sizes": [40, 20.0, 10, 5, 3, 1]}, "pyramid_sizes must be a list of integers"),
            ({"corrupt_block": [1, True]}, "corrupt_block must be a list of integers"),
        ],
    )
    def test_rejects_mistyped_values(self, raw, fragment):
        with pytest.raises(ValidationError, match=fragment):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"iterations": 1.5}, "iterations must be an integer, got 1.5"),
            ({"k": True}, "k must be an integer, got true"),
            ({"score_floor": "0.1"}, "score_floor must be a number"),
            ({"enable_bottom_up": 0}, "enable_bottom_up must be true or false"),
            ({"raw_channels": (32, 32, 32, 32, 32, 32.0)}, "raw_channels must be a list of integers"),
            ({"pyramid_sizes": "abc"}, "pyramid_sizes must be a list of integers"),
            ({"seed": np.int64(3)}, "seed must be an integer"),
            ({"raw_channels": None}, "raw_channels must be a list of integers, got null"),
            ({"enable_top_down": 10**5000}, "enable_top_down must be true or false, got an integer of 5001 digits"),
        ],
    )
    def test_direct_construction_checks_types(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            RunConfig(**kwargs)

    def test_direct_construction_turns_lists_into_tuples(self):
        cfg = RunConfig(raw_channels=[8] * 6, corrupt_block=[1, 2])
        assert cfg.raw_channels == (8,) * 6 and cfg.corrupt_block == (1, 2)
        assert cfg == config_from_dict({"raw_channels": [8] * 6, "corrupt_block": [1, 2]})

    @settings(deadline=None, max_examples=40)
    @given(
        key=st.sampled_from(["iterations", "k", "seed", "keep_top_k", "score_floor",
                             "enable_top_down", "raw_channels", "woven_scales"]),
        value=st.one_of(st.booleans(), st.floats(allow_nan=True), st.text(max_size=3),
                        st.none(), st.lists(st.floats(), max_size=3)),
    )
    def test_run_demo_never_ends_in_a_bare_type_error(self, key, value):
        try:
            config = replace(RunConfig(iterations=0), **{key: value})
        except ValidationError:
            return
        run_demo(config)

    @settings(deadline=None, max_examples=60)
    @given(
        key=st.sampled_from([f.name for f in fields(RunConfig) if f.type == "int" or f.type.startswith("tuple")]),
        data=st.data(),
    )
    def test_any_integer_in_an_integer_key_is_taken_or_rejected(self, key, data):
        """Integers up to +-10**4200 in one integer or list-of-integers key:
        the config is rejected or demo runs, never a traceback. The small
        pyramid and wide k keep every config that is accepted cheap to run."""
        integer = st.one_of(
            st.integers(-(10**4200), 10**4200), st.sampled_from([2**63, 2**1024, 10**4200, -(10**4200)])
        )
        is_list = {f.name: f.type for f in fields(RunConfig)}[key].startswith("tuple")
        value = data.draw(st.lists(integer, max_size=7) if is_list else integer)
        base = RunConfig(iterations=0, k=1024, woven_scales=(0, 1, 2), pyramid_sizes=(4, 2, 1, 1, 1, 1))
        try:
            run_demo(replace(base, **{key: value}))
        except ValidationError:
            pass

    def test_state_width_cap_rejected_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="above the cap of 4096"):
                RunConfig(k=10**12, iterations=10**12)
            with pytest.raises(ValidationError, match="above the cap"):
                config_from_dict({"raw_channels": [10**15] * 6, "iterations": 0})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_state_width_at_cap_accepted(self):
        # scale 1 receives both directions: 32 + 16*2*T
        assert RunConfig(iterations=(MAX_STATE_CHANNELS - 32) // 32).weave_config()
        with pytest.raises(ValidationError, match="cap"):
            RunConfig(iterations=(MAX_STATE_CHANNELS - 32) // 32 + 1)

    def test_state_size_and_head_width_caps_rejected_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"state tensor .* above the cap of {MAX_STATE_ELEMENTS}"):
                RunConfig(num_classes=10**9, pyramid_sizes=(10**6, 5 * 10**5, 250000, 125000, 3, 1))
            with pytest.raises(ValidationError, match=f"head width .* above the cap of {MAX_HEAD_CHANNELS}"):
                RunConfig(num_classes=10**9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_state_size_and_head_width_at_cap_accepted(self):
        # one channel over a 4096 x 4096 plane is exactly MAX_STATE_ELEMENTS
        assert WeaveConfig(woven_scales=(0,), raw_channels=(1,), pyramid_sizes=(4096,))
        with pytest.raises(ValidationError, match="state tensor"):
            WeaveConfig(woven_scales=(0,), raw_channels=(1,), pyramid_sizes=(4097,))
        # anchor mode B has 6 anchors per cell at every scale
        assert RunConfig(anchor_mode="B", num_classes=MAX_HEAD_CHANNELS // 6 - 1)
        with pytest.raises(ValidationError, match="head width"):
            RunConfig(anchor_mode="B", num_classes=MAX_HEAD_CHANNELS // 6)

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"pyramid_sizes": [10**6, 5 * 10**5, 250000, 125000, 3, 1]}, "state tensor"),
            ({"num_classes": 10**9}, "head width"),
            # each used to end in a traceback: formatting the width, building range(0, 10**30 + 1), float(2**1024)
            ({"k": 10**4000, "iterations": 10**4000}, "state width raw + k*d*T is an integer of 8001 digits"),
            ({"woven_scales": [0, 10**30]}, "woven_scales must be consecutive indices, got (0, 10000"),
            ({"input_size": 2**1024}, "input_size must be a finite number"),
            # each used to warn from iou_matrix before its error line
            ({"input_size": 10**300, "iterations": 0}, "input_size too large"),
            ({"input_size": 2**1023}, "input_size too large"),
        ],
    )
    def test_oversized_config_is_a_one_line_error(self, tmp_path, capsys, raw, fragment):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        code = main(["demo", "--config", str(path), "--out", str(tmp_path / "dets.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and fragment in err and err.count("\n") == 1
        assert not (tmp_path / "dets.jsonl").exists()

    def test_input_size_bound_is_the_full_image_box(self):
        # the largest float s with 2 * s * s finite, and the next one
        below, above = 9.480751908109176e153, 9.480751908109177e153
        assert math.nextafter(below, math.inf) == above
        assert RunConfig(input_size=int(below)).input_size == int(below)
        assert BBox(0.0, 0.0, below, below).area == below * below
        with pytest.raises(ValidationError, match="^input_size too large: "):
            RunConfig(input_size=int(above))
        with pytest.raises(ValidationError, match="^box too large: "):
            BBox(0.0, 0.0, above, above)

    def test_input_size_must_be_positive(self):
        with pytest.raises(ValidationError, match="^input_size must be positive, got 0$"):
            RunConfig(input_size=0)

    def test_integers_accepted_for_float_fields(self):
        assert config_from_dict({"score_floor": 0, "nms_iou_threshold": 1}).nms_iou_threshold == 1

    def test_apply_overrides(self):
        cfg = RunConfig()
        out = apply_overrides(cfg, seed=9, anchors="B", top_down_only=True)
        assert out.seed == 9 and out.anchor_mode == "B"
        assert out.enable_top_down and not out.enable_bottom_up
        with pytest.raises(ValidationError):
            apply_overrides(cfg, top_down_only=True, bottom_up_only=True)


READERS = {
    "detections": (read_detections, read_detection_table),
    "ground truth": (read_ground_truth, read_ground_truth_table),
}
# values next to what each field's check accepts
EDGE_VALUES = {
    "image_id": ["", "a"],
    "class_id": [-1, 0, 2**64, True, 1.0],
    "score": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1, True],
    "ignored": [True, False, 0, None],
    **dict.fromkeys(BOX_KEYS, [math.nan, math.inf, -0.0, 1e308, 7, False]),
}
# corners the box checks reject or only just accept
ODD_BOXES = [
    {"xmin": 1.5, "xmax": 1.5}, {"ymin": 2.0, "ymax": 1.0}, {"xmin": -1e308, "xmax": 1e308},
    {"xmin": 0.0, "ymin": 0.0, "xmax": 1e154, "ymax": 1e154},
    {"xmin": 0.0, "ymin": 0.0, "xmax": 0.7e154, "ymax": 0.7e154}, {"ymin": 0.0, "ymax": 5e-324},
]


def assert_readers_agree(path: str, kind: str) -> None:
    """The table reader fails with the record reader's message, or its table
    holds the records' fields bit for bit."""
    read, read_table = READERS[kind]
    try:
        records = read(path)
    except ValidationError as err:
        with pytest.raises(ValidationError) as from_table:
            read_table(path)
        assert str(from_table.value) == str(err)
        return
    table = read_table(path)
    assert table.image_id == [r.image_id for r in records]
    assert [(type(c), c) for c in table.class_id] == [(int, r.class_id) for r in records]
    assert table.boxes.dtype == np.float64 and table.boxes.shape == (len(records), 4)
    assert [[c.hex() for c in row] for row in table.boxes.tolist()] == [
        [c.hex() for c in r.box.coords()] for r in records
    ]
    if kind == "detections":
        assert [s.hex() for s in table.score.tolist()] == [r.score.hex() for r in records]
    else:
        assert table.ignored.tolist() == [r.ignored for r in records]


def dict_writer_bytes(records: list, keys: tuple[str, ...]) -> bytes:
    """The former writer, the oracle of the format-string writers: one dict
    per record in key order, `ignored` only when set, through json.dumps."""
    lines = []
    for r in records:
        obj = {key: getattr(r.box if key in BOX_KEYS else r, key) for key in keys}
        if getattr(r, "ignored", False):
            obj["ignored"] = True
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines).encode("utf-8")


# a valid line of each kind, for the reader cases that change one line
VALID_LINES = {
    "detections": '{"image_id": "a", "class_id": 1, "score": 0.5, "xmin": 0.5, "ymin": 0.0, "xmax": 2.0, "ymax": 3.0}',
    "ground truth": '{"image_id": "a", "class_id": 1, "xmin": 0.5, "ymin": 0.0, "xmax": 2.0, "ymax": 3.0}',
}
# each maps a valid line (without its newline) to the text that replaces it
ODD_LINES = {
    "leading spaces": lambda v: "  " + v,
    "leading tab": lambda v: "\t" + v,
    "trailing JSON whitespace": lambda v: v + " \t ",
    "trailing CR": lambda v: v + "\r",
    "CR inside the object": lambda v: v.replace(", ", ",\r", 1),
    "BOM": lambda v: "\ufeff" + v,
    "form feed only": lambda v: "\x0c",
    "trailing form feed": lambda v: v + "\x0c",
    "raw U+2028 in a string": lambda v: v.replace('"a"', '"a\u2028b"'),
    "raw U+2028 after the object": lambda v: v + "\u2028",
    "two objects": lambda v: v + v,
    "two objects with a space": lambda v: v + " " + v,
    "NaN": lambda v: v.replace("0.5", "NaN", 1),
    "Infinity": lambda v: v.replace("3.0", "Infinity"),
    "-Infinity": lambda v: v.replace("0.0", "-Infinity"),
    "duplicate key, the last valid": lambda v: v.replace('"class_id": 1', '"class_id": -1, "class_id": 1'),
    "duplicate key, the last invalid": lambda v: v.replace('"class_id": 1', '"class_id": 1, "class_id": -1'),
    "duplicate image_id": lambda v: v.replace('"image_id": "a"', '"image_id": "a", "image_id": "b"'),
}


class TestFormats:
    def test_detections_round_trip(self, tmp_path):
        path = str(tmp_path / "dets.jsonl")
        records = [
            DetectionRecord("img0", BBox(1.5, 2.5, 3.5, 4.5), 0.25, 0),
            DetectionRecord("img1", BBox(0.0, 0.0, 10.0, 20.0), 1.0, 3),
        ]
        write_detections(path, records)
        assert read_detections(path) == records
        with open(path, "rb") as fh:
            raw = fh.read()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_ground_truth_round_trip(self, tmp_path):
        path = str(tmp_path / "gt.jsonl")
        records = [GroundTruth("img0", BBox(0, 0, 5, 5), 1)]
        write_ground_truth(path, records)
        assert read_ground_truth(path) == records

    # each example overwrites both files, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_records_round_trip_bit_for_bit(self, tmp_path, data):
        # refinement can leave a coordinate one ulp past the image edge
        value = st.one_of(
            st.sampled_from([320.00000000000006, 0.0, -0.0, 1.0 / 3.0, 5e-324, -1e150]),
            st.floats(-1e150, 1e150),
        )

        @st.composite
        def box(draw):
            x = sorted((draw(value), draw(value)))
            y = sorted((draw(value), draw(value)))
            assume(x[0] != x[1] and y[0] != y[1] and (x[1] - x[0]) * (y[1] - y[0]) > 0.0)
            return BBox(x[0], y[0], x[1], y[1])

        image = st.text(min_size=1, max_size=6)
        cls = st.integers(0, 10**20)
        dets = data.draw(st.lists(
            st.builds(DetectionRecord, image, box(), st.floats(allow_nan=False, allow_infinity=False), cls),
            max_size=5,
        ))
        gts = data.draw(st.lists(st.builds(GroundTruth, image, box(), cls, st.booleans()), max_size=5))

        def key(r):
            extra = (r.score.hex(),) if isinstance(r, DetectionRecord) else (r.ignored,)
            return (r.image_id, r.class_id, *extra, *(c.hex() for c in r.box.coords()))

        det_path, gt_path = str(tmp_path / "dets.jsonl"), str(tmp_path / "gt.jsonl")
        write_detections(det_path, dets)
        write_ground_truth(gt_path, gts)
        assert [key(r) for r in read_detections(det_path)] == [key(r) for r in dets]
        assert [key(r) for r in read_ground_truth(gt_path)] == [key(r) for r in gts]

    # each example overwrites both files, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_writers_match_the_dict_writer(self, tmp_path, data):
        value = st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, 1e150, -1e150, 320.00000000000006, 1.0 / 3.0]),
            st.floats(-1e150, 1e150),
        )

        @st.composite
        def box(draw):
            x = sorted((draw(value), draw(value)))
            y = sorted((draw(value), draw(value)))
            assume((x[1] - x[0]) * (y[1] - y[0]) > 0.0)
            return BBox(x[0], y[0], x[1], y[1])

        image = st.text(
            st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600'), st.characters()),
            min_size=1, max_size=8,
        )
        cls = st.integers(0, 10**20)
        score = st.one_of(value, st.floats(allow_nan=False, allow_infinity=False))
        dets = data.draw(st.lists(st.builds(DetectionRecord, image, box(), score, cls), max_size=6))
        gts = data.draw(st.lists(st.builds(GroundTruth, image, box(), cls, st.booleans()), max_size=6))
        det_path, gt_path = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
        write_detections(str(det_path), dets)
        write_ground_truth(str(gt_path), gts)
        assert det_path.read_bytes() == dict_writer_bytes(dets, DETECTION_KEYS)
        assert gt_path.read_bytes() == dict_writer_bytes(gts, GROUND_TRUTH_KEYS)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("{not json", "invalid JSON"),
            ('{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 1}', "missing keys"),
            (
                '{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1, "zz": 1}',
                "unexpected keys",
            ),
            (
                '{"image_id": "a", "class_id": 0.5, "xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1}',
                "class_id",
            ),
            (
                '{"image_id": "a", "class_id": 0, "xmin": 5, "ymin": 0, "xmax": 1, "ymax": 1}',
                "corners out of order",
            ),
        ],
    )
    def test_ground_truth_errors_name_line(self, tmp_path, line, fragment):
        path = tmp_path / "gt.jsonl"
        good = '{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}'
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ValidationError) as err:
            read_ground_truth(str(path))
        assert ":2:" in str(err.value)
        assert fragment in str(err.value)

    def test_detection_score_checked(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"image_id": "a", "class_id": 0, "score": "high", "xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1}\n'
        )
        with pytest.raises(ValidationError, match=":1:.*score"):
            read_detections(str(path))

    def test_ignored_round_trips_and_is_written_only_when_set(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        records = [
            GroundTruth("img0", BBox(0.0, 0.0, 5.0, 5.0), 1, ignored=True),
            GroundTruth("img0", BBox(1.0, 1.0, 4.0, 4.0), 1),
        ]
        write_ground_truth(str(path), records)
        assert read_ground_truth(str(path)) == records
        assert path.read_text().splitlines() == [
            '{"image_id": "img0", "class_id": 1, "xmin": 0.0, "ymin": 0.0, "xmax": 5.0, "ymax": 5.0, "ignored": true}',
            '{"image_id": "img0", "class_id": 1, "xmin": 1.0, "ymin": 1.0, "xmax": 4.0, "ymax": 4.0}',
        ]

    @pytest.mark.parametrize("value", ["0", "1", '"true"', "null"])
    def test_ignored_must_be_a_json_boolean(self, tmp_path, value):
        path = tmp_path / "gt.jsonl"
        path.write_text(
            '{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2, "ignored": ' + value + "}\n"
        )
        with pytest.raises(ValidationError, match=f":1: ignored must be a boolean, got {json.loads(value)!r}$"):
            read_ground_truth(str(path))

    def test_detections_take_no_ignored_key(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"image_id": "a", "class_id": 0, "score": 0.5, "xmin": 0, "ymin": 0, "xmax": 1, "ymax": 1, "ignored": false}\n'
        )
        with pytest.raises(ValidationError, match=":1: unexpected keys: ignored"):
            read_detections(str(path))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: DetectionRecord("a", BBox(0, 0, 1, 1), True, 0),
            lambda: DetectionRecord("", BBox(0, 0, 1, 1), 0.5, 0),
            lambda: DetectionRecord("a", BBox(0, 0, 1, 1), 0.5, 1.5),
            lambda: Detection(BBox(0, 0, 1, 1), True, 0),
            lambda: Detection(BBox(0, 0, 1, 1), 0.5, 1.5),
            lambda: Detection(BBox(0, 0, 1, 1), 0.5, True),
            lambda: GroundTruth("", BBox(0, 0, 1, 1), 0),
            lambda: GroundTruth("a", BBox(0, 0, 1, 1), 1.5),
            lambda: GroundTruth("a", BBox(0, 0, 1, 1), 0, ignored=1),
            lambda: BBox(0, 0, True, 1),
            lambda: BBox(0, 0, 10**400, 1),
            lambda: BBox(0, 0, "1", 1),
        ],
    )
    def test_constructors_reject_what_files_cannot_hold(self, make):
        # each was once accepted (and written into a file the reader rejects) or
        # ended in a TypeError or OverflowError
        with pytest.raises(ValidationError, match="must be"):
            make()

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: BBox(0, 0, 10**5000, 1), "xmax must be a finite number, got an integer of 5001 digits"),
            (lambda: BBox(-(10**4301), 0, 1, 1), "xmin must be a finite number, got an integer of 4302 digits"),
            (lambda: GroundTruth(10**4301 - 1, BBox(0, 0, 1, 1), 0),
             "image_id must be a non-empty string, got an integer of 4301 digits"),
            (lambda: GroundTruth("a", BBox(0, 0, 1, 1), -(2**20000)),
             "class_id must be a non-negative integer, got an integer of 6021 digits"),
            (lambda: GroundTruth("a", BBox(0, 0, 1, 1), 0, ignored=10**5000),
             "ignored must be a boolean, got an integer of 5001 digits"),
            (lambda: DetectionRecord("a", BBox(0, 0, 1, 1), 10**4299, 0), f"score must be a finite number, got 1{'0' * 4299}"),
        ],
        ids=["xmax", "xmin", "image_id", "class_id", "ignored", "score-printable"],
    )
    def test_integer_too_long_to_print_is_a_validation_error(self, make, message):
        # repr() of an integer past 4300 digits raises ValueError, so the message gives its length
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == message

    def test_constructors_store_floats(self):
        box = BBox(0, 1, 2, 3)
        assert all(type(c) is float for c in box.coords())
        assert type(DetectionRecord("a", box, 1, 0).score) is float
        assert type(Detection(box, 1, 0).score) is float

    # each example overwrites the file, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["detections", "ground truth"]),
        data=st.data(),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(-2, 3), st.integers(),
            st.sampled_from([10**400, -(10**400), 2**1024]), st.floats(),
            st.text(max_size=2), st.lists(st.integers(0, 1), max_size=2),
        ),
    )
    def test_reader_rejects_exactly_what_constructors_reject(self, tmp_path, kind, data, value):
        """One field of a valid line gets an arbitrary JSON value: the reader
        and the record constructors accept it alike, or reject it with the
        same message."""
        fields = {"image_id": "a", "class_id": 1, "xmin": 0.5, "ymin": 0.0, "xmax": 2.0, "ymax": 3.0}
        if kind == "detections":
            fields["score"] = 0.5
            record_type, read = DetectionRecord, read_detections
        else:
            fields["ignored"] = False
            record_type, read = GroundTruth, read_ground_truth
        fields[data.draw(st.sampled_from(sorted(fields)))] = value
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(fields) + "\n")

        def build():
            values = dict(fields)
            box = BBox(*(values.pop(k) for k in ("xmin", "ymin", "xmax", "ymax")))
            return record_type(box=box, **values)

        try:
            records = read(str(path))
        except ValidationError as err:
            with pytest.raises(ValidationError) as built:
                build()
            assert str(err) == f"{path}:1: {built.value}"
        else:
            assert records == [build()]

    @pytest.mark.parametrize(
        "kind,change",
        [
            (kind, {name: value})
            for kind in READERS
            for name, values in EDGE_VALUES.items()
            if name != ("ignored" if kind == "detections" else "score")
            for value in values
        ] + [(kind, box) for kind in READERS for box in ODD_BOXES],
        ids=repr,
    )
    def test_table_reader_agrees_next_to_every_check(self, tmp_path, kind, change):
        """A value or box next to what each check accepts, on the middle one of three lines."""
        valid = {"image_id": "a", "class_id": 1, "xmin": 0.5, "ymin": 0.0, "xmax": 2.0, "ymax": 3.0}
        valid.update({"score": 0.5} if kind == "detections" else {"ignored": False})
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(fields) + "\n" for fields in (valid, {**valid, **change}, valid)))
        assert_readers_agree(str(path), kind)

    # each example overwrites the file, so sharing tmp_path is safe
    @settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(sorted(READERS)), data=st.data())
    def test_table_reader_agrees_with_record_reader(self, tmp_path, kind, data):
        """Files of 0-4 lines, each a valid record or one with a fault: the
        file's one odd value (arbitrary JSON, or next to what the field's
        check accepts) in the file's one odd field, a box out of order, flat
        or too large, and in some files a missing or unknown key, a line that
        is not a JSON object or a blank line."""
        finite = st.floats(-1e6, 1e6)
        arbitrary = st.one_of(
            st.none(), st.booleans(), st.integers(-2, 3), st.integers(), st.sampled_from([10**400, 2**1024]),
            st.floats(), st.text(max_size=2), st.lists(st.integers(0, 1), max_size=2),
        )
        odd_field = data.draw(st.sampled_from(sorted(set(EDGE_VALUES) - {"ignored" if kind == "detections" else "score"})))
        odd_value = data.draw(st.one_of(st.sampled_from(EDGE_VALUES[odd_field]), arbitrary))
        structural = data.draw(st.sampled_from([False, False, False, True]))

        @st.composite
        def record_line(draw):
            x, y = draw(finite), draw(finite)
            fields = {
                "image_id": draw(st.text(min_size=1, max_size=3)),
                "class_id": draw(st.integers(0, 10**20)),
                "xmin": x, "ymin": y,
                "xmax": x + draw(st.floats(0.5, 100.0)), "ymax": y + draw(st.floats(0.5, 100.0)),
            }
            if kind == "detections":
                fields["score"] = draw(finite)
            elif draw(st.booleans()):
                fields["ignored"] = draw(st.booleans())
            faults = ["none", "none", "none", "odd", "odd", "box"]
            if structural:
                faults += ["missing", "unknown", "syntax", "blank"]
            fault = draw(st.sampled_from(faults))
            if fault == "odd":
                fields[odd_field] = odd_value
            elif fault == "box":
                fields.update(draw(st.sampled_from(ODD_BOXES)))
            elif fault == "missing":
                del fields[draw(st.sampled_from(sorted(fields)))]
            elif fault == "unknown":
                fields[draw(st.sampled_from(["zz", "ignored", "score"]))] = 1
            elif fault == "syntax":
                return draw(st.sampled_from(['{"a": [1', "2]}", '{"b": 1},{"c": 1}', "[]", "7", "{"]))
            elif fault == "blank":
                return draw(st.sampled_from(["", "  ", "\t"]))
            return json.dumps(fields)

        path = tmp_path / "records.jsonl"
        path.write_text("".join(line + "\n" for line in data.draw(st.lists(record_line(), max_size=4))))
        assert_readers_agree(str(path), kind)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("odd", sorted(ODD_LINES))
    def test_table_reader_agrees_on_odd_lines(self, tmp_path, kind, odd):
        """Whitespace, line breaks and JSON the column parse does not take
        itself, on the middle one of three lines."""
        valid = VALID_LINES[kind]
        path = tmp_path / "records.jsonl"
        path.write_bytes(f"{valid}\n{ODD_LINES[odd](valid)}\n{valid}\n".encode("utf-8"))
        assert_readers_agree(str(path), kind)

    def test_column_parse_takes_fixtures_and_dense_files(self, tmp_path):
        """The table readers parse these files themselves: the record reader
        would give equal tables, so only this notices a silent fallback."""
        fixture_dir = tmp_path / "fx"
        write_fixtures(RunConfig(seed=3), str(fixture_dir))
        rng = np.random.default_rng(0)
        corners = rng.uniform(0.0, 300.0, size=(2000, 2))
        sides = rng.uniform(1.0, 60.0, size=(2000, 2))
        boxes = [BBox(*row) for row in np.hstack((corners, corners + sides)).tolist()]
        dense = {
            "detections": [
                DetectionRecord(f"img{i % 7}", b, float(s), i % 3)
                for i, (b, s) in enumerate(zip(boxes, rng.uniform(size=2000).tolist()))
            ],
            "ground truth": [GroundTruth(f"img{i % 7}", b, i % 3, ignored=i % 5 == 0) for i, b in enumerate(boxes)],
        }
        write_detections(str(tmp_path / "dense_dets.jsonl"), dense["detections"])
        write_ground_truth(str(tmp_path / "dense_gt.jsonl"), dense["ground truth"])
        files = [
            ("detections", fixture_dir / "detections.jsonl"),
            ("ground truth", fixture_dir / "ground_truth.jsonl"),
            ("detections", tmp_path / "dense_dets.jsonl"),
            ("ground truth", tmp_path / "dense_gt.jsonl"),
        ]
        for kind, path in files:
            keys, optional = (DETECTION_KEYS, ()) if kind == "detections" else (GROUND_TRUTH_KEYS, ("ignored",))
            _, rows, fault = formats._parse(str(path), keys, optional)
            assert fault is None and len(rows) == len(READERS[kind][0](str(path)))
            assert formats._columns(rows, keys + optional) is not None
            assert_readers_agree(str(path), kind)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize(
        "odd,loads_calls",
        [(lambda v: " " + v, 1), (lambda v: v.replace('"xmin": 0.5', '"xmin": 1'), 0)],
        ids=["indented line", "integer coordinate"],
    )
    def test_table_reader_reads_and_parses_once(self, tmp_path, monkeypatch, kind, odd, loads_calls):
        """A line the scanner does not take whole goes to json.loads alone; a
        value the column screen does not take is built into a record from
        the same parse. Neither file is opened twice."""
        valid = VALID_LINES[kind]
        path = tmp_path / "records.jsonl"
        path.write_text(f"{valid}\n{odd(valid)}\n{valid}\n")
        calls = {"open": 0, "loads": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counted("open", open))
        monkeypatch.setattr(json, "loads", counted("loads", json.loads))
        table = READERS[kind][1](str(path))
        assert calls == {"open": 1, "loads": loads_calls} and len(table) == 3

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("lines", [3, 500])
    def test_non_utf8_file_fails_before_any_line(self, tmp_path, kind, lines):
        """Line 1 holds a value fault and the last byte is not UTF-8: every
        reader reports the encoding, at about 300 bytes and about 50 KB."""
        valid = VALID_LINES[kind]
        text = valid.replace('"class_id": 1', '"class_id": -1') + "\n" + (valid + "\n") * (lines - 1)
        path = tmp_path / "records.jsonl"
        path.write_bytes(text.encode("utf-8") + b"\xff")
        assert 250 < path.stat().st_size < 400 or 40_000 < path.stat().st_size < 60_000
        for read in READERS[kind]:
            with pytest.raises(ValidationError) as err:
                read(str(path))
            assert str(err.value) == f"{path}: not valid UTF-8: invalid start byte"

    @pytest.mark.parametrize(
        "text,message",
        [('{"image_id": "a\n', "Invalid control character at"), ('{"image_id": "a', "Unterminated string starting at")],
        ids=["newline", "end of file"],
    )
    def test_a_line_is_parsed_with_its_newline(self, tmp_path, text, message):
        """json.loads sees a line as the file holds it: an unterminated
        string runs into the newline, or into the end of the file."""
        path = tmp_path / "gt.jsonl"
        path.write_text(VALID_LINES["ground truth"] + "\n" + text)
        for read in READERS["ground truth"]:
            with pytest.raises(ValidationError) as err:
                read(str(path))
            assert str(err.value) == f"{path}:2: invalid JSON: {message}"

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize(
        "odd,message",
        [(lambda v: v.replace('"a"', '""'), "image_id must be a non-empty string, got ''"),
         (lambda v: "[]", "expected a JSON object")],
        ids=["value fault", "parse fault"],
    )
    def test_line_numbers_count_blank_lines_and_every_line_break(self, tmp_path, kind, odd, message):
        """The fault is on line 5: blank lines count, and so do CR and CRLF breaks."""
        valid = VALID_LINES[kind]
        path = tmp_path / "records.jsonl"
        path.write_bytes(f"{valid}\r\n\n \t\r{valid}\n{odd(valid)}\n{valid}\n".encode("utf-8"))
        for read in READERS[kind]:
            with pytest.raises(ValidationError) as err:
                read(str(path))
            assert str(err.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize("lines", [['{"a": [1', "2]}"], ['{"b": 1},{"c": 1}']])
    def test_lines_that_join_into_json_are_still_invalid(self, tmp_path, lines):
        """Each line is parsed alone: joined into one array these would parse."""
        path = tmp_path / "gt.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for read in (read_ground_truth, read_ground_truth_table):
            with pytest.raises(ValidationError, match=f"^{path}:1: invalid JSON: "):
                read(str(path))

    def test_csv_uses_lf(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_csv(path, ["a", "b"], [["1", "2"], ["3", "4"]])
        with open(path, "rb") as fh:
            raw = fh.read()
        assert raw == b"a,b\n1,2\n3,4\n"

    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["row", "7"], ["longer-row", "13"]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert lines[1].startswith("-")


class TestVerifyCommand:
    def test_tiny_sweep_passes(self, tiny_config, capsys, tmp_path):
        out_csv = str(tmp_path / "verify.csv")
        code = main(["verify", "--config", tiny_config, "--out", out_csv])
        captured = capsys.readouterr().out
        assert code == 0
        assert captured.count("PASS") == 28
        assert "FAIL" not in captured
        assert "28/28" in captured
        with open(out_csv) as fh:
            rows = fh.read().strip().split("\n")
        assert len(rows) == 29  # header + config row + 27 sweep rows

    def test_corrupted_partition_fails_naming_location(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["corrupt_block"] = [1, 2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", "--config", str(path)])
        captured = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in captured
        assert "scale 1" in captured and "iteration 2" in captured

    # SHA-256 of stdout and of the --out CSV. The CSVs were recorded with the
    # former implementation that shifted the partition inside the fusion
    # core; stdout was re-recorded when rows whose params hold no such block
    # (T below the block's iteration) gained their "(not corrupted: ...)"
    # note, and with those notes removed it still hashes to the old pins.
    CORRUPT_DIGESTS = {
        ((1, 2), None): (
            "914a00a236a9bd600893ba8cbf4bf936c2da16301cb79aaf83d81a1ed6b3187c",
            "c10049cbc21106b1ac34d1911de8dc86c574f2494085d001602052238a2e6df6",
        ),
        ((1, 2), "--top-down-only"): (
            "6816f729d2e8b1b460e4ca27d5e697c54a820ea986606c2262c388b827bfd7c1",
            "8ca67ded2b956deae309fd0162cfd35d38a5c98d217db918fd9e15bfdb2cf8fd",
        ),
        ((1, 2), "--bottom-up-only"): (
            "66efcc0aeb7657ec22d211936a95fd7f9e3d2632634113199f1dc101c73c6ded",
            "c5a5d55c385ee44e985cf3ae5f43a1edeb8bda66c47959ab0045e15aff69b2f9",
        ),
        ((2, 3), None): (
            "0b1861ab85d573deccb4f8fe903de9052298d309cbd35c9366112a0350192161",
            "03a173f8d5c8effa4fed562a5631364037439a76c6373ccc173dbca7ad3649aa",
        ),
        ((2, 3), "--top-down-only"): (
            "d6fc944c7a7b86d68ec8bfa1c322624cf746b1d19ff91889d4961c75bbf33e1b",
            "9985e648d6f14dc4d35a8968eba494c4103c53de9367d7adfa3b394eebde38a5",
        ),
        ((2, 3), "--bottom-up-only"): (
            "898364bb569695f795cec894766eac0e3ca0b585e43a08838b390587872d7a17",
            "19db35ae12cf218dc126c5ef525b91bb1b6914826fa8a00ca941f6108a374456",
        ),
    }

    @pytest.mark.parametrize("block,flag", sorted(CORRUPT_DIGESTS, key=str))
    def test_corrupted_output_is_pinned(self, tmp_path, monkeypatch, capsys, block, flag):
        monkeypatch.chdir(tmp_path)
        cfg = dict(TINY, woven_scales=[0, 1, 2, 3], corrupt_block=list(block))
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        flags = [flag] if flag else []
        code = main(["verify", "--config", "config.json", *flags, "--out", "verify.csv"])
        out = capsys.readouterr().out
        assert code == 1
        digests = (
            hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256((tmp_path / "verify.csv").read_bytes()).hexdigest(),
        )
        assert digests == self.CORRUPT_DIGESTS[(block, flag)]

    def test_corrupt_block_without_message_columns_runs_uncorrupted(self, tmp_path, capsys):
        # scale 2 is the coarsest woven scale: under --top-down-only it gets no messages
        cfg = {
            "pyramid_sizes": [8, 4, 2, 1], "raw_channels": [4, 4, 4, 4], "woven_scales": [0, 1, 2],
            "corrupt_block": [2, 3], "iterations": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out_csv = tmp_path / "verify.csv"
        code = main(["verify", "--config", str(path), "--out", str(out_csv)])
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  [")]
        assert code == 1  # the corrupted combinations still fail
        assert len(rows) == 28
        skipped = [r for r in rows if r.endswith("(not corrupted: scale 2 iteration 3 has no message columns)")]
        # T = 3 and 5 for each of the three k, all top-down-only, all agreeing
        assert len(skipped) == 6
        assert all("masks=top-down-only" in r and " PASS " in r for r in skipped)
        assert len(out_csv.read_text().splitlines()) == 29

    def test_every_row_is_corrupted_or_says_why_not(self, tmp_path, capsys):
        # under bottom-up-only scale 2 runs no block; at T=1 no scale has iteration 3
        cfg = {
            "pyramid_sizes": [8, 4, 2, 1], "raw_channels": [4, 4, 4, 4], "woven_scales": [0, 1, 2],
            "corrupt_block": [2, 3], "iterations": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == 1
        rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  [")]
        notes = {}
        for row in rows:
            if "(not corrupted: " in row:
                note = row[row.index("(not corrupted: "):]
                notes[note] = notes.get(note, 0) + 1
            else:
                assert " FAIL " in row, row
        assert notes == {
            "(not corrupted: scale 2 runs no block)": 9,  # bottom-up-only, each k and T
            "(not corrupted: scale 2 has no iteration 3)": 6,  # T=1 under the other two masks
            "(not corrupted: scale 2 iteration 3 has no message columns)": 6,  # top-down-only, T=3 and 5
        }

    def test_zero_iterations_trivially_passes_config_row(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["iterations"] = 0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["verify", "--config", str(path)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "[config] k=4   T=0" in captured


class TestVerifyExactnessProbe:
    def test_inexact_conv_ends_in_one_line_before_the_sweep(self, tiny_config, capsys, monkeypatch):
        exact = tensor_core.conv3x3
        monkeypatch.setattr(
            tensor_core, "conv3x3", lambda x, k: tensor_core.Tensor(np.nextafter(exact(x, k).data, np.inf))
        )
        code = main(["verify", "--config", tiny_config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: conv3x3 is not bit-exact on this NumPy build: ")


class TestDemoCommand:
    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["demo", "--seed", "3", "--out", a]) == 0
        assert main(["demo", "--seed", "3", "--out", b]) == 0
        capsys.readouterr()
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_seed_changes_output(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["demo", "--seed", "3", "--out", a]) == 0
        assert main(["demo", "--seed", "4", "--out", b]) == 0
        capsys.readouterr()
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() != fb.read()

    def test_refinement_changes_only_coordinates(self, tmp_path, capsys):
        refined, plain = str(tmp_path / "r.jsonl"), str(tmp_path / "p.jsonl")
        assert main(["demo", "--seed", "3", "--out", refined]) == 0
        assert main(["demo", "--seed", "3", "--no-refine", "--out", plain]) == 0
        capsys.readouterr()
        a = read_detections(refined)
        b = read_detections(plain)
        assert len(a) == len(b)
        assert [d.score for d in a] == [d.score for d in b]
        assert [d.class_id for d in a] == [d.class_id for d in b]
        assert any(x.box != y.box for x, y in zip(a, b))

    def test_anchor_mode_b_runs(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "b.jsonl")
        assert main(["demo", "--config", tiny_config, "--anchors", "B", "--out", out]) == 0
        capsys.readouterr()
        records = read_detections(out)
        assert records, "expected some detections"
        for r in records:
            assert 0 <= r.class_id < TINY["num_classes"]
            assert 0.0 <= r.box.xmin <= r.box.xmax <= TINY["input_size"]

    def test_seven_scales_fail_before_any_weave_pass(self, tmp_path, capsys, monkeypatch):
        # verify and bench run this config; demo has no anchor scale for the seventh
        config = tmp_path / "seven.json"
        config.write_text(json.dumps({"pyramid_sizes": [40, 20, 10, 5, 3, 2, 1], "raw_channels": [8] * 7}))
        calls = []
        real = pipeline.weave_forward
        monkeypatch.setattr(pipeline, "weave_forward", lambda *a: calls.append(a) or real(*a))
        assert main(["demo", "--config", str(config), "--out", str(tmp_path / "d.jsonl")]) == 1
        assert capsys.readouterr().err == "error: no default scale fractions for 7 scales\n"
        assert calls == []

    def test_naive_mode_agrees_with_default_demo(self, tiny_config, tmp_path, capsys):
        a, b = str(tmp_path / "n.jsonl"), str(tmp_path / "s.jsonl")
        assert main(["demo", "--config", tiny_config, "--mode", "naive", "--out", a]) == 0
        assert main(["demo", "--config", tiny_config, "--mode", "simplified", "--out", b]) == 0
        capsys.readouterr()
        na, sb = read_detections(a), read_detections(b)
        assert len(na) == len(sb)
        for x, y in zip(na, sb):
            assert x.class_id == y.class_id
            assert x.score == pytest.approx(y.score, abs=1e-9)


class TestEvalCommand:
    def test_fixture_evaluates_to_one(self, tmp_path, capsys):
        fx = str(tmp_path / "fx")
        assert main(["fixtures", "--seed", "11", "--out", fx]) == 0
        out_csv = str(tmp_path / "eval.csv")
        code = main([
            "eval", f"{fx}/detections.jsonl", f"{fx}/ground_truth.jsonl", "--out", out_csv
        ])
        captured = capsys.readouterr().out
        assert code == 0
        with open(out_csv) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "stratum,class_id,ap,positives"
        assert len(lines) == 1 + 4 * 2  # four strata x two classes
        for line in lines[1:]:
            assert ",1.000000," in line
        assert "overall" in captured

    def test_empty_detections_all_zero(self, tmp_path, capsys):
        fx = str(tmp_path / "fx")
        assert main(["fixtures", "--seed", "11", "--out", fx]) == 0
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["eval", str(empty), f"{fx}/ground_truth.jsonl"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0.000000" in captured

    def test_schema_violation_names_line(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}\n')
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"image_id": "a"}\n')
        code = main(["eval", str(dets), str(gt)])
        err = capsys.readouterr().err
        assert code == 1
        assert ":1:" in err

    def test_overflowing_box_is_one_line_error(self, tmp_path, capsys):
        # a perfect detection of this box used to score AP 0.000000 with exit 0
        box = '"xmin": -1e308, "ymin": -1e308, "xmax": 1e308, "ymax": 1e308'
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"image_id": "a", "class_id": 0, ' + box + "}\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text('{"image_id": "a", "class_id": 0, "score": 0.9, ' + box + "}\n")
        code = main(["eval", str(dets), str(gt)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {dets}:1: box too large")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_ignored_box_absorbs_a_detection(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(
            '{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 10, "ymax": 10}\n'
            '{"image_id": "a", "class_id": 0, "xmin": 50, "ymin": 50, "xmax": 60, "ymax": 60, "ignored": true}\n'
        )
        dets = tmp_path / "dets.jsonl"
        dets.write_text(
            '{"image_id": "a", "class_id": 0, "score": 0.9, "xmin": 50, "ymin": 50, "xmax": 60, "ymax": 60}\n'
            '{"image_id": "a", "class_id": 0, "score": 0.8, "xmin": 0, "ymin": 0, "xmax": 10, "ymax": 10}\n'
        )
        out_csv = tmp_path / "eval.csv"
        assert main(["eval", str(dets), str(gt), "--out", str(out_csv)]) == 0
        capsys.readouterr()
        # the higher-scored detection lands on the ignored box: neither an FP nor a positive
        assert "overall,0,1.000000,1" in out_csv.read_text().splitlines()

    @pytest.mark.parametrize("key", ["xmax", "score"])
    def test_huge_integer_is_one_line_error(self, tmp_path, capsys, key):
        # float() of a 401-digit integer overflows; it used to end in a traceback
        fields = {"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}
        gt = tmp_path / "gt.jsonl"
        gt.write_text(json.dumps(fields) + "\n")
        det = dict(fields, score=0.5)
        dets = tmp_path / "dets.jsonl"
        dets.write_text(json.dumps(det) + "\n" + json.dumps(dict(det, **{key: 10**400})) + "\n")
        assert main(["eval", str(dets), str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {dets}:2: {key} must be a finite number, got 1{'0' * 400}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ('{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 1' + "0" * 5000 + ', "ymax": 2}',
             "invalid JSON: Exceeds the limit"),
            ("[" * 100000, "invalid JSON: maximum recursion depth exceeded"),
        ],
        ids=["integer-too-long", "nested-too-deep"],
    )
    def test_unparseable_line_is_one_line_error(self, tmp_path, capsys, line, fragment):
        gt = tmp_path / "gt.jsonl"
        gt.write_text(line + "\n")
        dets = tmp_path / "dets.jsonl"
        dets.write_text("")
        assert main(["eval", str(dets), str(gt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gt}:1: {fragment}") and err.count("\n") == 1

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}\n')
        code = main(["eval", str(tmp_path / "missing.jsonl"), str(gt)])
        assert code == 2
        assert capsys.readouterr().err


class TestBenchCommand:
    def test_sweep_rows_and_baseline(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main([
            "bench", "--config", tiny_config, "--warmup", "0", "--reps", "1", "--out", out
        ])
        capsys.readouterr()
        assert code == 0
        with open(out) as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 1 + 12 + 1  # header, sweep rows, baseline
        assert lines[-1].startswith("baseline-3x3-256")
        assert "1887436800" in lines[-1]
        modes = [line.split(",")[0] for line in lines[1:13]]
        assert modes == ["naive", "simplified"] * 6

    def test_data_csv_byte_identical_across_runs(self, tiny_config, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            assert (
                main(["bench", "--config", tiny_config, "--warmup", "0", "--reps", "1", "--out", path])
                == 0
            )
        capsys.readouterr()
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_simplified_flops_strictly_lower_beyond_t1(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        assert (
            main(["bench", "--config", tiny_config, "--warmup", "0", "--reps", "1", "--out", out])
            == 0
        )
        capsys.readouterr()
        with open(out) as fh:
            lines = fh.read().strip().split("\n")[1:13]
        for naive_line, simp_line in zip(lines[0::2], lines[1::2]):
            n = naive_line.split(",")
            s = simp_line.split(",")
            iterations = int(n[2])
            if iterations >= 2:
                assert int(s[6]) < int(n[6])
            else:
                assert int(s[6]) == int(n[6])

    def test_corrupt_block_aborts(self, tmp_path, capsys):
        cfg = dict(TINY)
        cfg["corrupt_block"] = [1, 2]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["bench", "--config", str(path), "--warmup", "0", "--reps", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "disagree" in err


    @pytest.mark.parametrize(
        "flag,reason",
        [
            ("--top-down-only", "scale 2 iteration 2 has no message columns"),
            ("--bottom-up-only", "scale 2 runs no block"),
        ],
    )
    def test_uncorruptible_block_is_refused(self, tmp_path, capsys, bench_passes, flag, reason):
        # scale 2 is the coarsest woven scale: it sends only down-messages and receives only up-messages
        cfg = {
            "pyramid_sizes": [8, 4, 2, 1], "raw_channels": [4, 4, 4, 4], "woven_scales": [0, 1, 2],
            "corrupt_block": [2, 2], "iterations": 2,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["bench", "--config", str(path), flag])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot corrupt partition: {reason}\n"
        # only the check pairs of k=16 at T=1 (block past T, run clean) and T=3 (refused); no timed pass
        assert [(a[1].k, a[1].iterations, a[3]) for a in bench_passes] == [
            (16, 1, "naive"), (16, 1, "simplified"), (16, 3, "naive"), (16, 3, "simplified")
        ]

    def test_ratio_table_follows_timing_table(self, tiny_config, tmp_path, capsys):
        timing = str(tmp_path / "timing.csv")
        code = main([
            "bench", "--config", tiny_config, "--warmup", "0", "--reps", "1", "--timing-out", timing
        ])
        out = capsys.readouterr().out
        assert code == 0
        tables = out.split("\n\n")
        assert len(tables) == 3
        header, rule, *rows = tables[2].splitlines()
        assert header.split() == list(RATIO_COLUMNS)
        rows = [r.split() for r in rows[:6]]
        assert [(int(r[0]), int(r[1])) for r in rows] == [(k, t) for k in (16, 32) for t in (1, 3, 5)]
        for r in rows:
            naive, simplified, time_ratio = float(r[2]), float(r[3]), float(r[4])
            assert time_ratio == pytest.approx(naive / simplified, rel=1e-2, abs=2e-3)
        with open(timing) as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",") == list(TIMING_COLUMNS)
        assert [line.split(",")[6] for line in lines[1::2]] == [r[2] for r in rows]
        assert [line.split(",")[6] for line in lines[2::2]] == [r[3] for r in rows]

    @pytest.mark.parametrize(
        "block,counts,message",
        [
            # every sweep T (1, 3, 5) is below 6, so no sweep point would corrupt the block
            ([1, 6], ["--warmup", "0", "--reps", "1"],
             "cannot corrupt partition: scale 1 has no iteration 6 at any sweep T (largest 5)"),
            ([1, 2], ["--warmup", "0", "--reps", "0"], "reps must be >= 1, got 0"),
            ([1, 2], ["--warmup", "-1", "--reps", "1"], "warmup must be >= 0, got -1"),
        ],
        ids=["past-the-sweep", "reps-0", "warmup-negative"],
    )
    def test_block_past_the_sweep_is_refused_before_any_pass(
        self, tmp_path, capsys, bench_passes, block, counts, message
    ):
        cfg = {
            "pyramid_sizes": [8, 4, 2, 1], "raw_channels": [4, 4, 4, 4], "woven_scales": [0, 1, 2],
            "corrupt_block": block,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code = main(["bench", "--config", str(path), *counts])
        captured = capsys.readouterr()
        assert (code, captured.out, len(bench_passes)) == (1, "", 0)
        assert captured.err == f"error: {message}\n"

    def test_batch_flag_is_gone(self, tiny_config, capsys):
        code = main(["bench", "--config", tiny_config, "--warmup", "0", "--reps", "1", "--batch", "2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: unrecognized arguments: --batch 2\n"


class TestFixturesCommand:
    def test_files_and_schemas(self, tmp_path, capsys):
        fx = tmp_path / "fx"
        assert main(["fixtures", "--seed", "2", "--out", str(fx)]) == 0
        capsys.readouterr()
        for i in range(6):
            arr = np.load(fx / f"pyramid_scale{i}.npy")
            assert arr.ndim == 3 and arr.dtype == np.float64
        gts = read_ground_truth(str(fx / "ground_truth.jsonl"))
        dets = read_detections(str(fx / "detections.jsonl"))
        assert len(gts) == 24 and len(dets) == 24
        labels = stratify_by_area(gts)
        for cls in (0, 1):
            cls_labels = [l for l, g in zip(labels, gts) if g.class_id == cls]
            assert cls_labels.count("small") == 3
            assert cls_labels.count("medium") == 6
            assert cls_labels.count("large") == 3

    def test_seed_changes_data_not_schema(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fixtures", "--seed", "1", "--out", str(a)]) == 0
        assert main(["fixtures", "--seed", "2", "--out", str(b)]) == 0
        capsys.readouterr()
        ga = read_ground_truth(str(a / "ground_truth.jsonl"))
        gb = read_ground_truth(str(b / "ground_truth.jsonl"))
        assert len(ga) == len(gb)
        assert ga != gb


class TestExitCodes:
    def test_missing_config_is_io_error(self, capsys):
        assert main(["verify", "--config", "/nonexistent/config.json"]) == 2
        assert capsys.readouterr().err

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text('{"mystery": 1}')
        assert main(["verify", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"iterations": 1.5}', '{"k": true}'])
    def test_mistyped_config_value_is_one_line_error(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["demo", "--config", str(path), "--out", str(tmp_path / "d.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[" * 100000, "maximum recursion depth exceeded"),
            ('{"k": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["nested-too-deep", "integer-too-long"],
    )
    def test_unparseable_config_is_one_line_error(self, tmp_path, capsys, text, fragment):
        # both used to end in a traceback (RecursionError, ValueError)
        path = tmp_path / "c.json"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: invalid JSON: ") and fragment in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("command", ["demo", "verify", "bench", "fixtures"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_is_one_line_error(self, tmp_path, capsys, command, via):
        # each used to end in a ValueError traceback from np.random.default_rng
        out = ["--out", str(tmp_path / "out")]
        if via == "flag":
            argv = [command, "--seed", "-3", *out]
        else:
            path = tmp_path / "c.json"
            path.write_text('{"seed": -3}')
            argv = [command, "--config", str(path), *out]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -3\n" and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff\xfe{"k": 4}')
        assert main(["verify", "--config", str(path)]) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["dets", "gt"])
    def test_non_utf8_jsonl_is_validation_error(self, tmp_path, capsys, which):
        files = {
            "dets": b'{"image_id": "a", "class_id": 0, "score": 0.5, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}\n',
            "gt": b'{"image_id": "a", "class_id": 0, "xmin": 0, "ymin": 0, "xmax": 2, "ymax": 2}\n',
        }
        files[which] = b"\xff\xfe" + files[which]
        paths = {}
        for name, data in files.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            paths[name].write_bytes(data)
        assert main(["eval", str(paths["dets"]), str(paths["gt"])]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {paths[which]}: not valid UTF-8: invalid start byte\n"

    def test_bad_flag_is_validation_error(self, capsys):
        assert main(["demo", "--mode", "fast"]) == 1
        capsys.readouterr()

    def test_conflicting_masks_rejected(self, capsys):
        assert main(["verify", "--top-down-only", "--bottom-up-only"]) == 1
        assert "mutually exclusive" in capsys.readouterr().err


class TestMainKeepsNoState:
    """main() builds its parser once; consecutive calls in one process must
    behave exactly as separate `python -m weavenet` processes do."""

    def test_consecutive_calls_match_fresh_processes(self, tiny_config, tmp_path, capsys):
        fx = str(tmp_path / "fx")
        dets = str(tmp_path / "dets.jsonl")
        steps = [
            ["fixtures", "--config", tiny_config, "--out", fx],
            ["demo", "--config", tiny_config, "--no-refine", "--out", dets],
            ["demo", "--config", tiny_config, "--out", dets],
            ["eval", dets, os.path.join(fx, "ground_truth.jsonl")],
            ["demo", "--mode", "fastest"],
            ["demo", "--config", tiny_config, "--no-refine", "--out", dets],
            ["eval", dets, os.path.join(fx, "ground_truth.jsonl")],
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(weavenet.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        def dets_bytes():
            if not os.path.exists(dets):
                return b""
            with open(dets, "rb") as fh:
                return fh.read()

        fresh = []
        for argv in steps:
            proc = subprocess.run(
                [sys.executable, "-m", "weavenet", *argv], capture_output=True, text=True, env=env
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr, dets_bytes()))
        os.remove(dets)
        capsys.readouterr()
        for argv, want in zip(steps, fresh):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err, dets_bytes()) == want, argv
        assert fresh[4][0] == 1 and fresh[4][2].startswith("error: argument --mode")
        assert fresh[1][3] != fresh[2][3]  # a leaked --no-refine would show
