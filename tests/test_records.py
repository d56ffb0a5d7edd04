"""The package's record types behave as frozen value records.

Each record takes its fields positionally or by keyword, with the same
defaults; compares equal to another instance of its own class with equal
fields and to nothing else; hashes by its fields where every field is
hashable (ScaleState, a view of a live buffer, compares and hashes by
identity); refuses assignment and deletion with FrozenInstanceError; and
shows its fields in its repr, which error messages quote.
"""

import copy
import importlib
import pkgutil
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weavenet
from weavenet.bench import BenchReport, ModeComparison
from weavenet.detect import BBox, Detection
from weavenet.errors import MismatchLocation, Record, ValidationError
from weavenet.evaluation import BoxTable, DetectionRecord, EvalReport, GroundTruth
from weavenet.weave import ScaleState, WeaveConfig, WeaveFlops

ints = st.integers(-(2**70), 2**70)
finite = st.floats(-1e6, 1e6, allow_nan=False)
image_ids = st.text(min_size=1, max_size=4)
class_ids = st.integers(0, 2**70)
counts = st.integers(0, 10**9)
flop_counts = st.lists(counts, max_size=4).map(tuple)
state_views = st.integers(0, 3).map(lambda n: np.zeros((n, 2, 2)))


def in_order(*strategies):
    """The field values the strategies draw, as a list."""
    return st.tuples(*strategies).map(list)


@st.composite
def boxes(draw):
    x0, x1 = sorted(draw(st.lists(finite, min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(finite, min_size=2, max_size=2)))
    return BBox(x0, y0, x1, y1)


@st.composite
def gt_boxes(draw):
    """Boxes of positive area, as GroundTruth requires."""
    x0, y0 = draw(finite), draw(finite)
    return BBox(x0, y0, x0 + draw(st.floats(1.0, 10.0)), y0 + draw(st.floats(1.0, 10.0)))


@st.composite
def bench_fields(draw):
    times = tuple(draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=3)))
    return [draw(st.sampled_from(["naive", "simplified"])), WeaveConfig(k=draw(st.integers(1, 4))),
            draw(st.integers(0, 3)), len(times), times, WeaveFlops(draw(flop_counts), draw(counts))]


def bench_reports():
    return bench_fields().map(lambda fields: BenchReport(*fields))


@st.composite
def table_fields(draw):
    n = draw(st.integers(0, 3))
    columns = [draw(st.lists(image_ids, min_size=n, max_size=n)), draw(st.lists(class_ids, min_size=n, max_size=n)),
               np.zeros((n, 4))]
    return columns + draw(st.sampled_from([[], [np.ones(n)], [None, np.zeros(n, dtype=bool)]]))


@st.composite
def report_fields(draw):
    ap = {"overall": draw(st.dictionaries(st.integers(0, 3), st.none() | st.floats(0.0, 1.0)))}
    fields = [ap, {"overall": draw(st.floats(0.0, 1.0))}, draw(st.integers(0, 9)), draw(st.integers(0, 9)),
              {"overall": draw(st.dictionaries(st.integers(0, 3), st.integers(0, 9)))}]
    return fields + draw(st.sampled_from([[], [("a note",)]]))


# name: (class, field names, strategy of positional field values (a
# defaulted field may be left off), defaults of the trailing fields,
# whether equal field values hash equal)
RECORDS = {
    "MismatchLocation": (
        MismatchLocation, ("scale", "channel", "y", "x", "deviation"), in_order(ints, ints, ints, ints, finite),
        (), True,
    ),
    "BBox": (BBox, ("xmin", "ymin", "xmax", "ymax"), boxes().map(lambda b: list(b.coords())), (), True),
    "Detection": (Detection, ("box", "score", "class_id"), in_order(boxes(), finite, class_ids), (), True),
    "ScaleState": (
        ScaleState, ("scale", "t", "data"), in_order(st.integers(0, 5), st.integers(0, 5), state_views), (), False,
    ),
    "WeaveFlops": (
        WeaveFlops, ("per_iteration", "precompute"), in_order(flop_counts, counts), (), True,
    ),
    "GroundTruth": (
        GroundTruth, ("image_id", "box", "class_id", "ignored"),
        in_order(image_ids, gt_boxes(), class_ids) | in_order(image_ids, gt_boxes(), class_ids, st.booleans()),
        (False,), True,
    ),
    "DetectionRecord": (
        DetectionRecord, ("image_id", "box", "score", "class_id"), in_order(image_ids, boxes(), finite, class_ids),
        (), True,
    ),
    "BoxTable": (
        BoxTable, ("image_id", "class_id", "boxes", "score", "ignored"), table_fields(), (None, None), False,
    ),
    "EvalReport": (
        EvalReport, ("ap", "mean_ap", "gt_count", "det_count", "positives", "notes"), report_fields(), ((),), False,
    ),
    "BenchReport": (BenchReport, ("mode", "config", "warmup", "reps", "times", "flops"), bench_fields(), (), True),
    "ModeComparison": (
        ModeComparison, ("naive", "simplified", "worst_deviation"),
        in_order(bench_reports(), bench_reports(), st.floats(0.0, 1.0)), (), True,
    ),
}


def test_every_record_type_of_the_package_is_covered():
    for module in pkgutil.iter_modules(weavenet.__path__):
        if module.name != "__main__":  # importing it runs the command line
            importlib.import_module(f"weavenet.{module.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("weavenet."):
                found.add(cls)
    assert found == {cls for cls, *_ in RECORDS.values()}


class Other:
    """A class that is not a record, with the same field values."""

    def __init__(self, *values):
        self.values = values


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_record_behaviour(name, data):
    cls, names, fields, defaults, hashable = RECORDS[name]
    given_values = data.draw(fields)
    missing = len(names) - len(given_values)
    values = given_values + list(defaults[len(defaults) - missing:])
    assert len(values) == len(names)
    record = cls(*given_values)
    by_keyword = cls(**dict(zip(names, given_values)))
    full = cls(*values)

    # positional and keyword construction agree; omitted fields take their defaults
    for other in (by_keyword, full):
        assert [getattr(other, n) for n in names] == [getattr(record, n) for n in names]
        assert repr(other) == repr(record)
    assert repr(record) == f"{name}({', '.join(f'{n}={getattr(record, n)!r}' for n in names)})"

    # equality: by value within the class, or by identity for ScaleState;
    # never with another class, or with a tuple or list of the same values
    by_value = name != "ScaleState"
    assert record == record and not record != record
    assert (record == by_keyword) is by_value and (record != by_keyword) is not by_value
    assert (record == full) is by_value
    assert (record == copy.copy(record)) is by_value
    for stranger in (Other(*values), tuple(values), values):
        assert record != stranger and not record == stranger
        assert stranger != record and not stranger == record

    # hashing: by value where every field is hashable, by identity for ScaleState
    if hashable:
        assert hash(record) == hash(by_keyword) == hash(full) == hash(copy.copy(record))
    elif by_value:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == object.__hash__(record)

    # frozen: every field and any other name refuse assignment and deletion
    for attr in names + ("unknown",):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{attr}'$"):
            setattr(record, attr, 0)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{attr}'$"):
            delattr(record, attr)
    assert [getattr(record, n) for n in names] == [getattr(by_keyword, n) for n in names]


@pytest.mark.parametrize("record,text", [
    (BBox(0, 1, 2, 3), "BBox(xmin=0.0, ymin=1.0, xmax=2.0, ymax=3.0)"),
    (Detection(BBox(0, 0, 1, 1), 1, 2),
     "Detection(box=BBox(xmin=0.0, ymin=0.0, xmax=1.0, ymax=1.0), score=1.0, class_id=2)"),
    (GroundTruth("a", BBox(0, 0, 1, 1), 0),
     "GroundTruth(image_id='a', box=BBox(xmin=0.0, ymin=0.0, xmax=1.0, ymax=1.0), class_id=0, ignored=False)"),
    (MismatchLocation(-1, 0, 0, 0, 0.0), "MismatchLocation(scale=-1, channel=0, y=0, x=0, deviation=0.0)"),
    (WeaveFlops((1, 2), 3), "WeaveFlops(per_iteration=(1, 2), precompute=3)"),
    (BoxTable([], [], np.zeros((0, 4))),
     "BoxTable(image_id=[], class_id=[], boxes=array([], shape=(0, 4), dtype=float64), score=None, ignored=None)"),
    (EvalReport({}, {}, 0, 0, {}), "EvalReport(ap={}, mean_ap={}, gt_count=0, det_count=0, positives={}, notes=())"),
])
def test_pinned_repr(record, text):
    assert repr(record) == text


def test_validation_message_shows_the_record_repr():
    with pytest.raises(ValidationError, match=r"^ground-truth box must have positive area, got "
                       r"BBox\(xmin=0\.0, ymin=0\.0, xmax=0\.0, ymax=1\.0\)$"):
        GroundTruth("a", BBox(0, 0, 0, 1), 0)
