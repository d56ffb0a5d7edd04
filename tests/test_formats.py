"""The writers rewrite a file in place: opened without O_TRUNC and cut after
the new bytes. Whatever the file held before, it ends as a fresh write of
the same output would leave it, also when a write fails part-way."""

import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weavenet.detect import BBox
from weavenet.evaluation import DetectionRecord, GroundTruth
from weavenet.formats import write_csv, write_detections, write_ground_truth

coords = st.floats(-1e6, 1e6)
image_ids = st.text(min_size=1, max_size=6)
class_ids = st.integers(0, 10**6)


@st.composite
def boxes(draw):
    x0, y0 = draw(coords), draw(coords)
    return BBox(x0, y0, x0 + draw(st.floats(1.0, 1e3)), y0 + draw(st.floats(1.0, 1e3)))


detections = st.builds(DetectionRecord, image_ids, boxes(), st.floats(0.0, 1.0), class_ids)
ground_truths = st.builds(GroundTruth, image_ids, boxes(), class_ids, st.booleans())
# cells with quotes, separators and line breaks, which the CSV writer quotes
csv_rows = st.lists(st.text(st.sampled_from('a,"\n\r é'), max_size=5), min_size=3, max_size=3)

# (writer, strategy of one element, the n-th of a fixed sequence of elements)
# for each writer; a CSV's elements are its rows, under a fixed header
WRITERS = {
    "detections": (
        write_detections, detections, lambda n: DetectionRecord(f"img{n}", BBox(n, 0.5, n + 1.5, 2.5), 0.25, n % 3)
    ),
    "ground truth": (
        write_ground_truth, ground_truths, lambda n: GroundTruth(f"img{n}", BBox(n, 0.5, n + 1.5, 2.5), n % 3, n % 2 == 0)
    ),
    "csv": (lambda path, rows: write_csv(path, ["a", "b", "c"], rows), csv_rows, lambda n: [str(n), "x,y", 'q"\n']),
}


def elements(kind: str, count: int, start: int = 0) -> list:
    return [WRITERS[kind][2](n) for n in range(start, start + count)]


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# the examples share tmp_path: "out" starts from the last example's bytes,
# one more old file, and "fresh" is removed before it is written
@pytest.mark.parametrize("kind", sorted(WRITERS))
@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rewrite_leaves_no_stale_tail(tmp_path, kind, data):
    write, element, _ = WRITERS[kind]
    old = data.draw(st.lists(element, max_size=8), label="old")
    new = data.draw(st.one_of(st.just([]), st.lists(element, max_size=8)), label="new")
    path, fresh = tmp_path / "out", tmp_path / "fresh"
    if fresh.exists():
        fresh.unlink()
    write(str(path), old)
    write(str(path), new)
    write(str(fresh), new)
    assert read_bytes(path) == read_bytes(fresh)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_write_that_fails_part_way_leaves_only_the_new_prefix(tmp_path, kind):
    write = WRITERS[kind][0]
    records = elements(kind, 2)

    def failing():
        yield from records
        raise RuntimeError("third element")

    path, prefix = tmp_path / "out", tmp_path / "prefix"
    write(str(path), elements(kind, 40, start=100))  # longer than the new prefix
    with pytest.raises(RuntimeError, match="third element"):
        write(str(path), failing())
    write(str(prefix), records)
    assert read_bytes(path) == read_bytes(prefix)


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_rewrite_keeps_inode_links_and_mode(tmp_path, kind):
    write = WRITERS[kind][0]
    path = tmp_path / "out"
    write(str(path), elements(kind, 20))
    os.chmod(path, 0o640)
    os.link(path, tmp_path / "hard")
    os.symlink(path, tmp_path / "soft")
    before = os.stat(path)
    new = elements(kind, 1, start=50)
    write(str(tmp_path / "soft"), new)
    write(str(tmp_path / "fresh"), new)
    after = os.stat(path)
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    for name in ("out", "hard", "soft"):
        assert read_bytes(tmp_path / name) == read_bytes(tmp_path / "fresh")


def test_new_file_gets_the_mode_open_gives(tmp_path):
    write_detections(str(tmp_path / "out"), [])
    with open(tmp_path / "reference", "w"):
        pass
    assert stat.S_IMODE(os.stat(tmp_path / "out").st_mode) == stat.S_IMODE(os.stat(tmp_path / "reference").st_mode)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_pipe_is_written_and_not_truncated(tmp_path, kind):
    write = WRITERS[kind][0]
    records = elements(kind, 3)
    write(str(tmp_path / "fresh"), records)
    read_end, write_end = os.pipe()
    with os.fdopen(read_end, "rb") as reader:
        try:
            write(f"/dev/fd/{write_end}", records)  # a small output fits the pipe's buffer
        finally:
            os.close(write_end)
        assert reader.read() == read_bytes(tmp_path / "fresh")
