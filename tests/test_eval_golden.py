"""Golden digests of `weavenet eval`.

The SHA-256 of the `--out` CSV and of stdout for the seeded fixture sets and
for hand-built files that reach every branch of the report: ignored boxes, a
class whose ground truth is all ignored, detections for classes without
ground truth, tied scores, integer coordinates and scores, class ids past
int64, blank lines, and a dense random set. The `--out` path in stdout is
replaced by `<out>` before hashing. Reading or evaluating differently must
keep every one of these bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from weavenet.cli import main

BOX_KEYS = ("xmin", "ymin", "xmax", "ymax")


def line(image, cls, box, score=None, ignored=None):
    obj = {"image_id": image, "class_id": cls}
    if score is not None:
        obj["score"] = score
    obj.update(zip(BOX_KEYS, box))
    if ignored is not None:
        obj["ignored"] = ignored
    return json.dumps(obj)


def text(lines):
    return "".join(f"{row}\n" for row in lines)


def ignored_boxes():
    """Two images and two classes; some boxes ignored, detections on every kind of box."""
    gts, dets = [], []
    for image in ("a", "b"):
        for cls in (0, 1):
            for rank in range(6):
                x, side = 40.0 * rank, 4.0 + 5.0 * rank + cls
                box = (x, 10.0, x + side, 10.0 + side)
                flag = (True if rank % 3 == 1 else False) if image == "a" else None
                gts.append(line(image, cls, box, ignored=flag))
                dets.append(line(image, cls, (x + 0.5, 10.0, x + side + 0.5, 10.0 + side),
                                 score=0.9 - 0.1 * rank - 0.01 * cls))
                if rank % 2 == 0:  # a duplicate that finds its box consumed
                    dets.append(line(image, cls, box, score=0.35 + 0.01 * rank))
        dets.append(line(image, 0, (300.0, 300.0, 310.0, 310.0), score=0.95))
    return text(dets), text(gts)


def all_ignored_class():
    """Class 2 has only ignored ground truth: no scorable boxes overall."""
    gts = [line("a", 0, (0.0, 0.0, 10.0 + i, 10.0)) for i in range(4)]
    gts += [line("a", 2, (50.0, 50.0, 60.0 + i, 60.0), ignored=True) for i in range(3)]
    dets = [line("a", 0, (0.0, 0.0, 10.0 + i, 10.0), score=0.5 + 0.1 * i) for i in range(3)]
    dets += [line("a", 2, (50.0, 50.0, 60.0, 60.0), score=0.8)]
    return text(dets), text(gts)


def classes_without_ground_truth():
    gts = [line("a", 1, (0.0, 0.0, 8.0 * (i + 1), 8.0)) for i in range(5)]
    dets = [line("a", 1, (0.0, 0.0, 8.0 * (i + 1), 8.0), score=0.3 + 0.1 * i) for i in range(5)]
    dets += [line("a", 7, (0.0, 0.0, 5.0, 5.0), score=0.9), line("b", 4, (1.0, 1.0, 2.0, 2.0), score=0.2)]
    return text(dets), text(gts)


def tied_scores():
    """Every score equal; boxes of equal overlap with a detection between them."""
    gts = [line("a", 0, (0.0, 0.0, 2.0, 1.0)), line("a", 0, (2.0, 0.0, 4.0, 1.0)),
           line("a", 0, (10.0, 10.0, 14.0, 14.0)), line("a", 0, (10.0, 10.0, 14.0, 14.0), ignored=True),
           line("b", 0, (0.0, 0.0, 3.0, 3.0))]
    dets = [line("a", 0, (1.0, 0.0, 3.0, 1.0), score=0.5), line("a", 0, (1.0, 0.0, 3.0, 1.0), score=0.5),
            line("a", 0, (10.0, 10.0, 14.0, 14.0), score=0.5), line("a", 0, (10.0, 10.0, 14.0, 14.0), score=0.5),
            line("a", 0, (11.0, 11.0, 14.0, 14.0), score=0.5), line("b", 0, (0.0, 0.0, 3.0, 3.0), score=0.5),
            line("b", 0, (0.0, 0.0, 3.0, 3.0), score=0.5)]
    return text(dets), text(gts)


def integer_values():
    """Integer coordinates and scores, which the record types turn into floats."""
    gts = [line("a", 0, (0, 0, 10 + 4 * i, 10)) for i in range(6)] + [line("a", 1, (5, 5, 9, 9))]
    dets = [line("a", 0, (0, 0, 10 + 4 * i, 10), score=1 if i % 2 else 0) for i in range(6)]
    dets += [line("a", 1, (5, 5, 9, 9), score=1), line("a", 1, (5.0, 5.0, 9.0, 9.0), score=0.5)]
    return text(dets), text(gts)


def huge_class_ids():
    ids = (0, 2**63, 2**64 + 1, 10**20)
    gts = [line("a", cls, (0.0, 0.0, 5.0 + i, 5.0)) for cls in ids for i in range(3)]
    dets = [line("a", cls, (0.0, 0.0, 5.0 + i, 5.0), score=0.2 + 0.1 * i) for cls in ids for i in (0, 2)]
    dets += [line("a", 2**70, (0.0, 0.0, 1.0, 1.0), score=0.5)]
    return text(dets), text(gts)


def blank_lines():
    dets, gts = all_ignored_class()
    spaced = lambda t: "\n  \n" + t.replace("\n", "\n\n\t\n", 2) + "\n \n"  # noqa: E731
    return spaced(dets), spaced(gts)


def empty_detections():
    return "", text(line("a", 0, (0.0, 0.0, 3.0, 3.0 + i)) for i in range(4))


def dense_random():
    """Three images and classes, jittered duplicates, ignored boxes, stray classes."""
    rng = np.random.default_rng(7)
    gts, dets = [], []
    for image in ("p", "q", "r"):
        for cls in range(3):
            for _ in range(8):
                side = float(np.exp(rng.uniform(1.5, 4.5)))
                x, y = (float(v) for v in rng.uniform(0.0, 200.0, size=2))
                box = (x, y, x + side, y + side * float(rng.uniform(0.6, 1.6)))
                gts.append(line(image, cls, box, ignored=bool(rng.random() < 0.15)))
                for _ in range(int(rng.integers(0, 4))):
                    jitter = rng.normal(0.0, 0.1 * side, size=4)
                    x0, x1 = sorted((box[0] + jitter[0], box[2] + jitter[2]))
                    y0, y1 = sorted((box[1] + jitter[1], box[3] + jitter[3]))
                    dets.append(line(image, cls, (float(x0), float(y0), float(x1), float(y1)),
                                     score=round(float(rng.uniform()), 2)))
        for _ in range(10):
            x, y = (float(v) for v in rng.uniform(0.0, 250.0, size=2))
            dets.append(line(image, int(rng.integers(4)), (x, y, x + 20.0, y + 15.0),
                             score=round(float(rng.uniform()), 2)))
    order = rng.permutation(len(dets))
    return text(dets[i] for i in order), text(gts)


HAND_BUILT = {
    "ignored-boxes": ignored_boxes,
    "all-ignored-class": all_ignored_class,
    "classes-without-ground-truth": classes_without_ground_truth,
    "tied-scores": tied_scores,
    "integer-values": integer_values,
    "huge-class-ids": huge_class_ids,
    "blank-lines": blank_lines,
    "empty-detections": empty_detections,
    "dense-random": dense_random,
}


def eval_digests(case: str, tmp_path, capsys) -> tuple[str, str]:
    """(CSV digest, stdout digest) of `weavenet eval --out` on one case."""
    if case.startswith("fixtures-"):
        fx = str(tmp_path / "fx")
        assert main(["fixtures", "--seed", case.split("-")[1], "--out", fx]) == 0
        dets, gt = f"{fx}/detections.jsonl", f"{fx}/ground_truth.jsonl"
    else:
        dets_text, gt_text = HAND_BUILT[case]()
        dets, gt = tmp_path / "dets.jsonl", tmp_path / "gt.jsonl"
        dets.write_text(dets_text, encoding="utf-8")
        gt.write_text(gt_text, encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "report.csv"
    assert main(["eval", str(dets), str(gt), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    return hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest()


GOLDEN = {  # recorded before the column reader and the one-pass evaluator
    "all-ignored-class": (
        "966ddcff3f671f9667e378494fcfbfd34c0be5d849379ea99b1206e75b94c6d6",
        "dd17c3585a5f91c0afd7f1b35e2b8508b1b3171391197f3345cfdcdf82197c4b",
    ),
    "blank-lines": (
        "966ddcff3f671f9667e378494fcfbfd34c0be5d849379ea99b1206e75b94c6d6",
        "dd17c3585a5f91c0afd7f1b35e2b8508b1b3171391197f3345cfdcdf82197c4b",
    ),
    "classes-without-ground-truth": (
        "c79b99d458ee8b756ed9aa8e8430e797cdbe5fbd1bb625fef2bbf8b63074bff9",
        "28558b4f2576b98e959ee929406806e2ee54da320aad4a2d1e21ef3983f8896d",
    ),
    "dense-random": (
        "ceca1349e4aa767235532950b5d7e3d6054205484bb59db8cb388a35e6f4d893",
        "d44e421dbb33b1f8a3f4f4eb616cba9b0e06b0e6155eff09fc1000437393f3d3",
    ),
    "empty-detections": (
        "4877994a89103a24ee0630be6c59fc8b600d24f9bc4dee74f214a4def3395819",
        "1bcc2b0ff23974520e52f73cae5956ae78a661c52814348f406c0e6e6f33d293",
    ),
    "fixtures-0": (
        "f741120817d0e3eeca531bbd4d4fc86268b6f50eb3b34df28c3b3bc422506358",
        "204a88cf775c3650453775a317de622795b48b2938c6ca61b0583a068fca98c7",
    ),
    "fixtures-1": (
        "f741120817d0e3eeca531bbd4d4fc86268b6f50eb3b34df28c3b3bc422506358",
        "204a88cf775c3650453775a317de622795b48b2938c6ca61b0583a068fca98c7",
    ),
    "fixtures-2": (
        "f741120817d0e3eeca531bbd4d4fc86268b6f50eb3b34df28c3b3bc422506358",
        "204a88cf775c3650453775a317de622795b48b2938c6ca61b0583a068fca98c7",
    ),
    "huge-class-ids": (
        "4748f4d68c0c3ef9e972ab00dd665bbb62169e890214112e0f36bcbbcfe70ef0",
        "3136cc74c59f945015d985bba936c27b3640832883ed418386ccd8a71ad009c3",
    ),
    "ignored-boxes": (
        "c39a1d5ec2502cdbe64cceeb85781caa094dedc533067c12798367358c97c3d5",
        "b30523dd2e80c0847f160506d3c62671c50331f422bb6eef93b73ff6b6fc8048",
    ),
    "integer-values": (
        "8a22cd0e8bb54e41adabe4be76beab12791ef577ce6f1d221be942f86fa2e23e",
        "bd2f84b414c3cdfcd21d2ec3e68b7dca1836ba141487d2e326d9fccb20aadf5c",
    ),
    "tied-scores": (
        "1112ee2dc57efea646466f9bc99dee4de70bf8a7c57d4aae8d2a01502cfb0440",
        "08830005bec511c9111071c62370d926aa33549bc54afffe19259bb9555245f3",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_eval_output_is_unchanged(case, tmp_path, capsys):
    assert eval_digests(case, tmp_path, capsys) == GOLDEN[case]
