"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the workload seed, runs one operation at
a time through weavenet's public functions, and checks every operation's
output. The package only ever sees generated inputs. `pkg` is the namespace
of freshly imported weavenet modules that `run.py` hands in.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from time import perf_counter

import numpy as np

# Output digests at the default workload seed: weavenet keeps these bytes
# identical, so a change that moves them fails the check.
REFERENCE_SEED = 0
REFERENCE_DIGESTS = {
    "detect-stream": "c1f3f08060b64792b7f22e04e2a8016ad1c945aad6d766ab3663cb146af22ddf",
    "fusion-t5": "eba184d7363bf5fa2bae24f7fc8080da037386e9f47a624e578afc4d088f2bfd",
    "eval-dense": "8881e9952d1b40d12180bc1c2c8c628400c02be629b16beb650cfbd29c766d9c",
}

EQUIVALENCE_TOL = 1e-9
# refine_boxes averages already-clipped coordinates, so a refined coordinate
# can pass the image edge by the rounding of that average (seen: 320 + 5.7e-14).
# The check allows that much, counts it, and fails anything larger.
EDGE_ROUNDING = 8 * float(np.finfo(np.float64).eps)


def _call_cli(pkg, argv: list[str]) -> None:
    """One `weavenet` command through cli.main, its console output swallowed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"weavenet {argv[0]} exited {code}: {err.getvalue().strip()}")


class Workload:
    name = ""
    op_name = "op"  # what one operation is called in the printed metric names
    min_ops = 1  # operations every run completes, however slow the host
    reference_ops = 1  # operations whose outputs form the reference digest

    def __init__(self, pkg, seed: int, workdir: str):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.notes: dict[str, int] = {}  # counted findings that are not failures

    def setup(self) -> None:
        """Build the inputs and reused state; timed as set-up."""

    def traced_setup(self) -> None:
        """The part of set-up that calls weavenet, repeated under tracing."""

    def run(self, i: int):
        """Operation i; returns what check() inspects."""
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[str | None, bytes]:
        """(error or None, the output bytes that identify the result)."""
        raise NotImplementedError

    def pass_times(self, result) -> dict[str, float]:
        return {}


class DetectStream(Workload):
    """One `weavenet demo` image per operation, each with a new image seed."""

    name = "detect-stream"
    op_name = "image"
    min_ops = 4
    reference_ops = 3
    config = {"iterations": 3}

    def setup(self) -> None:
        run_config = self.pkg.config.RunConfig(**self.config)
        self.limits = (run_config.keep_top_k, run_config.input_size, run_config.score_floor)
        self.config_path = os.path.join(self.workdir, "demo-config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.out_path = os.path.join(self.workdir, "detections.jsonl")

    def image_seed(self, i: int) -> int:
        digest = hashlib.sha256(f"{self.seed}:{i}".encode()).digest()
        return int.from_bytes(digest[:4], "little") >> 1

    def run(self, i: int):
        _call_cli(self.pkg, [
            "demo", "--config", self.config_path, "--seed", str(self.image_seed(i)),
            "--out", self.out_path,
        ])
        return self.out_path

    def check(self, i: int, path) -> tuple[str | None, bytes]:
        with open(path, "rb") as fh:
            data = fh.read()
        keep_top_k, size, floor = self.limits
        slack = EDGE_ROUNDING * size
        records = self.pkg.formats.read_detections(path)
        if len(records) > keep_top_k:
            return f"{len(records)} detections exceed keep_top_k {keep_top_k}", data
        for r in records:
            coords = r.box.coords()
            if not all(-slack <= c <= size + slack for c in coords):
                return f"box {coords} outside [0, {size}]", data
            past = sum(1 for c in coords if not 0.0 <= c <= size)
            if past:
                key = "box coordinates past the image edge by rounding"
                self.notes[key] = self.notes.get(key, 0) + past
            if not floor < r.score <= 1.0:
                return f"score {r.score} outside ({floor}, 1]", data
        return None, data


class FusionT5(Workload):
    """One naive and one simplified weave_forward pass per operation (k=16, T=5)."""

    name = "fusion-t5"
    op_name = "pair"
    min_ops = 3
    geometry = {"k": 16, "iterations": 5}

    def setup(self) -> None:
        weave = self.pkg.weave
        cfg = weave.WeaveConfig(**self.geometry, seed=self.seed)
        rng = np.random.default_rng([self.seed, 5])
        self.pyramid = [
            self.pkg.tensor_core.Tensor(rng.normal(size=(c, s, s)))
            for c, s in zip(cfg.raw_channels, cfg.pyramid_sizes)
        ]
        self.cfg = cfg
        self.traced_setup()
        self.flop_ratio = (
            weave.flops_weave(cfg, "naive").total / weave.flops_weave(cfg, "simplified").total
        )

    def traced_setup(self) -> None:
        self.params = self.pkg.weave.init_params(self.cfg)

    def run(self, i: int):
        # alternate which mode goes first, so neither always follows the other
        modes = ("naive", "simplified") if i % 2 == 0 else ("simplified", "naive")
        outputs, seconds = {}, {}
        for mode in modes:
            t0 = perf_counter()
            outputs[mode] = self.pkg.weave.weave_forward(self.pyramid, self.cfg, self.params, mode)
            seconds[mode] = perf_counter() - t0
        return outputs, seconds

    def pass_times(self, result) -> dict[str, float]:
        return result[1]

    def check(self, i: int, result) -> tuple[str | None, bytes]:
        naive, simplified = result[0]["naive"], result[0]["simplified"]
        data = b"".join(t.data.tobytes() for t in naive + simplified)
        worst = self.pkg.weave.compare_outputs(naive, simplified)
        if not worst.deviation <= EQUIVALENCE_TOL:
            return f"naive and simplified differ by {worst.deviation:.3e}", data
        return None, data


class EvalDense(Workload):
    """One `weavenet eval` over seeded JSONL files per operation."""

    name = "eval-dense"
    op_name = "eval"
    min_ops = 3
    images = 4
    classes = 3
    gt_per_class = 10  # per image
    duplicates = 5  # jittered detections per ground-truth box
    false_positives = 40  # per image
    input_size = 320.0

    def setup(self) -> None:
        gts, dets = self.generate()
        self.gt_counts = {}
        for g in gts:
            self.gt_counts[g["class_id"]] = self.gt_counts.get(g["class_id"], 0) + 1
        self.gt_path = os.path.join(self.workdir, "gt.jsonl")
        self.dets_path = os.path.join(self.workdir, "dets.jsonl")
        self.report_path = os.path.join(self.workdir, "report.csv")
        for path, rows in ((self.gt_path, gts), (self.dets_path, dets)):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(json.dumps(r) + "\n" for r in rows)

    def generate(self) -> tuple[list[dict], list[dict]]:
        """Ground truth whose sides span all three strata, and detections of it.

        Each ground-truth box gets `duplicates` jittered copies with random
        scores; each image also gets unmatched false positives.
        """
        rng = np.random.default_rng([self.seed, 11])
        size = self.input_size

        def box(cx, cy, w, h):
            x0, x1 = max(cx - w / 2, 0.0), min(cx + w / 2, size)
            y0, y1 = max(cy - h / 2, 0.0), min(cy + h / 2, size)
            return {"xmin": float(x0), "ymin": float(y0), "xmax": float(x1), "ymax": float(y1)}

        gts, dets = [], []
        for image in range(self.images):
            image_id = f"img{image}"
            for cls in range(self.classes):
                for _ in range(self.gt_per_class):
                    side = float(np.exp(rng.uniform(np.log(8.0), np.log(160.0))))
                    w, h = side * rng.uniform(0.7, 1.4), side * rng.uniform(0.7, 1.4)
                    cx, cy = rng.uniform(w / 2, size - w / 2), rng.uniform(h / 2, size - h / 2)
                    gts.append({"image_id": image_id, "class_id": cls, **box(cx, cy, w, h)})
                    for _ in range(self.duplicates):
                        jx, jy, jw, jh = rng.normal(0.0, 0.08, size=4)
                        dets.append({
                            "image_id": image_id, "class_id": cls,
                            "score": float(rng.uniform(0.05, 1.0)),
                            **box(cx + jx * w, cy + jy * h, w * np.exp(jw), h * np.exp(jh)),
                        })
            for _ in range(self.false_positives):
                w, h = rng.uniform(8.0, 120.0, size=2)
                cx, cy = rng.uniform(0.0, size, size=2)
                dets.append({
                    "image_id": image_id, "class_id": int(rng.integers(self.classes)),
                    "score": float(rng.uniform(0.01, 0.6)), **box(cx, cy, w, h),
                })
        order = rng.permutation(len(dets))
        return gts, [dets[j] for j in order]

    def run(self, i: int):
        _call_cli(self.pkg, ["eval", self.dets_path, self.gt_path, "--out", self.report_path])
        return self.report_path

    def check(self, i: int, path) -> tuple[str | None, bytes]:
        with open(path, "rb") as fh:
            data = fh.read()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        overall = {}
        for row in rows:
            if row["ap"] and not 0.0 <= float(row["ap"]) <= 1.0:
                return f"AP {row['ap']} outside [0, 1]", data
            if row["stratum"] == "overall":
                overall[int(row["class_id"])] = int(row["positives"])
        if overall != self.gt_counts:
            return f"overall positives {overall} != generated ground truth {self.gt_counts}", data
        return None, data


WORKLOADS = {w.name: w for w in (DetectStream, FusionT5, EvalDense)}


def digest(output_shas: list[str]) -> str:
    """One digest over the SHA-256 of each operation's output bytes."""
    return hashlib.sha256("".join(output_shas).encode()).hexdigest()
