"""Golden bytes of `weavenet demo --out`, and the two fusion modes' detections.

The digests were recorded from the scalar (one Python object per box)
post-processing that the array pipeline replaced, so any change to the
operation order of decode, NMS or refinement shows up here as a changed
SHA-256, not only as run-to-run drift.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weavenet import detect
from weavenet.bench import EQUIVALENCE_TOL
from weavenet.cli import main
from weavenet.config import RunConfig
from weavenet.detect import ANCHOR_MODES
from weavenet.pipeline import run_demo
from weavenet.weave import DIRECTION_MASKS

# (seed, anchors, iterations, refine, mode, sha256 of the detections file)
GOLDEN = [
    (0, "A", 1, True, "simplified", "ef25742ac8678fce20b7394149cbd1d70f65093296ccaf83c10e2e701da38f11"),
    (0, "A", 1, False, "simplified", "24d800d5ca2a1d640c013a122ee61f09baf7175581837fb5066112dd23193461"),
    (0, "A", 3, True, "simplified", "06f9872d1933d7ae69e432e7681fd52851d71deb22647f005cc8bfff24761783"),
    (0, "A", 3, False, "simplified", "3fb01e32e606da54766672048ef8cdcc030595e2c668590115258bd7d36a5639"),
    (0, "B", 1, True, "simplified", "c524c7d045a7caa5b0a443c3a82db35baf5465320d963de84c115c104371c19b"),
    (0, "B", 1, False, "simplified", "84532e7d71accc6e3cc2276943730732719b674fdb996bbba6cb02aa3e809320"),
    (0, "B", 3, True, "simplified", "c1007cb5024f29a9394e0ddaacdae53cfa3d9c5ede3775671c7cd4d70215661b"),
    (0, "B", 3, False, "simplified", "7d546bb8d8156c620526a803f2ce0d522197c9ab54570dc7b00b93b51a041645"),
    (3, "A", 1, True, "simplified", "9d7f78ce09328abcebe23801a7931e23fddb87adaf08b76654bc54f47322c6f0"),
    (3, "A", 1, False, "simplified", "dc6161b9a03a14f80e2752e638899946c4ed19e7f1acf2e12e3a8354cf545312"),
    (3, "A", 3, True, "simplified", "5ee48c09d94323bb90cb47f2613027981a18c533d1df0606769505cf8e3882c4"),
    (3, "A", 3, False, "simplified", "909da0fbb9442f618723863f4c32a5160b1ad0acc67bb4ee4093ddad04b2d72a"),
    (3, "B", 1, True, "simplified", "0056da0a677ca410503ecaeaef9625e32f7f49a9bb286106952cca83c7c89002"),
    (3, "B", 1, False, "simplified", "b1f9e8ad5558d9800a9c72a027791c705dcbed854470b9a13b07cdf4dddec2cd"),
    (3, "B", 3, True, "simplified", "965dd0a409d8c27ee5f78718da1401ddf0a1dc097d784ff336a17c0bea4be69e"),
    (3, "B", 3, False, "simplified", "2d2042496a1e93297d77df3dda37433276ca9dff23e86194d32972c986ac850d"),
    (7, "A", 1, True, "simplified", "ca44fc26acaa03a5f677ae91470b4dbe71942f5913591647a926166bca8f9f08"),
    (7, "A", 1, False, "simplified", "a66059c7f1067d04ab7d8406b2e052411fe63ab45bf888f9f358b13759d60a64"),
    (7, "A", 3, True, "simplified", "ccf732edd5bcc3c483c59a48e642bd3aefce160d502527182697e14cd83219b9"),
    (7, "A", 3, False, "simplified", "34c18f321cc1f72589c9ad95e80f5a45d52ad8c359176dbb184f6af98b116e2f"),
    (7, "B", 1, True, "simplified", "1189a1b81e1aff413841a7deab1f73d66681cdbee63f81550e3f75d5156315ff"),
    (7, "B", 1, False, "simplified", "35b55c3241ee1b55cfac673884c8dddb2ececedab9b2d746d05baeef4758369f"),
    (7, "B", 3, True, "simplified", "9f172b3a7201e92a43cdddb1accf81a4b5e5618b899880102696a8e7034c698d"),
    (7, "B", 3, False, "simplified", "95c21365190bb9a619ff75c03bf3082ecbf5fd8fe227b2665e6c88ec1a354d40"),
    (5, "A", 2, True, "naive", "273e06a45a8bb5b88c2c7131e8218b0220db890b094f9098a248c26e09a97147"),
]


@pytest.mark.parametrize(
    "seed,anchors,iterations,refine,mode,digest",
    GOLDEN,
    ids=[
        f"seed{s}-{a}-T{t}-{'refine' if r else 'plain'}-{m}" for s, a, t, r, m, _ in GOLDEN
    ],
)
def test_demo_bytes_match_golden(tmp_path, capsys, seed, anchors, iterations, refine, mode, digest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"iterations": iterations}), encoding="utf-8")
    out = tmp_path / "dets.jsonl"
    argv = ["demo", "--config", str(config), "--seed", str(seed), "--anchors", anchors,
            "--mode", mode, "--out", str(out)]
    if not refine:
        argv.append("--no-refine")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@given(
    seed=st.integers(0, 2**16),
    iterations=st.integers(0, 3),
    anchors=st.sampled_from(ANCHOR_MODES),
    masks=st.sampled_from(sorted(DIRECTION_MASKS)),
)
@settings(deadline=None, max_examples=20)
def test_naive_and_simplified_demo_give_the_same_detections(seed, iterations, anchors, masks):
    # the 1e-9 weave gate carried through heads, top-k, NMS and refinement:
    # a near-tie flipped by the simplified sums would move or drop a detection
    top_down, bottom_up = DIRECTION_MASKS[masks]
    config = RunConfig(
        seed=seed, iterations=iterations, anchor_mode=anchors,
        enable_top_down=top_down, enable_bottom_up=bottom_up,
    )
    naive = run_demo(config, mode="naive")
    simplified = run_demo(config, mode="simplified")
    assert [d.class_id for d in naive] == [d.class_id for d in simplified]
    for i, (a, b) in enumerate(zip(naive, simplified)):
        assert abs(a.score - b.score) <= EQUIVALENCE_TOL, (i, a.score, b.score)
        for field, x, y in zip(("xmin", "ymin", "xmax", "ymax"), a.box.coords(), b.box.coords()):
            assert abs(x - y) <= EQUIVALENCE_TOL * config.input_size, (i, field, x, y)


def test_nms_stops_at_the_keep_top_k_th_survivor(monkeypatch):
    # seed 0, T=3: 1,200 candidates in the pool, of which the first ~220 in
    # output order decide all 200 outputs; suppressing every class's 400
    # candidates in full took 264,000 overlaps
    overlaps = []
    real = detect.iou_matrix

    def counting(a, b):
        overlaps.append(len(a) * len(b))
        return real(a, b)

    monkeypatch.setattr(detect, "iou_matrix", counting)
    config = RunConfig(iterations=3, seed=0)
    assert len(run_demo(config, refine=False)) == config.keep_top_k
    assert 0 < sum(overlaps) <= 40_000
