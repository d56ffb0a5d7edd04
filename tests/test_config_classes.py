"""The two config classes behave as the frozen dataclasses they used to be.

WeaveConfig and RunConfig keep `@dataclass` only for their field table;
weave.FrozenConfig writes the methods `@dataclass(frozen=True)` would
generate. Each class is compared, over random valid field values, with a
frozen dataclass twin declared here with the same fields and defaults:
construction (and its TypeErrors), repr, equality, hashing, the field
table, `dataclasses.replace`, copies, pickles and FrozenInstanceError.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weavenet.config import RunConfig
from weavenet.weave import WeaveConfig


@dataclass(frozen=True)
class WeaveConfigTwin:
    k: int = 16
    iterations: int = 1
    woven_scales: tuple[int, ...] = (0, 1, 2, 3)
    raw_channels: tuple[int, ...] = (32,) * 6
    pyramid_sizes: tuple[int, ...] = (40, 20, 10, 5, 3, 1)
    enable_top_down: bool = True
    enable_bottom_up: bool = True
    seed: int = 0


@dataclass(frozen=True)
class RunConfigTwin(WeaveConfigTwin):
    input_size: int = 320
    anchor_mode: str = "A"
    nms_iou_threshold: float = 0.45
    refine_iou_threshold: float = 0.6
    score_floor: float = 0.01
    pre_nms_top_k: int = 400
    keep_top_k: int = 200
    num_classes: int = 3
    corrupt_block: tuple[int, int] | None = None


TWINS = {WeaveConfig: WeaveConfigTwin, RunConfig: RunConfigTwin}
GEOMETRY = ("woven_scales", "raw_channels", "pyramid_sizes")
unit = st.floats(0.0, 1.0) | st.sampled_from([0, 1])


@st.composite
def config_values(draw, cls) -> dict:
    """Keyword arguments of a valid cls. The geometry fields are given
    together or not at all (the default geometry); any other field may be
    left to its default."""
    coarsest = draw(st.sampled_from([1, 2, 3, 5]))
    woven = draw(st.integers(1, 3))
    sizes = (*(coarsest * 2**i for i in reversed(range(woven))), *draw(st.lists(st.integers(1, 3), max_size=1)))
    values = {
        "k": draw(st.integers(1, 8)),
        "iterations": draw(st.integers(0, 4)),
        "woven_scales": tuple(range(woven)),
        "raw_channels": tuple(draw(st.lists(st.integers(1, 8), min_size=len(sizes), max_size=len(sizes)))),
        "pyramid_sizes": sizes,
        "enable_top_down": draw(st.booleans()),
        "enable_bottom_up": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**64)),
    }
    if cls is RunConfig:
        values.update(
            input_size=draw(st.integers(1, 10**4)),
            anchor_mode=draw(st.sampled_from(["A", "B"])),
            nms_iou_threshold=draw(unit),
            refine_iou_threshold=draw(unit),
            score_floor=draw(unit),
            pre_nms_top_k=draw(st.integers(1, 1000)),
            keep_top_k=draw(st.integers(1, 1000)),
            num_classes=draw(st.integers(1, 50)),
            corrupt_block=draw(st.none() | st.tuples(st.integers(0, woven - 1), st.integers(2, 9))),
        )
    kept = draw(st.sets(st.sampled_from(sorted(set(values) - set(GEOMETRY)))))
    if draw(st.booleans()):
        kept |= set(GEOMETRY)
    return {name: value for name, value in values.items() if name in kept}


def field_values(config) -> list:
    return [getattr(config, f.name) for f in fields(config)]


def field_table(cls) -> list[tuple]:
    return [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash, f.compare, f.kw_only, f.metadata)
            for f in fields(cls)]


def raised(cls, call) -> tuple[type, str]:
    """The type and message of the exception call raises, with the class's
    name where a twin's message names the twin."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value).replace(TWINS[cls].__name__, cls.__name__)


@pytest.mark.parametrize("cls", TWINS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_config_behaves_as_its_frozen_twin(cls, data):
    twin_cls = TWINS[cls]
    kwargs = data.draw(config_values(cls), label="kwargs")
    config, twin = cls(**kwargs), twin_cls(**kwargs)
    values = field_values(config)

    # construction: by keyword, positionally, with defaults for the rest
    assert values == field_values(twin)
    assert cls(*values) == config and twin_cls(*values) == twin
    assert field_values(cls()) == field_values(twin_cls())
    assert list(vars(config).items()) == list(vars(twin).items())

    # the generated __init__'s TypeErrors
    for call in (
        lambda c: c(*values, 0),
        lambda c: c(values[0], k=values[0]),
        lambda c: c(**kwargs, unknown=0),
    ):
        assert raised(cls, lambda: call(cls)) == raised(cls, lambda: call(twin_cls))

    # repr, equality and hashing over the fields in order
    assert repr(config) == repr(twin).replace(twin_cls.__name__, cls.__name__, 1)
    assert hash(config) == hash(twin)
    other_kwargs = data.draw(config_values(cls), label="other kwargs")
    other, other_twin = cls(**other_kwargs), twin_cls(**other_kwargs)
    assert (config == other) is (twin == other_twin) and (config != other) is (twin != other_twin)
    assert config == cls(**kwargs) and not config != cls(**kwargs)
    for stranger in (twin, tuple(values), values, WeaveConfig() if cls is RunConfig else RunConfig()):
        assert config != stranger and not config == stranger

    # the field table, and replace
    assert field_table(cls) == field_table(twin_cls)
    assert cls.__match_args__ == twin_cls.__match_args__
    other_values = {f.name: getattr(other, f.name) for f in fields(cls)}
    independent = sorted(set(other_values) - {*GEOMETRY, "corrupt_block"})  # valid with any geometry
    changes = {name: other_values[name] for name in data.draw(st.sets(st.sampled_from(independent)), label="changed")}
    replaced = replace(config, **changes)
    assert type(replaced) is cls and field_values(replaced) == field_values(replace(twin, **changes))
    assert raised(cls, lambda: replace(config, unknown=0)) == raised(cls, lambda: replace(twin, unknown=0))

    # copies and pickles: the instance dict, restored as for the twin
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        build, args, state, *rest = config.__reduce_ex__(protocol)
        twin_build, twin_args, twin_state, *twin_rest = twin.__reduce_ex__(protocol)
        assert (build, args, state, rest) == (twin_build, (cls,), twin_state, twin_rest) and twin_args == (twin_cls,)
        clone = pickle.loads(pickle.dumps(config, protocol))
        assert type(clone) is cls and list(vars(clone).items()) == list(vars(config).items())
    for clone in (copy.copy(config), copy.deepcopy(config)):
        assert type(clone) is cls and clone == config and list(vars(clone).items()) == list(vars(config).items())

    # frozen: every field and any other name refuse assignment and deletion
    for name in [f.name for f in fields(cls)] + ["unknown"]:
        for obj in (config, twin):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(obj, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(obj, name)
    assert field_values(config) == values
