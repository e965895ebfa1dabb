"""Property tests of the config codec over the whole ``RunConfig`` tree."""

import json
import math
import re
import typing
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qeloop import cli
from qeloop.config import ConfigError
from qeloop.trainer import RunConfig

DEFAULT_JSON = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def default_doc() -> dict:
    return json.loads(DEFAULT_JSON.read_text())


def walk(node: dict, path: str = ""):
    """Every (dotted path, value) below ``node``, sections before their keys."""
    for key, value in node.items():
        key_path = f"{path}.{key}" if path else key
        yield key_path, value
        if isinstance(value, dict):
            yield from walk(value, key_path)


def node_at(doc: dict, path: str) -> dict:
    for part in path.split(".") if path else ():
        doc = doc[part]
    return doc


SECTIONS = [""] + [path for path, value in walk(default_doc()) if isinstance(value, dict)]
LEAVES = {path: value for path, value in walk(default_doc()) if not isinstance(value, dict)}

SCALARS = {
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(),
}

# Values each leaf type must refuse; anything list- or object-shaped is
# wrong for every leaf.
WRONG = {
    bool: st.one_of(st.integers(), st.floats(), st.text(), st.none()),
    int: st.one_of(st.booleans(), st.floats(), st.text(), st.none()),
    float: st.one_of(st.booleans(), st.integers(min_value=2**1024), st.text(), st.none()),
    str: st.one_of(st.booleans(), st.integers(), st.floats(), st.none()),
}
SHAPES = st.one_of(
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(), st.integers(), max_size=2)
)


def typed(tp):
    """Any well-typed value of ``tp``; enum-keyed mappings get every member."""
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(tp, **{f.name: typed(hints[f.name]) for f in fields(tp)})
    if typing.get_origin(tp) is Mapping:
        enum, value_type = typing.get_args(tp)
        return st.fixed_dictionaries({member: typed(value_type) for member in enum})
    return SCALARS[tp]


def test_shipped_config_spells_out_the_run_defaults():
    assert default_doc() == RunConfig().to_dict()


def test_shipped_config_has_69_settable_leaves():
    assert len(LEAVES) == 69


def test_removed_timing_noise_knob_is_an_unknown_key():
    doc = default_doc()
    doc["execution"]["noise_scale"] = 0.0
    with pytest.raises(ConfigError, match="^execution.noise_scale: unknown key$") as exc:
        RunConfig.from_dict(doc)
    assert exc.value.key == "execution.noise_scale"
    with pytest.raises(ConfigError, match="^execution.noise_scale: unknown key$") as exc:
        cli.load_config(str(DEFAULT_JSON), ("execution.noise_scale=0.0",))
    assert exc.value.key == "execution.noise_scale"


@given(typed(RunConfig))
def test_round_trip_through_json(config):
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


@settings(max_examples=200)
@given(section=st.sampled_from(SECTIONS), name=st.text(min_size=1))
def test_unknown_key_rejected_with_its_path(section, name):
    doc = default_doc()
    node = node_at(doc, section)
    assume(name not in node)
    node[name] = 1
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(doc)
    assert exc.value.key == (f"{section}.{name}" if section else name)
    assert exc.value.problem == "unknown key"


@pytest.mark.parametrize("path", sorted(LEAVES))
@settings(max_examples=10)
@given(data=st.data())
def test_wrong_typed_leaf_rejected_with_its_path(path, data):
    value = data.draw(st.one_of(WRONG[type(LEAVES[path])], SHAPES))
    doc = default_doc()
    parent, _, key = path.rpartition(".")
    node_at(doc, parent)[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be ") as exc:
        RunConfig.from_dict(doc)
    assert exc.value.key == path


@pytest.mark.parametrize("path", sorted(path for path, value in LEAVES.items() if type(value) is float))
def test_non_finite_float_rejected_with_its_path(path):
    # json.load parses NaN, Infinity and -Infinity; a config must not hold them.
    parent, _, key = path.rpartition(".")
    for value in (math.nan, math.inf, -math.inf):
        doc = default_doc()
        node_at(doc, parent)[key] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be a finite number, got ") as exc:
            RunConfig.from_dict(json.loads(json.dumps(doc)))
        assert exc.value.key == path


def test_config_file_holding_infinity_is_rejected_with_its_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"loop": {"modifier_scale": Infinity}}')
    with pytest.raises(ConfigError, match="^loop.modifier_scale: must be a finite number, got inf$") as exc:
        cli.load_config(str(path))
    assert exc.value.key == "loop.modifier_scale"


@pytest.mark.parametrize("path", SECTIONS[1:])
def test_non_object_section_rejected_with_its_path(path):
    doc = default_doc()
    parent, _, key = path.rpartition(".")
    node_at(doc, parent)[key] = [1]
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: must be an object, got ") as exc:
        RunConfig.from_dict(doc)
    assert exc.value.key == path
