"""The knowledge-snapshot writer against ``json.dump(indent=2, sort_keys=True)``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.knowledge import _SnapshotWriter

AWKWARD = [", ", ": ", '"', "\\", "\n", "\t", "a, b", 'x", "y', "naïve ☃", "測試", "🚀", "\x00", " "]
strings = st.one_of(st.text(max_size=8), st.sampled_from(AWKWARD))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.1]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**30, -(10**30)]),
    floats,
    strings,
    floats.map(np.float64),
)


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(strings, inner, max_size=5),
    )


documents = st.recursive(scalars, containers, max_leaves=40)


def json_dump_text(obj):
    fh = io.StringIO()
    json.dump(obj, fh, indent=2, sort_keys=True)
    return fh.getvalue()


def written(obj):
    fh = io.StringIO()
    _SnapshotWriter(fh.write).dump(obj)
    return fh.getvalue()


@settings(max_examples=300, deadline=None)
@given(documents)
def test_output_equals_json_dump(obj):
    assert written(obj) == json_dump_text(obj)


# Leaf containers: lists, tuples and dicts that hold no container.
leaf_containers = st.one_of(
    st.lists(scalars, min_size=1, max_size=4),
    st.lists(scalars, min_size=1, max_size=4).map(tuple),
    st.dictionaries(strings, scalars, min_size=1, max_size=3),
)


@st.composite
def documents_sharing_leaves(draw):
    """Documents that hold a few leaf objects many times, at one depth and
    at several."""
    pool = draw(st.lists(leaf_containers, min_size=1, max_size=2))
    return draw(st.recursive(st.sampled_from(pool), containers, max_leaves=30))


@settings(max_examples=200, deadline=None)
@given(documents_sharing_leaves())
def test_shared_leaves_output_equals_json_dump(obj):
    assert written(obj) == json_dump_text(obj)


LEAF = [1.5, -0.0, "x"]
EQUAL_BUT_DISTINCT = [[0.0], [-0.0], [1], [1.0], [True], (1,), {"k": 1}, {"k": 1.0}, {"k": True}]


@pytest.mark.parametrize(
    "doc",
    [
        [LEAF, LEAF, LEAF],
        {"a": LEAF, "b": LEAF, "c": [LEAF]},
        {"a": LEAF, "b": [LEAF, {"c": LEAF}], "d": [[LEAF, [LEAF]]], "e": LEAF},
        [[LEAF], LEAF, {"k": [[LEAF]]}, [LEAF]],
        EQUAL_BUT_DISTINCT + EQUAL_BUT_DISTINCT + [EQUAL_BUT_DISTINCT, {"k": EQUAL_BUT_DISTINCT}],
        {"a": EQUAL_BUT_DISTINCT[0], "b": EQUAL_BUT_DISTINCT[1], "c": [EQUAL_BUT_DISTINCT[:2]] * 2},
    ],
    ids=["list-one-depth", "dict-one-depth", "dict-several-depths", "list-several-depths", "equal-values", "zeros"],
)
def test_repeated_leaf_object_equals_json_dump(doc):
    assert written(doc) == json_dump_text(doc)


def test_leaf_text_is_kept_only_for_leaves_met_again():
    shared = [0.25] * 10
    doc = {f"r{i}": {"own": [float(i)] * 10, "shared": shared} for i in range(50)}
    writer = _SnapshotWriter(io.StringIO().write)
    writer.dump(doc)
    # Each of the 51 leaf objects is recorded; only the shared one keeps text.
    assert len(writer._leaves) == 51
    texts = [text for text in writer._leaves.values() if text is not None]
    assert len(texts) == 1 and json.loads(texts[0]) == shared


@pytest.mark.parametrize(
    "bad",
    [{1: 0}, {"k": {"a": 1, 2: 1}}, [{"k": [1]}, {0: [1]}], object(), {"k": object()}, [1, {"x": [{1j}]}]],
    ids=["int-key", "int-key-in-leaf", "int-key-nested", "object", "object-value", "nested-set"],
)
def test_a_value_json_cannot_write_or_a_non_string_key_raises_type_error(bad):
    with pytest.raises(TypeError):
        written(bad)


def test_document_is_written_one_leaf_container_at_a_time():
    rng = np.random.default_rng(0)
    doc = {f"r{i}": {"embedding": rng.random(200).tolist(), "id": f"r{i}"} for i in range(50)}
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    _SnapshotWriter(Recorder().write).dump(doc)
    text = "".join(writes)
    assert text == json_dump_text(doc)
    # Each of the 50 records is about a fiftieth of the document; the
    # largest write is one record's embedding.
    record = len(json_dump_text({"r0": doc["r0"]}))
    assert max(map(len, writes)) < record < len(text) / 40
