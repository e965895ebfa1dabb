import io
import json
import math
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeloop.atomic import dump_json


class Color(IntEnum):
    RED = 1
    BLUE = -7


AWKWARD = [", ", ": ", '"', "\\", "\n", "\t", "a, b", 'x", "y', "naïve ☃", "測試", "🚀", "\x00", " "]
strings = st.one_of(st.text(max_size=8), st.sampled_from(AWKWARD))
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.1]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    strings,
    floats.map(np.float64),
    st.sampled_from(Color),
)
non_string_keys = st.one_of(st.integers(), floats, st.booleans(), st.none(), st.sampled_from(Color))


def containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(strings, inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=3),
        st.dictionaries(floats, inner, max_size=3),
        st.dictionaries(st.one_of(strings, non_string_keys), inner, max_size=3),
    )


documents = st.recursive(scalars, containers, max_leaves=40)


def json_dump_text(obj, indent):
    fh = io.StringIO()
    json.dump(obj, fh, sort_keys=True, indent=indent)
    return fh.getvalue()


@settings(max_examples=500, deadline=None)
@given(documents, st.sampled_from([None, 2]))
def test_output_equals_json_dump(obj, indent):
    try:
        expected = json_dump_text(obj, indent)
    except TypeError:
        # Keys that do not sort together, or a key json cannot spell.
        with pytest.raises(TypeError):
            dump_json(obj, io.StringIO(), indent)
        return
    out = io.StringIO()
    dump_json(obj, out, indent)
    assert out.getvalue() == expected


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("bad", [{(1, 2): 0}, {"k": object()}, [1, {"x": {1j}}]])
def test_what_json_cannot_write_raises_type_error(bad, indent):
    with pytest.raises(TypeError):
        json_dump_text(bad, indent)
    with pytest.raises(TypeError):
        dump_json(bad, io.StringIO(), indent)


@pytest.mark.parametrize("indent", [None, 2])
def test_document_is_written_one_leaf_container_at_a_time(indent):
    rng = np.random.default_rng(0)
    doc = {f"r{i}": {"embedding": rng.random(200).tolist(), "id": f"r{i}"} for i in range(50)}
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

    dump_json(doc, Recorder(), indent)
    text = "".join(writes)
    assert text == json_dump_text(doc, indent)
    # Each of the 50 records is about a fiftieth of the document.
    assert max(map(len, writes)) < len(text) / 40
