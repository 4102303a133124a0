"""The report writer against the standard library's indenting encoder.

`tracecause.jsontext.dumps` must give exactly the text of
``json.dumps(doc, indent=2)`` for every document made of strings,
integers, booleans, None, lists, tuples and dicts with string keys, and
refuse any other value.  Every ``--json`` report and the serialized
system go through it; ``tests/replay.py`` checks the same on every
report it replays.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecause.jsontext import dumps
from tracecause.model import serialize_system, system_to_dict

from randsys import random_system

# Any string, lone surrogates and control characters included.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(), st.integers(-10 ** 40, 10 ** 40).map(lambda i: i ** 3))
_DOCS = st.recursive(_SCALARS, lambda sub: st.one_of(
    st.lists(sub, max_size=4), st.lists(sub, max_size=3).map(tuple),
    st.dictionaries(_TEXT, sub, max_size=4)), max_leaves=24)


@settings(max_examples=500, deadline=None)
@given(_DOCS)
@example({"a\u00e9\ud800\x00\x1f\"\\": [[], {}, (), [[{}]]]})
@example([True, 1, 0, -1, None, 2 ** 200, -(2 ** 70)])
def test_writer_gives_the_indenting_encoders_text(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


class _Text(str):
    pass


class _Number(int):
    pass


@pytest.mark.parametrize("value", [
    {_Text("k"): [_Text("v"), _Number(5), True]}, _Number(-3), _Text("\n")])
def test_subclasses_of_scalars_read_as_their_base(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {"a": {1, 2}}, [object()], {"a": [b"x"]}, 1.5, [float("nan")],
    {1: 0}, {"a": [{None: 1}]}, {(1, 2): 0}])
def test_writer_refuses_what_no_report_holds(value):
    # Sets and objects as the encoder refuses them; floats and keys other
    # than strings, which it accepts, too.
    with pytest.raises(TypeError):
        dumps(value)


def test_serialized_systems_are_the_indenting_encoders_text():
    for seed in range(20):
        m = random_system(random.Random(seed), max_components=3)
        assert serialize_system(m) == json.dumps(system_to_dict(m),
                                                 indent=2) + "\n"
