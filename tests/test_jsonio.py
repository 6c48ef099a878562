"""Deterministic JSON emission: valid JSON for any text, pinned floats."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distspec.jsonio import dumps


def test_control_characters_escaped():
    text = dumps({"a": "x\ny", "b": "\t\x00\x1f\x7f"})
    assert "\n" not in text
    assert json.loads(text) == {"a": "x\ny", "b": "\t\x00\x1f\x7f"}


@given(st.text(), st.text())
def test_text_round_trips_through_json_loads(key, value):
    assert json.loads(dumps({key: [value]})) == {key: [value]}


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_finite_floats_round_trip_through_json_loads(x):
    assert json.loads(dumps(x)) == x


def test_report_text_unchanged():
    obj = {
        "graph6": "E~~w",
        "quote": 'a"b\\c',
        "x": 0.1,
        "n": [1, None, True],
        "tuple": (1, "a", (2.5,)),
        "empty": {"a": {}, "b": [[], {}], "c": []},
        "no": False,
        "zero": -0.0,
        "big": 10**30,
        "np": np.float64(0.1),
    }
    assert dumps(obj) == (
        '{"graph6": "E~~w", "quote": "a\\"b\\\\c", "x": 0.10000000000000001, '
        '"n": [1, null, true], "tuple": [1, "a", [2.5]], '
        '"empty": {"a": {}, "b": [[], {}], "c": []}, "no": false, "zero": -0, '
        '"big": 1000000000000000000000000000000, "np": 0.10000000000000001}'
    )


@pytest.mark.parametrize(
    "obj, message",
    [
        (math.nan, "non-finite value not representable in a report: nan"),
        ([1.0, math.inf], "non-finite value not representable in a report: inf"),
        ({1: math.nan}, "JSON object keys must be strings, got 1"),
        ({"a": {1, 2}}, "cannot serialize set"),
        # items are checked in order: the NaN value fails before the int key
        ({"a": math.nan, 1: 2}, "non-finite value not representable in a report: nan"),
    ],
)
def test_unserializable_values_raise(obj, message):
    with pytest.raises(ValueError) as exc:
        dumps(obj)
    assert str(exc.value) == message
