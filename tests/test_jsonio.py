"""Deterministic JSON emission: valid JSON for any text, pinned floats."""

from __future__ import annotations

import json

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


def test_report_text_unchanged():
    obj = {"graph6": "E~~w", "quote": 'a"b\\c', "x": 0.1, "n": [1, None, True]}
    assert dumps(obj) == (
        '{"graph6": "E~~w", "quote": "a\\"b\\\\c", "x": 0.10000000000000001, '
        '"n": [1, null, true]}'
    )
