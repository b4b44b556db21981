"""The CLI's JSON writer against ``json.dumps(indent=2)``."""

import json
import math
from datetime import date

import pytest
from hypothesis import given, strategies as st

from labelsplit.cli import json_text


def round12(value):
    """``value`` with every float value, at any depth, fixed at 12
    significant digits and every tuple a list; keys are left as they are."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


floats = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e16, 1e-7, 123456789012.5, 2.0 ** -1074])
scalars = (st.none() | st.booleans() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | floats | st.text() | st.text(st.characters(max_codepoint=0x9f)))
keys = st.text() | st.integers() | floats | st.booleans() | st.none()
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=25)


@given(documents)
def test_writes_what_json_dumps_writes_after_rounding(doc):
    assert json_text(doc) == json.dumps(round12(doc), ensure_ascii=False, indent=2)


@pytest.mark.parametrize("doc", [object(), {"a": [1, {2, 3}]}, [b"bytes"], {(1, 2): 3},
                                 {date(2020, 1, 1): 1}])
def test_what_json_cannot_write_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, ensure_ascii=False, indent=2)
    with pytest.raises(TypeError):
        json_text(doc)
