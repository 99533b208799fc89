import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spiderveil.errors import (COUNT, INTEGER, INTEGER_PAIR, NUMBER, STRING,
                               STRINGS, GraphFormatError, read_fields)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([-0.0, 3.0, 2.5, math.nan, math.inf, -math.inf]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=5)


def old_integer(value):
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


# Each kind's test as the readers spelled it out before it was shared.
OLD_TESTS = {
    "integer": (INTEGER, old_integer),
    "number": (NUMBER, lambda value: isinstance(value, (int, float))
               and not isinstance(value, bool)),
    "string": (STRING, lambda value: isinstance(value, str)),
    "strings": (STRINGS, lambda value: isinstance(value, list)
                and all(isinstance(item, str) for item in value)),
    "pair": (INTEGER_PAIR, lambda value: isinstance(value, list) and len(value) == 2
             and all(map(old_integer, value))),
    "count": (COUNT, lambda value: isinstance(value, int)
              and not isinstance(value, bool) and value >= 0),
}


@pytest.mark.parametrize("name", OLD_TESTS)
@given(value=json_values)
def test_kind_tests_match_the_inline_checks(name, value):
    kind, old = OLD_TESTS[name]
    assert kind.test(value) is bool(old(value))


@pytest.mark.parametrize("value, expected", [
    (3, 3), (3.0, 3), (-0.0, 0), (10 ** 20, 10 ** 20)])
def test_integral_values_are_integers(value, expected):
    assert INTEGER.test(value)
    converted = INTEGER.convert(value)
    assert converted == expected and type(converted) is int


@pytest.mark.parametrize("value", [True, False, 2.5, math.nan, math.inf, "3",
                                   None, [3]])
def test_other_values_are_not_integers(value):
    assert not INTEGER.test(value)


def test_read_fields_checks_in_table_order_and_ignores_other_keys():
    kinds = {"b": INTEGER, "a": NUMBER, "pair": INTEGER_PAIR, "names": STRINGS}
    data = {"a": 1, "extra": object(), "b": 2.0, "pair": [1.0, 2],
            "names": ["x"]}
    fields = read_fields(data, kinds, "bad thing")
    assert list(fields) == ["b", "a", "pair", "names"]
    assert fields == {"b": 2, "a": 1.0, "pair": (1, 2), "names": ("x",)}
    assert type(fields["a"]) is float
    assert read_fields({}, kinds, "bad thing") == {}
    with pytest.raises(GraphFormatError) as err:
        read_fields({"a": "1", "b": None}, kinds, "bad thing")
    assert str(err.value) == "bad thing: 'b' is not an integer"
