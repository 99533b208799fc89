import math
from dataclasses import dataclass, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spiderveil.crawler import CONFIG_KINDS, CrawlConfig
from spiderveil.errors import (COUNT, INTEGER, INTEGER_PAIR, NUMBER, STRING,
                               STRINGS, GraphFormatError, apply_kinds, read_fields)
from spiderveil.simnet import PARAM_KINDS, GeneratorParams

# The least integer that float() rounds past the largest float: halfway
# from it to 2**1024, where the tie goes to the even 2**1024.
FLOAT_LIMIT = 2**1024 - 2**970

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([-0.0, 3.0, 2.5, math.nan, math.inf, -math.inf,
                       10**400, -10**400, FLOAT_LIMIT, 1 - FLOAT_LIMIT]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=5)


def old_integer(value):
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


# Each kind's test as the readers spelled it out before it was shared; a
# number is also one that float() can hold.
OLD_TESTS = {
    "integer": (INTEGER, old_integer),
    "number": (NUMBER, lambda value: isinstance(value, (int, float))
               and not isinstance(value, bool)
               and (isinstance(value, float) or abs(value) < FLOAT_LIMIT)),
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


@pytest.mark.parametrize("value, holds", [
    (10**400, False), (-10**400, False), (FLOAT_LIMIT, False),
    (-FLOAT_LIMIT, False), (FLOAT_LIMIT - 1, True), (2**60 + 1, True)],
    ids=["10**400", "-10**400", "limit", "-limit", "limit-1", "2**60+1"])
def test_a_number_is_one_float_can_hold(value, holds):
    assert NUMBER.test(value) is holds
    if holds:
        assert NUMBER.convert(value) == float(value)


def test_array_kinds_accept_the_tuple_they_convert_to():
    assert STRINGS.test(("a", "b")) and STRINGS.convert(("a", "b")) == ("a", "b")
    assert INTEGER_PAIR.test((1, 2.0)) and INTEGER_PAIR.convert((1, 2.0)) == (1, 2)
    assert not STRINGS.test(("a", 1)) and not INTEGER_PAIR.test((1, 2, 3))


@dataclass(frozen=True)
class Pair:
    b: object
    a: object


def test_apply_kinds_checks_in_table_order_and_keeps_conversions():
    kinds = {"b": INTEGER, "a": NUMBER}
    pair = Pair(b=2.0, a=1)
    apply_kinds(pair, kinds)
    assert (pair.b, pair.a) == (2, 1.0)
    assert type(pair.b) is int and type(pair.a) is float
    with pytest.raises(ValueError, match="^b must be an integer$"):
        apply_kinds(Pair(b="x", a="y"), kinds)
    with pytest.raises(ValueError, match="^a must be a number$"):
        apply_kinds(Pair(b=1, a=10**400), kinds)


# A field missing from its table would skip its check.
@pytest.mark.parametrize("settings, kinds", [(CrawlConfig, CONFIG_KINDS),
                                             (GeneratorParams, PARAM_KINDS)])
def test_each_kind_table_names_exactly_its_fields(settings, kinds):
    assert sorted(kinds) == sorted(field.name for field in fields(settings))
