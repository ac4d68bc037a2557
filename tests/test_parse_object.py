import math

import pytest

from spectralhom.errors import ConfigError, GeometryError, parse_kind, parse_object

SPEC = {
    "x": (float, ...),
    "n": (int, 3),
    "v": ([float], (0.0,)),
    "name": ((list, str), None),
}


def test_defaults_and_conversions():
    assert parse_object({"x": 2}, SPEC, "doc") == {"x": 2.0, "n": 3, "v": (0.0,), "name": None}
    out = parse_object({"x": 0.5, "n": 7, "v": [1, 2.5], "name": "a"}, SPEC, "doc")
    assert out == {"x": 0.5, "n": 7, "v": [1.0, 2.5], "name": "a"}
    assert type(out["x"]) is float and all(type(v) is float for v in out["v"])


def test_null_only_where_the_default_is_none():
    assert parse_object({"x": 1.0, "name": None}, SPEC, "doc")["name"] is None
    with pytest.raises(ConfigError, match="'n'"):
        parse_object({"x": 1.0, "n": None}, SPEC, "doc")
    with pytest.raises(ConfigError, match="'x'"):
        parse_object({"x": None}, SPEC, "doc")


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"x": True}, "'x'"),  # bool is not a number
        ({"x": math.nan}, "'x'"),
        ({"x": -math.inf}, "'x'"),
        ({"x": 10**400}, "'x'"),  # beyond the float range
        ({"x": "1.0"}, "'x'"),
        ({"x": 1.0, "n": 2.0}, "'n'"),  # an integer must be an exact int
        ({"x": 1.0, "n": False}, "'n'"),
        ({"x": 1.0, "v": [1.0, math.nan]}, "'v'"),
        ({"x": 1.0, "v": 1.0}, "'v'"),
        ({"x": 1.0, "name": 5}, "'name'"),
        ({}, "missing required key 'x'"),
        ({"x": 1.0, "y": 1.0}, "unknown key 'y'"),
    ],
)
def test_rejections_name_document_and_key(doc, named):
    with pytest.raises(ConfigError, match=named) as info:
        parse_object(doc, SPEC, "the doc")
    assert str(info.value).startswith("the doc")


def test_non_object_and_error_type():
    with pytest.raises(GeometryError, match="the doc must be an object"):
        parse_object([1.0], SPEC, "the doc", GeometryError)


def test_kind_selects_spec():
    kinds = {"a": {"p": (int, 0)}, "b": {}}
    assert parse_kind({"kind": "a", "p": 4}, kinds, "thing") == {"kind": "a", "p": 4}
    with pytest.raises(ConfigError, match="unknown key 'p'"):
        parse_kind({"kind": "b", "p": 4}, kinds, "thing")
    for doc in ({"kind": "c"}, {"kind": ["a"]}, {}, "a"):
        with pytest.raises(ConfigError, match="thing needs a 'kind'"):
            parse_kind(doc, kinds, "thing")
