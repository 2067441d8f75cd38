import json
from fractions import Fraction

import pytest

from sigmaample.errors import SchemeParseError, UnknownName
from sigmaample.schemefile import (
    parse_scheme_file,
    scheme_file_to_document,
    serialize_scheme_file,
)

MINIMAL = {
    "rank": 2,
    "components": [
        {
            "name": "X",
            "dim": 2,
            "top_form": [
                {"index": [0, 0], "value": "2"},
                {"index": [0, 1], "value": "4"},
                {"index": [1, 1], "value": "2"},
            ],
            "todd": None,
        }
    ],
    "oracles": [
        {
            "name": "ample",
            "kind": "surface_positive_cone",
            "data": {"component": "X", "reference_ample": ["1", "1"], "obstructions": []},
        }
    ],
    "automorphisms": [{"name": "s1", "matrix": [["1", "4"], ["0", "-1"]]}],
    "divisors": [{"name": "H1", "coords": ["1", "0"]}],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def test_parse_minimal_document():
    sf = parse_scheme_file(json.dumps(MINIMAL))
    assert sf.scheme.rank == 2
    assert sf.divisor("H1").coords == (1, 0)
    assert sf.action("s1").matrix.rows == ((1, 4), (0, -1))
    assert sf.oracle("ample").reference_ample.coords == (1, 1)


def test_parse_reports_line_and_column_for_bad_json():
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file("{\n  \"rank\": 2,,\n}")
    assert "line 2" in str(err.value)


def test_decreasing_multi_index_rejected():
    doc = _doc()
    doc["components"][0]["top_form"][1]["index"] = [1, 0]
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "non-decreasing" in str(err.value)


def test_out_of_range_index_rejected():
    doc = _doc()
    doc["components"][0]["top_form"][1]["index"] = [0, 5]
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "out of range" in str(err.value)


def test_wrong_matrix_shape_rejected():
    doc = _doc(automorphisms=[{"name": "a", "matrix": [["1", "0"]]}])
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "2x2" in str(err.value)


def test_bad_rational_rejected():
    doc = _doc(divisors=[{"name": "D", "coords": ["1", "x"]}])
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "bad rational" in str(err.value)


def test_duplicate_names_rejected():
    doc = _doc(divisors=[{"name": "D", "coords": ["1", "0"]}] * 2)
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "duplicate" in str(err.value)


def test_duplicate_component_names_rejected():
    doc = _doc()
    doc["components"] = doc["components"] * 2
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "components[1].name" in str(err.value)
    assert "duplicate component name" in str(err.value)


def test_unknown_oracle_kind_rejected():
    doc = _doc(oracles=[{"name": "o", "kind": "mystery", "data": {}}])
    with pytest.raises(SchemeParseError):
        parse_scheme_file(json.dumps(doc))


def test_arbitrary_size_integers_survive():
    big = str(10**40 + 7)
    doc = _doc(divisors=[{"name": "big", "coords": [big, "0"]}])
    sf = parse_scheme_file(json.dumps(doc))
    assert sf.divisor("big").coords[0] == 10**40 + 7
    text = serialize_scheme_file(sf)
    assert big in text
    assert parse_scheme_file(text) == sf


def test_rationals_as_fraction_strings():
    doc = _doc(divisors=[{"name": "half", "coords": ["1/2", "-3/4"]}])
    sf = parse_scheme_file(json.dumps(doc))
    assert sf.divisor("half").coords == (Fraction(1, 2), Fraction(-3, 4))


def test_todd_parsing_and_round_trip():
    doc = _doc()
    doc["components"][0]["todd"] = [
        [{"index": [], "value": "2"}],
        [],
        [
            {"index": [0, 0], "value": "2"},
            {"index": [0, 1], "value": "4"},
            {"index": [1, 1], "value": "2"},
        ],
    ]
    sf = parse_scheme_file(json.dumps(doc))
    comp = sf.scheme.components[0]
    assert comp.todd is not None
    assert comp.todd[0].value_at(()) == 2
    assert parse_scheme_file(serialize_scheme_file(sf)) == sf


def test_todd_top_mismatch_rejected():
    doc = _doc()
    doc["components"][0]["todd"] = [
        [{"index": [], "value": "2"}],
        [],
        [{"index": [0, 0], "value": "99"}],
    ]
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert "top todd" in str(err.value)


def test_unknown_names_raise():
    sf = parse_scheme_file(json.dumps(MINIMAL))
    with pytest.raises(UnknownName):
        sf.divisor("missing")
    with pytest.raises(UnknownName):
        sf.action("missing")
    with pytest.raises(UnknownName):
        sf.oracle("missing")


def test_document_serialization_is_deterministic():
    sf = parse_scheme_file(json.dumps(MINIMAL))
    assert serialize_scheme_file(sf) == serialize_scheme_file(sf)
    assert scheme_file_to_document(sf) == scheme_file_to_document(sf)
