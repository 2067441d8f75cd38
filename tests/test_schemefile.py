import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sigmaample.catalog import catalog_entry, catalog_names
from sigmaample.errors import SchemeParseError, UnknownName
from sigmaample.cli import main
from sigmaample.schemefile import (
    parse_integer,
    parse_rational,
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


def _replace(*path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


TOP_FORM = ("components", 0, "top_form")


# condition, the mutation of MINIMAL, the message's path prefix, a phrase of
# the message, and the quoted multi-index (None when no index is involved)
CONSTRUCTOR_CONDITIONS = [
    ("decreasing", _replace(*TOP_FORM, 1, "index", value=[1, 0]),
     "components[0].top_form: ", "must be non-decreasing", "(1, 0)"),
    ("out_of_range", _replace(*TOP_FORM, 1, "index", value=[0, 5]),
     "components[0].top_form: ", "out of range", "(0, 5)"),
    ("wrong_length", _replace(*TOP_FORM, 1, "index", value=[0, 1, 1]),
     "components[0].top_form: ", "must have length 2", "(0, 1, 1)"),
    ("duplicate", _replace(*TOP_FORM, 2, "index", value=[0, 1]),
     "components[0].top_form: ", "duplicate multi-index", "(0, 1)"),
    ("todd_count", _replace("components", 0, "todd", value=[[{"index": [], "value": "2"}], []]),
     "components[0]: ", "todd data must list functionals for j = 0 .. dim", None),
    ("zero_facet", _replace("oracles", 0, value={
        "name": "cone", "kind": "polyhedral", "data": {"facets": [["1", "0"], ["0", "0"]]}}),
     "oracles[0].data: ", "zero functional is not a facet", None),
    ("bad_reference", _replace("oracles", 0, "data", "reference_ample", value=["1", "-1"]),
     "oracles[0].data: ", "reference class must have positive self-intersection", None),
]


@pytest.mark.parametrize(
    "mutate, prefix, phrase, index",
    [case[1:] for case in CONSTRUCTOR_CONDITIONS],
    ids=[case[0] for case in CONSTRUCTOR_CONDITIONS],
)
def test_constructor_conditions_carry_the_field_path(mutate, prefix, phrase, index):
    doc = _doc()
    mutate(doc)
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    message = str(err.value)
    assert message.startswith(prefix)
    assert phrase in message
    if index is not None:
        assert f"multi-index {index}" in message


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file("[" * 2000 + "]" * 2000)
    assert str(err.value).startswith("document: cannot decode JSON: ")


def test_integer_past_the_digit_limit_is_a_parse_error():
    # past CPython's default int/str digit limit; where no limit applies the
    # rank no longer matches the components, which is a parse error too
    text = json.dumps(MINIMAL).replace('"rank": 2', '"rank": ' + "1" * 4301)
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(text)
    assert str(err.value).startswith("document: ")


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


@pytest.mark.parametrize("text", ["1e999999999", "1E3", "2.5e-1"])
def test_exponent_notation_is_a_parse_error(text):
    doc = _doc(divisors=[{"name": "D", "coords": ["1", text]}])
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert str(err.value) == (
        f"divisors[0].coords[1]: bad rational {text!r}: exponent notation is not accepted"
    )


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


def _limit_message(text: str) -> str:
    """What ``Fraction`` says about a numeric string, or '' if it parses."""
    try:
        Fraction(text)
    except ValueError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize(
    "field, path",
    [("matrix", "automorphisms[0].matrix[0][1]"), ("coords", "divisors[0].coords[1]")],
)
def test_plain_integer_past_the_digit_limit_keeps_its_message(tmp_path, capsys, sign, field, path):
    text = sign + "1" * 5000
    if field == "matrix":
        doc = _doc(automorphisms=[{"name": "s1", "matrix": [["1", text], ["0", "-1"]]}])
    else:
        doc = _doc(divisors=[{"name": "H1", "coords": ["1", text]}])
    reason = _limit_message(text)
    assert reason.startswith("Exceeds the limit")
    expected = f"{path}: bad rational {text!r}: {reason}"
    with pytest.raises(SchemeParseError) as err:
        parse_scheme_file(json.dumps(doc))
    assert str(err.value) == expected
    file = tmp_path / "long.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


NUMERIC_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
    st.from_regex(r"[ +_0-9/.-]{1,12}", fullmatch=True),
    st.text(alphabet="0123456789-+/. _\n\u0661\u00b2\uff11", min_size=0, max_size=12),
)


@settings(max_examples=400, deadline=None)
@given(NUMERIC_TEXT)
def test_numeric_strings_read_as_fraction_reads_them(text):
    """The plain-integer path gives the value and the complaint that
    ``Fraction`` gives, for integers and for every other string."""
    path = "divisors[0].coords[0]"
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(SchemeParseError) as err:
            parse_rational(text, path)
        assert str(err.value) == f"{path}: bad rational {text!r}: {exc}"
        with pytest.raises(SchemeParseError) as err:
            parse_integer(text, path)
        assert str(err.value) == f"{path}: bad rational {text!r}: {exc}"
        return
    value = parse_rational(text, path)
    assert value == expected and type(value) is Fraction
    if expected.denominator == 1:
        integer = parse_integer(text, path)
        assert integer == expected and type(integer) is int
    else:
        with pytest.raises(SchemeParseError) as err:
            parse_integer(text, path)
        assert str(err.value) == f"{path}: expected an integer, got {expected}"


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


# --- fuzzing: mutated catalog documents parse or raise SchemeParseError ---

CATALOG_DOCUMENTS = [
    json.loads(serialize_scheme_file(catalog_entry(name))) for name in catalog_names()
]

JSON_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, width=32),
    st.sampled_from(
        ["", "0", "1", "-2", "1/2", "1/0", "x", "1e3", "1e999999999", "X", "s1", "polyhedral"]
    ),
)


def _subtree_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _subtree_paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A catalog document with one to three subtrees replaced by a JSON atom
    or deleted (deleting the root replaces it)."""
    doc = json.loads(json.dumps(draw(st.sampled_from(CATALOG_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_subtree_paths(doc))))
        atom = draw(JSON_ATOMS)
        if not path:
            doc = atom
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = atom
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_parse_error(doc):
    try:
        sf = parse_scheme_file(json.dumps(doc))
    except SchemeParseError:
        return
    text = serialize_scheme_file(sf)
    assert parse_scheme_file(text) == sf
    assert serialize_scheme_file(parse_scheme_file(text)) == text
