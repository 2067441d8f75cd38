"""Self-contained scheme description documents (JSON).

Numeric payload values (matrix entries, coordinates, tensor values) are
carried as decimal strings, rationals as "p/q" strings, so documents never
hit a 64-bit ceiling; exponent notation is refused, since ``Fraction`` would
expand "1e999999999" into a billion-digit integer. Structural counts (rank,
dimensions, indices) are plain JSON integers. Parsing is strict and reports a
field path or line/column with every complaint; serialization is canonical,
so parse(serialize(x)) == x and equal inputs give byte-identical documents.

Each input condition is checked once. This reader checks the JSON shape:
types, required keys, names unique within a section, numeric strings, sizes
against the rank, oracle kinds and component references. The constructors
check the rest: ``SymmetricForm`` the multi-indices (length, range, order,
duplicates), ``ComponentDescriptor`` the dimension and the Todd data,
``SchemeDescriptor`` the ranks, each oracle its invariants; ``_checked`` puts
the field path on their ``ValueError``. ``lattice.validate`` checks the actions.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable

from .ampleness import AmplenessOracle, PolyhedralCone, SurfacePositiveCone
from .errors import SchemeParseError, UnknownName
from .intmat import IntegerMatrix
from .lattice import (
    AutomorphismAction,
    ComponentDescriptor,
    DivisorClass,
    SchemeDescriptor,
    SymmetricForm,
)
from .record import Record


class SchemeFile(Record):
    """A scheme plus its named oracles, actions, and divisor classes."""

    __slots__ = ("scheme", "oracles", "automorphisms", "divisors")

    def oracle(self, name: str | None = None) -> AmplenessOracle:
        if name is None:
            if len(self.oracles) == 1:
                return next(iter(self.oracles.values()))
            if not self.oracles:
                raise UnknownName("the input defines no oracle")
            raise UnknownName(
                f"an oracle name is required; available: {', '.join(sorted(self.oracles))}"
            )
        return _lookup(self.oracles, "oracle", name)

    def action(self, name: str) -> AutomorphismAction:
        return _lookup(self.automorphisms, "automorphism", name)

    def divisor(self, name: str) -> DivisorClass:
        return _lookup(self.divisors, "divisor", name)


def _lookup(table: dict, what: str, name: str):
    if name not in table:
        raise UnknownName(f"no {what} named {name!r}")
    return table[name]


def _fail(path: str, message: str) -> SchemeParseError:
    return SchemeParseError(f"{path}: {message}")


def _expect(obj: Any, kind: type, path: str) -> Any:
    if not isinstance(obj, kind) or isinstance(obj, bool) and kind is not bool:
        raise _fail(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def _require(obj: Any, path: str, keys: tuple[str, ...]) -> dict:
    obj = _expect(obj, dict, path)
    for key in keys:
        if key not in obj:
            raise _fail(path, f"missing key {key!r}")
    return obj


def _checked(path: str, build: Callable, *args) -> Any:
    """Call a record constructor, naming ``path`` in the error it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


_PLAIN_INTEGER = re.compile("-?[0-9]+")


def rational_from_text(text: str) -> Fraction:
    """A decimal or "p/q" string as a ``Fraction``. Exponent notation raises
    ValueError before ``Fraction`` sees it, since "1e999999999" would expand
    into a billion-digit integer; other complaints (the digit limit
    included) are ``Fraction``'s own ValueError or ZeroDivisionError."""
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not accepted")
    return Fraction(text)


def _parse_number(text: Any, path: str) -> int | Fraction:
    """The value of a numeric payload entry. A plain ASCII integer string,
    which most entries are, is read by ``int``; any other string by
    ``rational_from_text``, whose complaints are the same."""
    if isinstance(text, bool):
        raise _fail(path, "expected a numeric string")
    if isinstance(text, int):
        return text
    if isinstance(text, str):
        try:
            return int(text) if _PLAIN_INTEGER.fullmatch(text) else rational_from_text(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(path, f"bad rational {text!r}: {exc}") from None
    raise _fail(path, f"expected a numeric string, got {type(text).__name__}")


def parse_rational(text: Any, path: str) -> Fraction:
    return Fraction(_parse_number(text, path))


def parse_integer(text: Any, path: str) -> int:
    value = _parse_number(text, path)
    if value.denominator != 1:
        raise _fail(path, f"expected an integer, got {value}")
    return int(value)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_form(obj: Any, rank: int, arity: int, path: str) -> SymmetricForm:
    values = []
    for pos, entry in enumerate(_expect(obj, list, path)):
        epath = f"{path}[{pos}]"
        entry = _expect(entry, dict, epath)
        if set(entry) != {"index", "value"}:
            raise _fail(epath, "entry must have exactly the keys 'index' and 'value'")
        index = _expect(entry["index"], list, f"{epath}.index")
        values.append((
            tuple(parse_integer(i, f"{epath}.index") for i in index),
            parse_rational(entry["value"], f"{epath}.value"),
        ))
    return _checked(path, SymmetricForm, rank, arity, tuple(values))


def _form_to_json(form: SymmetricForm) -> list:
    return [{"index": list(index), "value": format_rational(v)} for index, v in form.values]


def _parse_component(obj: dict, rank: int, path: str) -> ComponentDescriptor:
    dim = _expect(obj["dim"], int, f"{path}.dim")
    top = _parse_form(obj["top_form"], rank, dim, f"{path}.top_form")
    todd = None
    if obj.get("todd") is not None:
        todd = tuple(
            _parse_form(row, rank, j, f"{path}.todd[{j}]")
            for j, row in enumerate(_expect(obj["todd"], list, f"{path}.todd"))
        )
    return _checked(path, ComponentDescriptor, obj["name"], dim, top, todd)


def _parse_coords(obj: Any, rank: int, path: str) -> DivisorClass:
    coords = _expect(obj, list, path)
    if len(coords) != rank:
        raise _fail(path, f"expected {rank} coordinates, got {len(coords)}")
    return DivisorClass(tuple(parse_rational(c, f"{path}[{i}]") for i, c in enumerate(coords)))


def _coords_to_json(divisor: DivisorClass) -> list:
    return [format_rational(c) for c in divisor.coords]


def _parse_action(obj: dict, rank: int, path: str) -> AutomorphismAction:
    rows = _expect(obj["matrix"], list, f"{path}.matrix")
    if len(rows) != rank or any(len(_expect(r, list, f"{path}.matrix")) != rank for r in rows):
        raise _fail(f"{path}.matrix", f"expected a {rank}x{rank} matrix")
    matrix = IntegerMatrix.from_rows(
        [[parse_integer(c, f"{path}.matrix[{r}][{j}]") for j, c in enumerate(row)]
         for r, row in enumerate(rows)]
    )
    todd_invariant = obj.get("todd_invariant", False)
    if not isinstance(todd_invariant, bool):
        raise _fail(f"{path}.todd_invariant", "expected a boolean")
    return AutomorphismAction(obj["name"], matrix, todd_invariant)


def _read_polyhedral(data: dict, scheme: SchemeDescriptor, path: str) -> PolyhedralCone:
    facets = tuple(
        tuple(parse_integer(c, f"{path}.facets[{i}]") for c in _expect(f, list, f"{path}.facets[{i}]"))
        for i, f in enumerate(_expect(data.get("facets"), list, f"{path}.facets"))
    )
    return _checked(path, PolyhedralCone, scheme.rank, facets)


def _read_surface(data: dict, scheme: SchemeDescriptor, path: str) -> SurfacePositiveCone:
    name = _expect(data.get("component"), str, f"{path}.component")
    component = next((c for c in scheme.components if c.name == name), None)
    if component is None:
        raise _fail(f"{path}.component", f"no component named {name!r}")
    reference = _parse_coords(data.get("reference_ample"), scheme.rank, f"{path}.reference_ample")
    obstructions = tuple(
        _parse_coords(c, scheme.rank, f"{path}.obstructions[{i}]")
        for i, c in enumerate(_expect(data.get("obstructions", []), list, f"{path}.obstructions"))
    )
    return _checked(path, SurfacePositiveCone, component, reference, obstructions)


# oracle kind (a document's "kind", an oracle's ``kind``) -> (data reader, data writer)
_ORACLE_KINDS = {
    PolyhedralCone.kind: (
        _read_polyhedral,
        lambda oracle: {"facets": [[str(c) for c in f] for f in oracle.facets]},
    ),
    SurfacePositiveCone.kind: (
        _read_surface,
        lambda oracle: {
            "component": oracle.component.name,
            "reference_ample": _coords_to_json(oracle.reference_ample),
            "obstructions": [_coords_to_json(c) for c in oracle.obstructions],
        },
    ),
}


def _parse_oracle(obj: dict, scheme: SchemeDescriptor, path: str) -> AmplenessOracle:
    kind = _expect(obj["kind"], str, f"{path}.kind")
    if kind not in _ORACLE_KINDS:
        raise _fail(f"{path}.kind", f"unknown oracle kind {kind!r}")
    read, _ = _ORACLE_KINDS[kind]
    return read(_expect(obj["data"], dict, f"{path}.data"), scheme, f"{path}.data")


def _named_section(
    doc: dict, section: str, keys: tuple[str, ...], parse: Callable[[dict, str], Any]
) -> dict[str, Any]:
    """Parse the list ``doc[section]`` of named entries into a name -> value
    dict; each entry needs a string name, unique in the section, and ``keys``."""
    parsed: dict[str, Any] = {}
    for i, entry in enumerate(_expect(doc.get(section, []), list, section)):
        path = f"{section}[{i}]"
        entry = _require(entry, path, ("name", *keys))
        name = _expect(entry["name"], str, f"{path}.name")
        if name in parsed:
            raise _fail(f"{path}.name", f"duplicate {section[:-1]} name {name!r}")
        parsed[name] = parse(entry, path)
    return parsed


def parse_scheme_file(text: str) -> SchemeFile:
    """Parse a scheme document; every malformed input raises ``SchemeParseError``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # nested past the decoder's recursion limit, or an integer past the digit limit
        raise _fail("document", f"cannot decode JSON: {exc}") from None
    doc = _require(doc, "document", ("rank", "components"))
    rank = _expect(doc["rank"], int, "rank")
    components = _named_section(
        doc, "components", ("dim", "top_form"), lambda e, p: _parse_component(e, rank, p)
    )
    euler = doc.get("euler_char")
    euler_char = None if euler is None else parse_rational(euler, "euler_char")
    scheme = _checked("document", SchemeDescriptor, rank, tuple(components.values()), euler_char)
    return SchemeFile(
        scheme,
        _named_section(doc, "oracles", ("kind", "data"), lambda e, p: _parse_oracle(e, scheme, p)),
        _named_section(doc, "automorphisms", ("matrix",), lambda e, p: _parse_action(e, rank, p)),
        _named_section(
            doc, "divisors", ("coords",), lambda e, p: _parse_coords(e["coords"], rank, f"{p}.coords")
        ),
    )


def scheme_file_to_document(sf: SchemeFile) -> dict:
    doc: dict[str, Any] = {
        "rank": sf.scheme.rank,
        "components": [
            {
                "name": comp.name,
                "dim": comp.dim,
                "top_form": _form_to_json(comp.top_form),
                "todd": None if comp.todd is None else [_form_to_json(f) for f in comp.todd],
            }
            for comp in sf.scheme.components
        ],
        "oracles": [
            {"name": name, "kind": oracle.kind, "data": _ORACLE_KINDS[oracle.kind][1](oracle)}
            for name, oracle in sf.oracles.items()
        ],
        "automorphisms": [
            {
                "name": action.name,
                "matrix": [[str(c) for c in row] for row in action.matrix.rows],
                "todd_invariant": action.todd_invariant,
            }
            for action in sf.automorphisms.values()
        ],
        "divisors": [
            {"name": name, "coords": _coords_to_json(d)} for name, d in sf.divisors.items()
        ],
    }
    if sf.scheme.euler_char is not None:
        doc["euler_char"] = format_rational(sf.scheme.euler_char)
    return doc


def serialize_scheme_file(sf: SchemeFile) -> str:
    return json.dumps(scheme_file_to_document(sf), indent=2, sort_keys=True) + "\n"
