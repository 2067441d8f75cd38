"""Self-contained scheme description documents (JSON).

Numeric payload values (matrix entries, coordinates, tensor values) are
carried as decimal strings, rationals as "p/q" strings, so documents never
hit a 64-bit ceiling. Structural counts (rank, dimensions, indices) are plain
JSON integers. Parsing is strict and reports a field path or line/column with
every complaint; serialization is canonical, so parse(serialize(x)) == x and
equal inputs give byte-identical documents.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

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
        try:
            return self.oracles[name]
        except KeyError:
            raise UnknownName(f"no oracle named {name!r}") from None

    def action(self, name: str) -> AutomorphismAction:
        try:
            return self.automorphisms[name]
        except KeyError:
            raise UnknownName(f"no automorphism named {name!r}") from None

    def divisor(self, name: str) -> DivisorClass:
        try:
            return self.divisors[name]
        except KeyError:
            raise UnknownName(f"no divisor named {name!r}") from None


def _fail(path: str, message: str) -> SchemeParseError:
    return SchemeParseError(f"{path}: {message}")


def _expect(obj: Any, kind: type, path: str) -> Any:
    if not isinstance(obj, kind) or isinstance(obj, bool) and kind is not bool:
        raise _fail(path, f"expected {kind.__name__}, got {type(obj).__name__}")
    return obj


def parse_rational(text: Any, path: str) -> Fraction:
    if isinstance(text, bool):
        raise _fail(path, "expected a numeric string")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise _fail(path, f"bad rational {text!r}: {exc}") from None
    raise _fail(path, f"expected a numeric string, got {type(text).__name__}")


def parse_integer(text: Any, path: str) -> int:
    value = parse_rational(text, path)
    if value.denominator != 1:
        raise _fail(path, f"expected an integer, got {value}")
    return int(value)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _parse_form(obj: Any, rank: int, arity: int, path: str) -> SymmetricForm:
    entries = _expect(obj, list, path)
    table = {}
    for pos, entry in enumerate(entries):
        epath = f"{path}[{pos}]"
        entry = _expect(entry, dict, epath)
        if set(entry) != {"index", "value"}:
            raise _fail(epath, "entry must have exactly the keys 'index' and 'value'")
        index = _expect(entry["index"], list, f"{epath}.index")
        idx = tuple(parse_integer(i, f"{epath}.index") for i in index)
        if len(idx) != arity:
            raise _fail(f"{epath}.index", f"multi-index must have length {arity}")
        if any(a > b for a, b in zip(idx, idx[1:])):
            raise _fail(f"{epath}.index", f"multi-index {list(idx)} must be non-decreasing")
        if any(i < 0 or i >= rank for i in idx):
            raise _fail(f"{epath}.index", f"multi-index {list(idx)} out of range")
        if idx in table:
            raise _fail(f"{epath}.index", f"duplicate multi-index {list(idx)}")
        table[idx] = parse_rational(entry["value"], f"{epath}.value")
    try:
        return SymmetricForm.from_dict(rank, arity, table)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _form_to_json(form: SymmetricForm) -> list:
    return [
        {"index": list(index), "value": format_rational(value)}
        for index, value in form.values
    ]


def _parse_component(obj: Any, rank: int, path: str) -> ComponentDescriptor:
    obj = _expect(obj, dict, path)
    for key in ("name", "dim", "top_form"):
        if key not in obj:
            raise _fail(path, f"missing key {key!r}")
    name = _expect(obj["name"], str, f"{path}.name")
    dim = _expect(obj["dim"], int, f"{path}.dim")
    top = _parse_form(obj["top_form"], rank, dim, f"{path}.top_form")
    todd = None
    if obj.get("todd") is not None:
        rows = _expect(obj["todd"], list, f"{path}.todd")
        if len(rows) != dim + 1:
            raise _fail(f"{path}.todd", f"expected {dim + 1} functionals (j = 0 .. dim)")
        todd = tuple(
            _parse_form(row, rank, j, f"{path}.todd[{j}]") for j, row in enumerate(rows)
        )
    try:
        return ComponentDescriptor(name, dim, top, todd)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _parse_divisor_coords(obj: Any, rank: int, path: str) -> DivisorClass:
    coords = _expect(obj, list, path)
    if len(coords) != rank:
        raise _fail(path, f"expected {rank} coordinates, got {len(coords)}")
    return DivisorClass(tuple(parse_rational(c, f"{path}[{i}]") for i, c in enumerate(coords)))


def _parse_oracle(obj: Any, scheme: SchemeDescriptor, path: str) -> tuple[str, AmplenessOracle]:
    obj = _expect(obj, dict, path)
    for key in ("name", "kind", "data"):
        if key not in obj:
            raise _fail(path, f"missing key {key!r}")
    name = _expect(obj["name"], str, f"{path}.name")
    kind = _expect(obj["kind"], str, f"{path}.kind")
    data = _expect(obj["data"], dict, f"{path}.data")
    if kind == "polyhedral":
        facets = _expect(data.get("facets"), list, f"{path}.data.facets")
        parsed = tuple(
            tuple(parse_integer(c, f"{path}.data.facets[{i}]") for c in _expect(f, list, f"{path}.data.facets[{i}]"))
            for i, f in enumerate(facets)
        )
        try:
            return name, PolyhedralCone(scheme.rank, parsed)
        except ValueError as exc:
            raise _fail(f"{path}.data", str(exc)) from None
    if kind == "surface_positive_cone":
        comp_name = _expect(data.get("component"), str, f"{path}.data.component")
        component = next((c for c in scheme.components if c.name == comp_name), None)
        if component is None:
            raise _fail(f"{path}.data.component", f"no component named {comp_name!r}")
        reference = _parse_divisor_coords(
            data.get("reference_ample"), scheme.rank, f"{path}.data.reference_ample"
        )
        obstructions = tuple(
            _parse_divisor_coords(c, scheme.rank, f"{path}.data.obstructions[{i}]")
            for i, c in enumerate(_expect(data.get("obstructions", []), list, f"{path}.data.obstructions"))
        )
        try:
            return name, SurfacePositiveCone(component, reference, obstructions)
        except ValueError as exc:
            raise _fail(f"{path}.data", str(exc)) from None
    raise _fail(f"{path}.kind", f"unknown oracle kind {kind!r}")


def _oracle_to_json(name: str, oracle: AmplenessOracle) -> dict:
    if isinstance(oracle, PolyhedralCone):
        return {
            "name": name,
            "kind": "polyhedral",
            "data": {"facets": [[str(c) for c in f] for f in oracle.facets]},
        }
    return {
        "name": name,
        "kind": "surface_positive_cone",
        "data": {
            "component": oracle.component.name,
            "reference_ample": [format_rational(c) for c in oracle.reference_ample.coords],
            "obstructions": [
                [format_rational(x) for x in c.coords] for c in oracle.obstructions
            ],
        },
    }


def parse_scheme_document(obj: Any) -> SchemeFile:
    """Build a SchemeFile from already-decoded JSON data."""
    obj = _expect(obj, dict, "document")
    for key in ("rank", "components"):
        if key not in obj:
            raise _fail("document", f"missing key {key!r}")
    rank = _expect(obj["rank"], int, "rank")
    comp_list = _expect(obj["components"], list, "components")
    components = tuple(
        _parse_component(c, rank, f"components[{i}]") for i, c in enumerate(comp_list)
    )
    names: set[str] = set()
    for i, comp in enumerate(components):
        if comp.name in names:
            raise _fail(f"components[{i}].name", f"duplicate component name {comp.name!r}")
        names.add(comp.name)
    euler = obj.get("euler_char")
    euler_char = None if euler is None else parse_rational(euler, "euler_char")
    try:
        scheme = SchemeDescriptor(rank, components, euler_char)
    except ValueError as exc:
        raise _fail("document", str(exc)) from None

    oracles: dict[str, AmplenessOracle] = {}
    for i, entry in enumerate(_expect(obj.get("oracles", []), list, "oracles")):
        name, oracle = _parse_oracle(entry, scheme, f"oracles[{i}]")
        if name in oracles:
            raise _fail(f"oracles[{i}].name", f"duplicate oracle name {name!r}")
        oracles[name] = oracle

    automorphisms: dict[str, AutomorphismAction] = {}
    for i, entry in enumerate(_expect(obj.get("automorphisms", []), list, "automorphisms")):
        path = f"automorphisms[{i}]"
        entry = _expect(entry, dict, path)
        for key in ("name", "matrix"):
            if key not in entry:
                raise _fail(path, f"missing key {key!r}")
        name = _expect(entry["name"], str, f"{path}.name")
        if name in automorphisms:
            raise _fail(f"{path}.name", f"duplicate automorphism name {name!r}")
        rows = _expect(entry["matrix"], list, f"{path}.matrix")
        if len(rows) != rank or any(len(_expect(r, list, f"{path}.matrix")) != rank for r in rows):
            raise _fail(f"{path}.matrix", f"expected a {rank}x{rank} matrix")
        matrix = IntegerMatrix.from_rows(
            [[parse_integer(c, f"{path}.matrix[{r}][{j}]") for j, c in enumerate(row)]
             for r, row in enumerate(rows)]
        )
        todd_invariant = entry.get("todd_invariant", False)
        if not isinstance(todd_invariant, bool):
            raise _fail(f"{path}.todd_invariant", "expected a boolean")
        automorphisms[name] = AutomorphismAction(name, matrix, todd_invariant)

    divisors: dict[str, DivisorClass] = {}
    for i, entry in enumerate(_expect(obj.get("divisors", []), list, "divisors")):
        path = f"divisors[{i}]"
        entry = _expect(entry, dict, path)
        for key in ("name", "coords"):
            if key not in entry:
                raise _fail(path, f"missing key {key!r}")
        name = _expect(entry["name"], str, f"{path}.name")
        if name in divisors:
            raise _fail(f"{path}.name", f"duplicate divisor name {name!r}")
        divisors[name] = _parse_divisor_coords(entry["coords"], rank, f"{path}.coords")

    return SchemeFile(scheme, oracles, automorphisms, divisors)


def parse_scheme_file(text: str) -> SchemeFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemeParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return parse_scheme_document(data)


def scheme_file_to_document(sf: SchemeFile) -> dict:
    components = []
    for comp in sf.scheme.components:
        entry: dict[str, Any] = {
            "name": comp.name,
            "dim": comp.dim,
            "top_form": _form_to_json(comp.top_form),
        }
        entry["todd"] = None if comp.todd is None else [_form_to_json(f) for f in comp.todd]
        components.append(entry)
    doc: dict[str, Any] = {
        "rank": sf.scheme.rank,
        "components": components,
        "oracles": [_oracle_to_json(name, oracle) for name, oracle in sf.oracles.items()],
        "automorphisms": [
            {
                "name": action.name,
                "matrix": [[str(c) for c in row] for row in action.matrix.rows],
                "todd_invariant": action.todd_invariant,
            }
            for action in sf.automorphisms.values()
        ],
        "divisors": [
            {"name": name, "coords": [format_rational(c) for c in d.coords]}
            for name, d in sf.divisors.items()
        ],
    }
    if sf.scheme.euler_char is not None:
        doc["euler_char"] = format_rational(sf.scheme.euler_char)
    return doc


def serialize_scheme_file(sf: SchemeFile) -> str:
    return json.dumps(scheme_file_to_document(sf), indent=2, sort_keys=True) + "\n"
