"""Structured-text input documents and their canonical serialization.

Documents are JSON with a top-level "kind" discriminator.  Scalars are
exact rationals encoded as strings "p/q" (or "n" for integers); native
JSON integers are accepted on input, floats are rejected outright since
they cannot represent the arithmetic this library promises.  The
serializer always emits normalized rational strings, making
parse/serialize round trips bit-stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .actions import ModuleAction
from .algebra import FiniteAlgebra
from .coalgebra import FiniteCoalgebra
from .convolution import ConvMap
from .errors import ParseError, ShapeError
from .groupoid import FiniteGroupoid
from .linalg import Mat, Vec
from .weakhopf import WeakHopfAlgebra

KINDS = ("algebra", "coalgebra", "weak_hopf", "module_action", "groupoid", "conv_map")


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")  # ASCII digits, matched whole: no trailing newline


def parse_scalar(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"not a rational scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ParseError(f"bad rational literal {value!r}: expected 'p/q' or an integer")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ParseError(f"bad rational literal {value!r}: zero denominator") from None
    raise ParseError(f"not a rational scalar: {value!r}")


def _scalar(value: Any, literals: dict[str, Fraction]) -> Fraction:
    """parse_scalar, reusing the value of a string literal already parsed into `literals`."""
    if not isinstance(value, str):
        return parse_scalar(value)
    q = literals.get(value)
    if q is None:
        q = literals[value] = parse_scalar(value)
    return q


def scalar_str(q: Fraction) -> str:
    return str(q)


def _parse_vec(data: Any, length: int, what: str, literals: dict[str, Fraction]) -> Vec:
    if not isinstance(data, list) or len(data) != length:
        raise ParseError(f"{what} must be a list of length {length}")
    return tuple(_scalar(x, literals) for x in data)


def _parse_tensor3(data: Any, dim: int, what: str, literals: dict[str, Fraction]) -> tuple:
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError(f"{what} must be a {dim}^3 nested list")
    out = []
    for slice_ in data:
        if not isinstance(slice_, list) or len(slice_) != dim:
            raise ParseError(f"{what} must be a {dim}^3 nested list")
        out.append(tuple(_parse_vec(row, dim, what, literals) for row in slice_))
    return tuple(out)


def _parse_matrix(data: Any, rows: int, cols: int, what: str, literals: dict[str, Fraction]) -> Mat:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{what} must be a {rows}x{cols} nested list")
    return Mat(rows, cols, tuple(_parse_vec(row, cols, what, literals) for row in data))


def _vec_json(v: Vec) -> list[str]:
    return [scalar_str(x) for x in v]


def _tensor3_json(t: tuple) -> list:
    return [[_vec_json(row) for row in slice_] for slice_ in t]


def _matrix_json(m: Mat) -> list:
    return [_vec_json(row) for row in m.entries]


def _dim_of(doc: dict) -> int:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ParseError("document needs a positive integer 'dim'")
    return dim


def parse_algebra(doc: dict, literals: dict[str, Fraction]) -> FiniteAlgebra:
    dim = _dim_of(doc)
    return FiniteAlgebra(
        dim,
        _parse_tensor3(doc.get("mult"), dim, "mult", literals),
        _parse_vec(doc.get("unit"), dim, "unit", literals),
    )


def parse_coalgebra(doc: dict, literals: dict[str, Fraction]) -> FiniteCoalgebra:
    dim = _dim_of(doc)
    return FiniteCoalgebra(
        dim,
        _parse_tensor3(doc.get("comult"), dim, "comult", literals),
        _parse_vec(doc.get("counit"), dim, "counit", literals),
    )


def parse_weak_hopf(doc: dict, literals: dict[str, Fraction]) -> WeakHopfAlgebra:
    dim = _dim_of(doc)
    return WeakHopfAlgebra(
        parse_algebra(doc, literals),
        parse_coalgebra(doc, literals),
        _parse_matrix(doc.get("antipode"), dim, dim, "antipode", literals),
    )


def parse_module_action(doc: dict, literals: dict[str, Fraction]) -> ModuleAction:
    hopf_doc = doc.get("hopf")
    alg_doc = doc.get("algebra")
    if not isinstance(hopf_doc, dict) or not isinstance(alg_doc, dict):
        raise ParseError("module_action needs embedded 'hopf' and 'algebra' documents")
    hopf = parse_weak_hopf(hopf_doc, literals)
    alg = parse_algebra(alg_doc, literals)
    action = doc.get("action")
    if not isinstance(action, list) or len(action) != hopf.dim:
        raise ParseError("action tensor must have one slice per basis vector of the weak Hopf algebra")
    tensor = []
    for slice_ in action:
        if not isinstance(slice_, list) or len(slice_) != alg.dim:
            raise ParseError("action tensor slices must match the algebra dimension")
        tensor.append(tuple(_parse_vec(row, alg.dim, "action", literals) for row in slice_))
    return ModuleAction(hopf, alg, tuple(tensor))


def parse_groupoid(doc: dict) -> FiniteGroupoid:
    objects = doc.get("objects")
    morphisms = doc.get("morphisms")
    if not isinstance(objects, list) or not all(isinstance(o, str) for o in objects):
        raise ParseError("groupoid objects must be a list of identifiers")
    if not isinstance(morphisms, list) or not all(isinstance(m, str) for m in morphisms):
        raise ParseError("groupoid morphisms must be a list of identifiers")
    for key in ("src", "tgt", "inv", "identities"):
        table = doc.get(key)
        if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
            raise ParseError(f"groupoid needs a '{key}' mapping of identifiers")
    comp_list = doc.get("comp")
    if not isinstance(comp_list, list):
        raise ParseError("groupoid needs a 'comp' list of [g, h, gh] triples")
    comp = {}
    for entry in comp_list:
        if not isinstance(entry, list) or len(entry) != 3 or not all(isinstance(x, str) for x in entry):
            raise ParseError("composition entries must be [g, h, gh] triples of identifiers")
        if (entry[0], entry[1]) in comp:
            raise ParseError(f"two composition entries for ({entry[0]!r}, {entry[1]!r})")
        comp[(entry[0], entry[1])] = entry[2]
    return FiniteGroupoid(
        tuple(objects),
        tuple(morphisms),
        dict(doc["src"]),
        dict(doc["tgt"]),
        comp,
        dict(doc["inv"]),
        dict(doc["identities"]),
    )


def parse_conv_matrix(doc: dict, source: FiniteCoalgebra, target: FiniteAlgebra) -> ConvMap:
    matrix = _parse_matrix(doc.get("matrix"), target.dim, source.dim, "matrix", {})
    return ConvMap(source, target, matrix)


_PARSERS = {
    "algebra": parse_algebra,
    "coalgebra": parse_coalgebra,
    "weak_hopf": parse_weak_hopf,
    "module_action": parse_module_action,
    "groupoid": lambda doc, literals: parse_groupoid(doc),
}


def loads(text: str):
    """Parse a document string; returns (kind, structure)."""
    try:
        doc = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "conv_map":
        raise ParseError("conv_map documents only make sense next to a weak_hopf context")
    if kind not in _PARSERS:
        raise ParseError(f"unknown or missing document kind: {kind!r}")
    try:
        # one dict of the string literals parsed so far, for this document only
        return kind, _PARSERS[kind](doc, {})
    except ShapeError as exc:
        raise ParseError(str(exc)) from None


def _reject_float(value: str) -> None:
    raise ParseError(f"floating point literal {value!r} is not exact; write 'p/q' strings")


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text)


def algebra_doc(a: FiniteAlgebra) -> dict:
    return {"kind": "algebra", "dim": a.dim, "mult": _tensor3_json(a.mult), "unit": _vec_json(a.unit)}


def coalgebra_doc(c: FiniteCoalgebra) -> dict:
    return {"kind": "coalgebra", "dim": c.dim, "comult": _tensor3_json(c.comult), "counit": _vec_json(c.counit)}


def weak_hopf_doc(h: WeakHopfAlgebra) -> dict:
    return {
        "kind": "weak_hopf",
        "dim": h.dim,
        "mult": _tensor3_json(h.alg.mult),
        "unit": _vec_json(h.alg.unit),
        "comult": _tensor3_json(h.coalg.comult),
        "counit": _vec_json(h.coalg.counit),
        "antipode": _matrix_json(h.antipode),
    }


def module_action_doc(m: ModuleAction) -> dict:
    return {
        "kind": "module_action",
        "hopf": weak_hopf_doc(m.hopf),
        "algebra": algebra_doc(m.alg),
        "action": _tensor3_json(m.act),
    }


def groupoid_doc(g: FiniteGroupoid) -> dict:
    return {
        "kind": "groupoid",
        "objects": list(g.objects),
        "morphisms": list(g.morphisms),
        "src": {m: g.src[m] for m in g.morphisms},
        "tgt": {m: g.tgt[m] for m in g.morphisms},
        "inv": {m: g.inv[m] for m in g.morphisms},
        "identities": {o: g.identities[o] for o in g.objects},
        "comp": sorted([a, b, c] for (a, b), c in g.comp.items()),
    }


def conv_map_doc(m: ConvMap) -> dict:
    return {"kind": "conv_map", "matrix": _matrix_json(m.matrix)}


def document_for(obj) -> dict:
    if isinstance(obj, WeakHopfAlgebra):
        return weak_hopf_doc(obj)
    if isinstance(obj, FiniteAlgebra):
        return algebra_doc(obj)
    if isinstance(obj, FiniteCoalgebra):
        return coalgebra_doc(obj)
    if isinstance(obj, ModuleAction):
        return module_action_doc(obj)
    if isinstance(obj, FiniteGroupoid):
        return groupoid_doc(obj)
    if isinstance(obj, ConvMap):
        return conv_map_doc(obj)
    raise TypeError(f"no document form for {type(obj).__name__}")


def dumps(obj) -> str:
    return json.dumps(document_for(obj), indent=2, sort_keys=True)
