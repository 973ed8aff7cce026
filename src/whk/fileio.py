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
from typing import Any, Iterable

from .actions import ModuleAction
from .algebra import FiniteAlgebra
from .coalgebra import FiniteCoalgebra
from .convolution import ConvMap
from .errors import ParseError, ShapeError
from .groupoid import FiniteGroupoid
from .linalg import Exact, Mat, TermTable, Terms, Vec, term_value, transposed
from .weakhopf import WeakHopfAlgebra

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
        except ValueError:  # beyond the interpreter's int-string digit limit
            raise ParseError(f"bad rational literal of {len(value)} characters: too many digits") from None
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


def _row_terms(row: Any, n: int, what: str, literals: dict[str, Fraction]) -> Terms:
    """A dense row of n scalars as its canonical term list; the literal "0" is skipped unparsed."""
    if not isinstance(row, list) or len(row) != n:
        raise ParseError(f"{what} must be a list of length {n}")
    if row.count("0") == n:  # most rows of a large document are zero: one C-level scan
        return ()
    values = [(k, _scalar(x, literals)) for k, x in enumerate(row) if x != "0"]
    return tuple([(k, term_value(q)) for k, q in values if q])


def _parse_table(data: Any, outer: int, n: int, what: str, literals: dict[str, Fraction], *errors: str) -> TermTable:
    """The term table of a dense tensor of `outer` slices of n rows of n scalars, read a row at a time;
    errors: the messages for a wrong outer and slice shape, by default "{what} must be a {n}^3 nested list"."""
    outer_error, slice_error = errors or (f"{what} must be a {n}^3 nested list",) * 2
    if not isinstance(data, list) or len(data) != outer:
        raise ParseError(outer_error)
    table = []
    for slice_ in data:
        if not isinstance(slice_, list) or len(slice_) != n:
            raise ParseError(slice_error)
        table.append(tuple([_row_terms(row, n, what, literals) for row in slice_]))
    return tuple(table)


def _parse_matrix(data: Any, rows: int, cols: int, what: str, literals: dict[str, Fraction]) -> Mat:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"{what} must be a {rows}x{cols} nested list")
    return Mat.from_terms(rows, cols, transposed([_row_terms(row, cols, what, literals) for row in data], cols))


def _vec_json(v: Vec) -> list[str]:
    return [scalar_str(x) for x in v]


def _tensor_json(slices: Iterable[Iterable[tuple[int, int, Exact]]], n: int) -> list:
    """Dense nested lists of scalar strings, n rows of n per slice, from each slice's (row, column, value)s."""
    zero = ["0"] * n
    out = []
    for triples in slices:
        rows = [zero.copy() for _ in range(n)]
        for j, k, x in triples:
            rows[j][k] = str(x)
        out.append(rows)
    return out


def _table_json(table: TermTable, n: int) -> list:
    return _tensor_json((((j, k, x) for j, terms in enumerate(rows) for k, x in terms) for rows in table), n)


def _matrix_json(m: Mat) -> list:
    return [_vec_json(row) for row in m.entries]


def _dim_of(doc: dict) -> int:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        raise ParseError("document needs a positive integer 'dim'")
    return dim


def parse_algebra(doc: dict, literals: dict[str, Fraction]) -> FiniteAlgebra:
    dim = _dim_of(doc)
    mult = _parse_table(doc.get("mult"), dim, dim, "mult", literals)
    return FiniteAlgebra.from_terms(dim, mult, _parse_vec(doc.get("unit"), dim, "unit", literals))


def parse_coalgebra(doc: dict, literals: dict[str, Fraction]) -> FiniteCoalgebra:
    dim = _dim_of(doc)
    table = _parse_table(doc.get("comult"), dim, dim, "comult", literals)
    delta = tuple(tuple((j, k, x) for j, terms in enumerate(rows) for k, x in terms) for rows in table)
    return FiniteCoalgebra.from_terms(dim, delta, _parse_vec(doc.get("counit"), dim, "counit", literals))


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
    act = _parse_table(
        doc.get("action"), hopf.dim, alg.dim, "action", literals,
        "action tensor must have one slice per basis vector of the weak Hopf algebra",
        "action tensor slices must match the algebra dimension",
    )
    return ModuleAction.from_terms(hopf, alg, act)


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

KINDS = (*_PARSERS, "conv_map")  # every document kind; a conv_map is read only next to its context


def _document(doc: Any):
    """(kind, structure) of a decoded document."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = doc.get("kind")
    if kind == "conv_map":
        raise ParseError("conv_map documents only make sense next to a weak_hopf context")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise ParseError(f"unknown or missing document kind: {kind!r}")
    try:
        # one dict of the string literals parsed so far, for this document only
        return kind, _PARSERS[kind](doc, {})
    except ShapeError as exc:
        raise ParseError(str(exc)) from None


def _decode(text: str) -> Any:
    """The JSON value of a document's text; each way json.loads can refuse it is a ParseError."""
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    except ParseError:  # a float literal, refused by _reject_float
        raise
    except ValueError:  # int() of a literal beyond the interpreter's int-string digit limit
        raise ParseError("not valid JSON: an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("not valid JSON: lists or objects nested too deeply") from None


def _reject_float(value: str) -> None:
    raise ParseError(f"floating point literal {value!r} is not exact; write 'p/q' strings")


def read_json(path: str) -> Any:
    """The JSON value of the file at path, read and decoded as `loads` decodes its text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _decode(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def loads(text: str):
    """Parse a document string; returns (kind, structure)."""
    return _document(_decode(text))


def load_path(path: str):
    return _document(read_json(path))


def algebra_doc(a: FiniteAlgebra) -> dict:
    return {"kind": "algebra", "dim": a.dim, "mult": _table_json(a.mult_terms, a.dim), "unit": _vec_json(a.unit)}


def coalgebra_doc(c: FiniteCoalgebra) -> dict:
    comult = _tensor_json(c.delta_terms, c.dim)
    return {"kind": "coalgebra", "dim": c.dim, "comult": comult, "counit": _vec_json(c.counit)}


def weak_hopf_doc(h: WeakHopfAlgebra) -> dict:
    return {
        "kind": "weak_hopf",
        "dim": h.dim,
        "mult": _table_json(h.alg.mult_terms, h.dim),
        "unit": _vec_json(h.alg.unit),
        "comult": _tensor_json(h.coalg.delta_terms, h.dim),
        "counit": _vec_json(h.coalg.counit),
        "antipode": _matrix_json(h.antipode),
    }


def module_action_doc(m: ModuleAction) -> dict:
    return {
        "kind": "module_action",
        "hopf": weak_hopf_doc(m.hopf),
        "algebra": algebra_doc(m.alg),
        "action": _table_json(m.act_terms, m.alg.dim),
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


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value: Any, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) lays it out at this indent, each list of
    strings joined in one call: with `indent` set, json.dumps runs its pure-Python encoder."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (f"{_encode_str(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list) and value:
        items = map(_encode_str, value) if isinstance(value[0], str) else (_json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def dumps(obj) -> str:
    """The document of obj, laid out as json.dumps(document_for(obj), indent=2, sort_keys=True)."""
    return _json_text(document_for(obj))
