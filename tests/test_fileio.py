import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whk.actions import ModuleAction
from whk.algebra import FiniteAlgebra
from whk.coalgebra import FiniteCoalgebra
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry, sw2_coalgebra
from whk.errors import ParseError
from whk.fileio import document_for, dumps, loads, parse_conv_matrix, parse_scalar, scalar_str
from whk.groupoid import groupoid_algebra, groupoid_family
from whk.weakhopf import antipode_conv
from fractions import Fraction

from test_sparse_core import transported, unitriangular


def test_scalar_forms():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert parse_scalar(5) == Fraction(5)
    assert scalar_str(Fraction(-6, 8)) == "-3/4"


def test_scalar_rejects_floats_and_garbage():
    with pytest.raises(ParseError):
        parse_scalar("0.5")
    with pytest.raises(ParseError):
        parse_scalar(True)
    with pytest.raises(ParseError):
        parse_scalar("1/0")
    with pytest.raises(ParseError):
        parse_scalar(None)


@pytest.mark.parametrize("literal", ["1\n", "\u0663"])
def test_rational_literals_take_ascii_digits_only(literal):
    # a trailing newline and an Arabic-Indic three both read as integers with a Unicode
    # \d and $, and the document then no longer round-trips byte for byte
    with pytest.raises(ParseError, match="^bad rational literal "):
        parse_scalar(literal)


def test_float_literals_rejected_in_documents():
    doc = '{"kind": "algebra", "dim": 1, "mult": [[[1.5]]], "unit": ["1"]}'
    with pytest.raises(ParseError):
        loads(doc)


def test_loads_rejects_garbage():
    with pytest.raises(ParseError):
        loads("this is not json")
    with pytest.raises(ParseError):
        loads('{"kind": "starship"}')
    with pytest.raises(ParseError):
        loads('["top-level array"]')


def test_dim_mismatch_rejected():
    doc = json.loads(dumps(corpus_entry("qc2").wha))
    doc["dim"] = 3
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_integer_shorthand_accepted():
    doc = '{"kind": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]}'
    kind, algebra = loads(doc)
    assert kind == "algebra"
    assert algebra.unit == (Fraction(1),)


@pytest.mark.parametrize("bad", ["1.0", "1/0", True, None, [1]])
def test_bad_literal_after_good_ones_still_raises(bad):
    # the literals parsed so far are reused within one document: a bad
    # literal at a position a good one already filled (mult vs comult), or
    # one equal to a parsed literal under == (True == 1), must raise as on its own
    doc = json.loads(dumps(corpus_entry("qc2").wha))
    assert doc["mult"][0][0][0] == "1"
    doc["mult"][0][0][0] = 1
    doc["comult"][0][0][0] = bad
    with pytest.raises(ParseError) as caught:
        loads(json.dumps(doc))
    with pytest.raises(ParseError) as alone:
        parse_scalar(bad)
    assert str(caught.value) == str(alone.value)
    # the same bad literal twice in one document raises on the first
    doc["counit"][0] = bad
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_repeated_literals_parse_to_equal_values():
    doc = {"kind": "algebra", "dim": 1, "mult": [[["6/4"]]], "unit": ["6/4"]}
    _, algebra = loads(json.dumps(doc))
    assert algebra.mult[0][0][0] == algebra.unit[0] == Fraction(3, 2)
    assert all(isinstance(x, Fraction) for x in algebra.unit)


def documented_objects():
    """(label, structure) for every corpus member, its H_t action and corruptions, a small
    groupoid family with its algebras, and qs3 on a rational basis (Fractions in every table)."""
    objects = [("sw2", sw2_coalgebra())]
    for name in WHA_NAMES:
        entry = corpus_entry(name)
        objects += [(name, entry.wha), (f"{name}.alg", entry.wha.alg), (f"{name}.ht_action", entry.ht_action)]
        objects += [(f"{name}.{m}", apply_mutation(entry.wha, m)) for m in MUTATIONS]
        if entry.groupoid is not None:
            objects.append((f"{name}.groupoid", entry.groupoid))
    for i, g in enumerate(groupoid_family(3, 2)):
        objects += [(f"family{i}", g), (f"family{i}.wha", groupoid_algebra(g))]
    qs3 = corpus_entry("qs3").wha
    objects.append(("qs3.transported", transported(qs3, unitriangular(qs3.dim))))
    return objects


def test_round_trip_every_kind():
    # dumps writes json.dumps's indent=2, sort_keys=True layout, and loads gives back an equal structure
    for label, x in documented_objects():
        text = dumps(x)
        assert text == json.dumps(document_for(x), indent=2, sort_keys=True), label
        _, parsed = loads(text)
        assert parsed == x and dumps(parsed) == text, label
        if not hasattr(x, "comp"):  # a groupoid holds dicts and has no hash
            assert hash(parsed) == hash(x), label
    qs3 = corpus_entry("qs3").wha
    h = transported(qs3, unitriangular(qs3.dim))
    m = antipode_conv(h)
    text = dumps(m)
    assert text == json.dumps(document_for(m), indent=2, sort_keys=True)
    assert parse_conv_matrix(json.loads(text), h.coalg, h.alg) == m


ROW_TOKENS = ["0", 0, "-0", "0/7", "2/4", "1/1", "-3"]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.data())
def test_rows_parse_to_the_structures_of_the_dense_constructors(data):
    n = data.draw(st.integers(1, 3), label="dim")
    row = st.lists(st.sampled_from(ROW_TOKENS), min_size=n, max_size=n)

    def tensor(outer):
        return data.draw(st.lists(st.lists(row, min_size=n, max_size=n), min_size=outer, max_size=outer))

    def dense(t):
        return tuple(tuple(tuple(parse_scalar(x) for x in r) for r in s) for s in t)

    mult, comult, unit, counit = tensor(n), tensor(n), data.draw(row), data.draw(row)
    hopf = corpus_entry("qc2").wha
    act = tensor(hopf.dim)
    alg_doc = {"kind": "algebra", "dim": n, "mult": mult, "unit": unit}
    coalg_doc = {"kind": "coalgebra", "dim": n, "comult": comult, "counit": counit}
    action_doc = {"kind": "module_action", "hopf": document_for(hopf), "algebra": alg_doc, "action": act}
    alg = FiniteAlgebra(n, dense(mult), tuple(map(parse_scalar, unit)))
    want = [alg, FiniteCoalgebra(n, dense(comult), tuple(map(parse_scalar, counit))), ModuleAction(hopf, alg, dense(act))]
    for doc, x in zip((alg_doc, coalg_doc, action_doc), want):
        _, parsed = loads(json.dumps(doc))
        assert parsed == x and hash(parsed) == hash(x)


def shrink(doc, field, depth):
    """doc with the list `depth` levels below doc[field] one entry short."""
    parent = doc
    key = field
    for _ in range(depth):
        parent, key = parent[key], 0
    parent[key] = parent[key][:-1]
    return doc


@pytest.mark.parametrize(
    "field, depth, message",
    [
        ("mult", 0, "mult must be a 2^3 nested list"),
        ("mult", 1, "mult must be a 2^3 nested list"),
        ("mult", 2, "mult must be a list of length 2"),
        ("comult", 0, "comult must be a 2^3 nested list"),
        ("comult", 1, "comult must be a 2^3 nested list"),
        ("comult", 2, "comult must be a list of length 2"),
        ("action", 0, "action tensor must have one slice per basis vector of the weak Hopf algebra"),
        ("action", 1, "action tensor slices must match the algebra dimension"),
        ("action", 2, "action must be a list of length 2"),
    ],
)
def test_a_shape_error_at_each_level_keeps_its_message(field, depth, message):
    x = corpus_entry("p2").ht_action if field == "action" else corpus_entry("qc2").wha
    doc = shrink(json.loads(dumps(x)), field, depth)
    with pytest.raises(ParseError) as caught:
        loads(json.dumps(doc))
    assert str(caught.value) == message


DIGITS = "7" * 5000  # past the interpreter's 4300-digit int-string limit


def hostile_documents(doc, row):
    """The JSON object doc made hostile three ways, by name: `row`, a list of scalars in doc,
    led by a 5000-digit literal as a string or as a native integer, and a document of doc's
    kind holding 100,000 nested brackets."""
    row[0] = DIGITS
    text = json.dumps(doc)
    return {
        "long_literal": text,
        "long_integer": text.replace(f'"{DIGITS}"', DIGITS),
        "deep_nesting": json.dumps({"kind": doc["kind"]})[:-1] + ', "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    }


@pytest.mark.parametrize(
    "case, message",
    [
        ("long_literal", "bad rational literal of 5000 characters: too many digits"),
        ("long_integer", "not valid JSON: an integer literal has too many digits"),
        ("deep_nesting", "not valid JSON: lists or objects nested too deeply"),
    ],
)
def test_hostile_documents_are_parse_errors(case, message):
    doc = json.loads(dumps(corpus_entry("p2").wha))
    with pytest.raises(ParseError) as caught:
        loads(hostile_documents(doc, doc["counit"])[case])
    assert str(caught.value) == message
