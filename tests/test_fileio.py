import json

import pytest

from whk.corpus import corpus_entry, sw2_coalgebra
from whk.errors import ParseError
from whk.fileio import dumps, loads, parse_scalar, scalar_str
from fractions import Fraction


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


def test_round_trip_every_kind(tmp_path):
    objects = [
        corpus_entry("h4").wha,
        corpus_entry("p2").wha.alg,
        sw2_coalgebra(),
        corpus_entry("c2c1").ht_action,
        corpus_entry("p2").groupoid,
    ]
    for obj in objects:
        text = dumps(obj)
        kind, parsed = loads(text)
        assert parsed == obj
        assert dumps(parsed) == text  # normalized serialization is stable


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
