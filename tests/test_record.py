"""`Record`, the value-type base, against the frozen dataclass it stands for.

Each of the library's value types is compared with a dataclass twin built
here from the same annotations: field order, repr, equality, hashing,
immutability, argument errors, defaults and `__post_init__` errors must
be what `@dataclass(frozen=True)` gave.  A fresh `import whk.cli` must not
load `dataclasses` or `inspect` at all.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from whk.actions import InnerActionBattery, InnerData, ModuleAction, adjoint_data, inner_action_battery
from whk.algebra import FiniteAlgebra
from whk.coalgebra import CoradicalFiltration, FiniteCoalgebra, coradical_filtration
from whk.convolution import ConvMap, EFWitness
from whk.corpus import CorpusEntry, corpus_entry
from whk.errors import ShapeError
from whk.groupoid import FiniteGroupoid
from whk.linalg import Mat, Record, Subspace
from whk.report import Counterexample, Item, Law, Report
from whk.smash import SmashBattery, SmashProduct, build_smash, smash_inner_battery
from whk.weakhopf import CounitalData, WeakHopfAlgebra, antipode_conv, identity_conv


def h4():
    return corpus_entry("h4").wha


def p2():
    return corpus_entry("p2").wha


def no_rows(*lead):
    return ()


def negated(battery):
    return type(battery)(*(not getattr(battery, f) for f in battery._fields))


# two instances of each value type that differ in at least one field
SAMPLES = {
    Mat: lambda: (Mat.from_rows([[1, 2], [3, 4]]), Mat.from_rows([[1, 2], [3, 5]])),
    Subspace: lambda: (Subspace.spanned_by(2, [(Fraction(1), Fraction(1))]), Subspace.full(2)),
    Counterexample: lambda: (Counterexample((0, 1), "1", "2"), Counterexample((0,), "1", "2")),
    Item: lambda: (Item("unit", True), Item("unit", False, Counterexample((1,), "a", "b"))),
    Report: lambda: (Report((Item("unit", True),)), Report(())),
    Law: lambda: (Law(("a",), no_rows, (1,)), Law(("a",), no_rows, (1,), bool, ((no_rows, ((0,),)),))),
    FiniteAlgebra: lambda: (h4().alg, p2().alg),
    FiniteCoalgebra: lambda: (h4().coalg, p2().coalg),
    CoradicalFiltration: lambda: (coradical_filtration(h4().coalg), coradical_filtration(p2().coalg)),
    ConvMap: lambda: (identity_conv(h4()), antipode_conv(h4())),
    EFWitness: lambda: (adjoint_data(h4()).witness, adjoint_data(p2()).witness),
    WeakHopfAlgebra: lambda: (h4(), p2()),
    CounitalData: lambda: (h4().counital_data, p2().counital_data),
    ModuleAction: lambda: (corpus_entry("h4").ht_action, corpus_entry("p2").ht_action),
    InnerData: lambda: (adjoint_data(h4()), adjoint_data(p2())),
    InnerActionBattery: lambda: (lambda b: (b, negated(b)))(inner_action_battery(adjoint_data(h4()))),
    SmashProduct: lambda: (build_smash(corpus_entry("h4").ht_action), build_smash(corpus_entry("p2").ht_action)),
    SmashBattery: lambda: (lambda b: (b, negated(b)))(smash_inner_battery(build_smash(corpus_entry("p2").ht_action))),
    FiniteGroupoid: lambda: (corpus_entry("qc2").groupoid, corpus_entry("qs3").groupoid),
    CorpusEntry: lambda: (corpus_entry("h4"), corpus_entry("p2")),
}
CLASSES = list(SAMPLES)
IDENTITY_EQUALITY = {CorpusEntry}
UNHASHABLE = {FiniteGroupoid}  # dict fields
# stored by term tables: the class takes the dense tensor (or matrix), `from_terms` the fields
BORN_SPARSE = {FiniteAlgebra, FiniteCoalgebra, ModuleAction, Mat}


def by_fields(cls):
    """The constructor that takes cls's fields, as the dataclass twin does."""
    return cls.from_terms if cls in BORN_SPARSE else cls


def twin(cls):
    """The frozen dataclass with cls's annotations, defaults and name."""
    annotations = cls.__dict__["__annotations__"]
    spec = [(f, a, dataclasses.field(default=cls.__dict__[f])) if f in cls.__dict__ else (f, a)
            for f, a in annotations.items()]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=cls not in IDENTITY_EQUALITY)


def values(x) -> list:
    return [getattr(x, f) for f in x._fields]


def test_every_record_class_is_covered():
    assert len(CLASSES) == 20
    assert {c for c in Record.__subclasses__() if c.__module__.startswith("whk.")} == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_and_repr_match_the_dataclass(cls):
    t = twin(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(t))
    x, y = SAMPLES[cls]()
    assert repr(x) == repr(t(*values(x)))
    assert repr(y) == repr(t(*values(y)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_match_the_dataclass(cls):
    t = twin(cls)
    x, y = SAMPLES[cls]()
    x2 = by_fields(cls)(*values(x))
    tx, tx2, ty = t(*values(x)), t(*values(x2)), t(*values(y))
    verdicts = lambda a, b, c: (a == a, a == b, a != b, a == c, a != c, c == a)
    assert verdicts(x, x2, y) == verdicts(tx, tx2, ty)
    assert verdicts(x, x2, y)[1] is (cls not in IDENTITY_EQUALITY)
    assert verdicts(x, x2, y)[3] is False
    if cls in UNHASHABLE:
        for a in (x, tx):
            with pytest.raises(TypeError):
                hash(a)
    elif cls in IDENTITY_EQUALITY:
        assert hash(x) == object.__hash__(x) and hash(tx) == object.__hash__(tx)
    else:
        assert hash(x) == hash(x2) == hash(tx) == hash(tuple(values(x)))
    # a foreign class is never equal, not even the twin with the same fields
    assert (x == tx, tx == x, x != tx) == (False, False, True)
    assert x != object() and x != tuple(values(x))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_are_immutable(cls):
    x, _ = SAMPLES[cls]()
    before = values(x)
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert all(a is b for a, b in zip(values(x), before))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_arguments_bind_as_in_the_dataclass(cls):
    t = twin(cls)
    x, _ = SAMPLES[cls]()
    vals = values(x)
    last = cls._fields[-1]
    by_keyword = by_fields(cls)(*vals[:-1], **{last: vals[-1]})
    all_keywords = by_fields(cls)(**dict(zip(cls._fields, vals)))
    assert values(by_keyword) == values(all_keywords) == vals
    for make in (by_fields(cls), t):
        for args, kwargs in (
            ((), {}),                                   # missing
            (vals[:1], {}) if cls in (Item, Law) else (vals[:-1], {}),  # missing the last required field
            ((*vals, vals[0]), {}),                     # surplus
            (vals, {"not_a_field": 1}),                 # unexpected
            (vals, {cls._fields[0]: vals[0]}),          # given twice
        ):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


def test_item_default_applies():
    for item in (Item("unit", True), Item("unit", passed=True), Item(name="unit", passed=True)):
        assert item.counterexample is None and item == Item("unit", True, None)
    c = Counterexample((0,), "1", "2")
    assert Item("unit", False, counterexample=c).counterexample is c


def test_corpus_entries_compare_by_identity():
    entry = corpus_entry("h4")
    copy = CorpusEntry(*values(entry))
    assert entry == entry and copy == copy
    assert entry != copy and not (entry == copy)
    assert len({entry, copy, corpus_entry("h4")}) == 2


def test_cached_property_is_computed_once():
    calls = []

    class Squared(Record):
        n: int

        @cached_property
        def square(self):
            calls.append(self.n)
            return self.n * self.n

    s = Squared(3)
    assert (s.square, s.square, calls) == (9, 9, [3])
    assert vars(s)["square"] == 9
    m = Mat.from_rows([[1, 2], [3, 4]])
    assert m.columns is m.columns and "columns" in vars(m)
    a = h4().alg
    assert a.mult_terms is a.mult_terms
    assert a.mult is a.mult and "mult" in vars(a)  # the dense view, computed once


def test_post_init_errors_keep_type_and_message():
    row = (Fraction(1), Fraction(2))
    for make in (lambda: Mat(2, 2, (row,)), lambda: Mat(rows=2, cols=2, entries=(row,))):
        with pytest.raises(ShapeError, match=r"^expected 2 rows, got 1$"):
            make()
    with pytest.raises(ShapeError, match=r"^expected row length 3, got 2$"):
        Mat(1, 3, (row,))
    g = corpus_entry("qc2").groupoid
    with pytest.raises(ShapeError, match=r"^duplicate object identifiers$"):
        FiniteGroupoid(g.objects * 2, *values(g)[1:])


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: only what importing whk.cli loads, not what site hooks may load
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, whk.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n", out.stdout + out.stderr
