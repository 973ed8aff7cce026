"""Structures stored by term tables, against their dense boundary.

`FiniteAlgebra`, `FiniteCoalgebra` and `ModuleAction` store term tables;
their constructors take a dense tensor and read it once, `from_terms`
takes a canonical table, and `mult`, `comult` and `act` are dense views.
On the corpus, its 30 corruptions, `groupoid_family(3, 2)` and the bench
inputs at seeds 7 and 12, and on every structure the library derives from
them (the H_t and adjoint actions, the smash product and its conjugation
candidate, the dual algebra, the coradical coalgebra, the opposite and
the coopposite), this checks:

  * the serialized document, and so every entry of the dense tensors,
    against `dense_golden.json`, which holds the digests of the documents
    written when the structures stored their dense tensors;
  * the dense views hold `Fraction` only;
  * rebuilding from the dense views gives an equal structure with an
    equal hash, and a `fileio` round trip is bit-stable.

It also checks that `from_terms` rejects non-canonical tables and that the
dense constructors keep their error types and messages.  After a change
that alters a structure on purpose, regenerate the golden file with

    PYTHONPATH=src python tests/test_term_tables.py

and review its diff like any other change.
"""

import hashlib
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from whk.actions import ModuleAction, adjoint_action, ht_module_action
from whk.algebra import FiniteAlgebra, opposite_algebra
from whk.coalgebra import FiniteCoalgebra, coopposite, dual_algebra
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.fileio import dumps, loads
from whk.groupoid import groupoid_algebra, groupoid_family
from whk.smash import build_smash

GOLDEN = Path(__file__).with_name("dense_golden.json")
LIBRARY_ERRORS = (DimensionError, InvariantViolation, PreconditionError, ShapeError)
BENCH_SEEDS = (7, 12)


def load_bench_inputs():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import inputs

    return inputs


def case_builders() -> dict:
    """label -> thunk of a weak Hopf algebra."""
    cases = {name: lambda name=name: corpus_entry(name).wha for name in WHA_NAMES}
    for name in WHA_NAMES:
        for mutation in MUTATIONS:
            cases[f"{name}.{mutation}"] = lambda n=name, m=mutation: apply_mutation(corpus_entry(n).wha, m)
    for i, g in enumerate(groupoid_family(3, 2)):
        cases[f"family{i}"] = lambda g=g: groupoid_algebra(g)
    bench = load_bench_inputs()
    for seed in BENCH_SEEDS:
        for name in bench.FACTS:
            cases[f"{name}@{seed}"] = lambda n=name, s=seed: bench.build(n, s).wha
    return cases


CASES = case_builders()


@cache
def derived(label: str) -> dict:
    """name -> the structure, or the name of the library error that stops it, for one case."""
    h = CASES[label]()
    thunks = {
        "alg": lambda: h.alg,
        "coalg": lambda: h.coalg,
        "ht_action": lambda: ht_module_action(h),
        "adjoint": lambda: adjoint_action(h),
        "smash": lambda: build_smash(ht_module_action(h)).algebra,
        "candidate": lambda: build_smash(ht_module_action(h)).inner_candidate,
        "dual": lambda: dual_algebra(h.coalg),
        "coradical": lambda: h.coalg.coradical_coalgebra,
        "opposite": lambda: opposite_algebra(h.alg),
        "coopposite": lambda: coopposite(h.coalg),
    }
    out = {}
    for name, thunk in thunks.items():
        try:
            out[name] = thunk()
        except LIBRARY_ERRORS as exc:
            out[name] = type(exc).__name__
    return out


def digests(label: str) -> dict:
    """name -> sha256 of the structure's serialized document, or the error name."""
    return {
        name: x if isinstance(x, str) else hashlib.sha256(dumps(x).encode()).hexdigest()
        for name, x in derived(label).items()
    }


def structures(label: str) -> list:
    return [x for x in derived(label).values() if not isinstance(x, str)]


def scalars(x) -> list:
    """Every scalar of the dense views of a structure, the action's own only."""
    if isinstance(x, FiniteAlgebra):
        tensor, vector = x.mult, x.unit
    elif isinstance(x, FiniteCoalgebra):
        tensor, vector = x.comult, x.counit
    else:
        tensor, vector = x.act, ()
    return [v for slice_ in tensor for row in slice_ for v in row] + list(vector)


def rebuilt(x):
    """x built afresh by its dense constructor from its dense views."""
    if isinstance(x, FiniteAlgebra):
        return FiniteAlgebra(x.dim, x.mult, x.unit)
    if isinstance(x, FiniteCoalgebra):
        return FiniteCoalgebra(x.dim, x.comult, x.counit)
    return ModuleAction(x.hopf, x.alg, x.act)


@pytest.mark.parametrize("label", list(CASES))
def test_documents_match_the_dense_tensors_stored_before(label):
    golden = json.loads(GOLDEN.read_text())
    assert digests(label) == golden[label]


@pytest.mark.parametrize("label", list(CASES))
def test_dense_views_round_trip(label):
    for x in structures(label):
        assert {type(v) for v in scalars(x)} == {Fraction}, label
        y = rebuilt(x)
        assert y == x and hash(y) == hash(x), label
        text = dumps(x)
        kind, parsed = loads(text)
        assert parsed == x and dumps(parsed) == text, (label, kind)


def test_golden_covers_every_case():
    assert set(json.loads(GOLDEN.read_text())) == set(CASES)
    assert len(CASES) == 5 + 30 + len(groupoid_family(3, 2)) + len(BENCH_SEEDS) * 5


F = Fraction
# canonical tables to corrupt: the dual numbers k[x]/(x^2), the coproduct of the
# coalgebra of sw2 (g grouplike, x primitive over g), the line k, and the slice
# of an action on the line by which a basis vector acts as the identity
DUAL_NUMBERS = ((((0, 1),), ((1, 1),)), (((1, 1),), ()))
SW2_TERMS = (((0, 0, 1),), ((0, 1, 1), (1, 0, 1)))
LINE = (((((0, 1),),),), (F(1),))
IDENTITY_ON_LINE = (((0, 1),),)


def test_from_terms_accepts_canonical_tables():
    a = FiniteAlgebra.from_terms(2, DUAL_NUMBERS, (F(1), F(0)))
    assert a == FiniteAlgebra(2, a.mult, a.unit) and a.mult[1][0] == (F(0), F(1))
    c = FiniteCoalgebra.from_terms(2, SW2_TERMS, (F(1), F(0)))
    assert c == FiniteCoalgebra(2, c.comult, c.counit) and c.comult[1][1][0] == F(1)
    h, line = corpus_entry("p2").wha, FiniteAlgebra.from_terms(1, *LINE)
    m = ModuleAction.from_terms(h, line, (IDENTITY_ON_LINE,) * h.dim)
    assert m == ModuleAction(h, line, m.act) and m.act[0] == ((F(1),),)


@pytest.mark.parametrize("terms", [
    ((0, 1), (2, 1)),          # index out of range
    ((-1, 1),),                # negative index
    ((1, 1), (0, 1)),          # unsorted
    ((1, 1), (1, 1)),          # duplicated
    ((0, 0),),                 # zero value
    ((0, F(0)),),              # zero Fraction
    ((0, F(2)),),              # integral Fraction: not in term_value form
    ((0, 0.5),),               # not exact
    ((F(0), 1),),              # index not an int
    (F(1), F(0)),              # a dense row, not a term list
    ((0, 1, 1),),              # a triple, not an (index, value) pair
])
def test_from_terms_rejects_a_noncanonical_algebra_row(terms):
    table = ((terms, ((1, 1),)), (((1, 1),), ()))
    with pytest.raises(ShapeError, match=r"^multiplication term table is not canonical$"):
        FiniteAlgebra.from_terms(2, table, (F(1), F(0)))
    h, dual_numbers = corpus_entry("p2").wha, FiniteAlgebra.from_terms(2, DUAL_NUMBERS, (F(1), F(0)))
    identity = (((0, 1),), ((1, 1),))
    with pytest.raises(ShapeError, match=r"^action term table is not canonical$"):
        ModuleAction.from_terms(h, dual_numbers, ((terms, ()),) + (identity,) * (h.dim - 1))


@pytest.mark.parametrize("terms", [
    ((0, 2, 1),),              # right index out of range
    ((2, 0, 1),),              # left index out of range
    ((0, -1, 1),),             # negative right index
    ((1, 0, 1), (0, 1, 1)),    # unsorted in (left, right)
    ((0, 1, 1), (0, 0, 1)),    # unsorted in right
    ((0, 1, 1), (0, 1, 2)),    # duplicated
    ((0, 1, 0),),              # zero value
    ((0, 1, F(3)),),           # integral Fraction
    ((0, 1, 0.5),),            # not exact
    (F(1), F(0)),              # a dense row, not a term list
    ((0, 1),),                 # a pair, not a (left, right, value) triple
])
def test_from_terms_rejects_noncanonical_coproduct_terms(terms):
    with pytest.raises(ShapeError, match=r"^comultiplication term table is not canonical$"):
        FiniteCoalgebra.from_terms(2, (((0, 0, 1),), terms), (F(1), F(0)))


def test_from_terms_rejects_wrong_shapes():
    with pytest.raises(ShapeError, match=r"^multiplication tensor has wrong shape$"):
        FiniteAlgebra.from_terms(2, DUAL_NUMBERS[:1], (F(1), F(0)))
    with pytest.raises(ShapeError, match=r"^multiplication tensor has wrong shape$"):
        FiniteAlgebra.from_terms(2, (DUAL_NUMBERS[0], DUAL_NUMBERS[1][:1]), (F(1), F(0)))
    with pytest.raises(ShapeError, match=r"^comultiplication tensor has wrong shape$"):
        FiniteCoalgebra.from_terms(2, SW2_TERMS[:1], (F(1), F(0)))
    h, line = corpus_entry("p2").wha, FiniteAlgebra.from_terms(1, *LINE)
    with pytest.raises(ShapeError, match=r"^action tensor has wrong outer dimension$"):
        ModuleAction.from_terms(h, line, (IDENTITY_ON_LINE,))
    with pytest.raises(ShapeError, match=r"^action tensor has wrong shape$"):
        ModuleAction.from_terms(h, line, ((),) * h.dim)


def test_dense_constructors_keep_their_errors():
    z, o = F(0), F(1)
    square = (((o, z), (z, o)), ((z, o), (z, z)))
    for make, message in (
        (lambda: FiniteAlgebra(0, (), ()), "algebra dimension must be positive"),
        (lambda: FiniteAlgebra(-1, (), ()), "algebra dimension must be positive"),
        (lambda: FiniteAlgebra(2, square[:1], (o, z)), "multiplication tensor has wrong shape"),
        (lambda: FiniteAlgebra(2, (square[0], square[1][:1]), (o, z)), "multiplication tensor has wrong shape"),
        (lambda: FiniteAlgebra(2, (square[0], ((z, o), (z,))), (o, z)), "multiplication tensor has wrong shape"),
        (lambda: FiniteAlgebra(2, square, (o,)), "unit vector has wrong length"),
        (lambda: FiniteCoalgebra(0, (), ()), "coalgebra dimension must be positive"),
        (lambda: FiniteCoalgebra(2, square[:1], (o, z)), "comultiplication tensor has wrong shape"),
        (lambda: FiniteCoalgebra(2, (square[0], ((z, o), (z,))), (o, z)), "comultiplication tensor has wrong shape"),
        (lambda: FiniteCoalgebra(2, square, (o, z, z)), "counit covector has wrong length"),
    ):
        with pytest.raises(ShapeError, match=rf"^{message}$"):
            make()
    h, identity = corpus_entry("p2").wha, ((o,),)  # one slice: x_0 -> x_0
    line = FiniteAlgebra(1, (identity,), (o,))
    for act, message in (
        ((identity,) * (h.dim - 1), "action tensor has wrong outer dimension"),
        ((((o,), (o,)),) * h.dim, "action tensor has wrong shape"),
        ((((o, z),),) * h.dim, "action tensor has wrong shape"),
    ):
        with pytest.raises(ShapeError, match=rf"^{message}$"):
            ModuleAction(h, line, act)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({label: digests(label) for label in CASES}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
