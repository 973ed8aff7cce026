"""Independent cross-checks against closed-form textbook facts.

Each test derives its expected value through a route disjoint from the
implementation under test: explicit matrix-unit models, conjugacy-class
counts, grouplike enumeration, nilpotent-ideal witnesses and closed-form
convolution inverses.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from whk.algebra import (
    FiniteAlgebra, center, jacobson_radical, subspace_power, trace_form_matrix, validate_algebra,
)
from whk.coalgebra import coradical_filtration, dual_algebra
from whk.convolution import ConvMap, conv_unit, convolve, ef_inverse_solve
from whk.corpus import WHA_NAMES, corpus_entry, sw2_coalgebra
from whk.errors import InvariantViolation
from whk.groupoid import groupoid_algebra, groupoid_family
from whk.linalg import Mat, Subspace, kernel, unit_vec, vec, vec_kron
from whk.weakhopf import counital_data


def test_pair_groupoid_algebra_is_matrix_units():
    # morphism a -> b corresponds to the matrix unit E[b][a];
    # E[b][a] E[d][c] = delta(a, d) E[b][c] reproduces the whole table
    entry = corpus_entry("p2")
    g = entry.groupoid
    alg = entry.wha.alg
    obj_index = {o: i for i, o in enumerate(g.objects)}
    unit_of = {m: (obj_index[g.tgt[m]], obj_index[g.src[m]]) for m in g.morphisms}
    for m1 in g.morphisms:
        b, a = unit_of[m1]
        for m2 in g.morphisms:
            d, c = unit_of[m2]
            product = alg.basis_product(g.index(m1), g.index(m2))
            if a == d:
                expected_pair = (b, c)
                winners = [
                    m for m in g.morphisms if unit_of[m] == expected_pair
                ]
                assert product == unit_vec(4, g.index(winners[0]))
            else:
                assert product == (Fraction(0),) * 4


def test_group_algebra_center_counts_conjugacy_classes():
    # over the rationals the centre of a finite group algebra is spanned by
    # class sums, so its dimension is the number of conjugacy classes
    assert center(corpus_entry("qc2").wha.alg).dim == 2
    assert center(corpus_entry("qs3").wha.alg).dim == 3


def test_group_algebras_are_semisimple():
    for name in ("qc2", "qs3", "p2", "c2c1"):
        assert jacobson_radical(corpus_entry(name).wha.alg).dim == 0


def test_h4_algebra_radical_is_the_nilpotent_ideal():
    # x and gx span a square-zero two-sided ideal with semisimple quotient
    alg = corpus_entry("h4").wha.alg
    radical = jacobson_radical(alg)
    assert radical == Subspace.spanned_by(4, [unit_vec(4, 2), unit_vec(4, 3)])
    for a in radical.basis:
        for b in radical.basis:
            assert alg.multiply(a, b) == (Fraction(0),) * 4


def test_h4_coradical_is_the_grouplike_span():
    coalg = corpus_entry("h4").wha.coalg
    for i in (0, 1):
        e = unit_vec(4, i)
        assert coalg.delta_vec(e) == vec_kron(e, e)
        assert coalg.counit_value(e) == 1
    filtration = coradical_filtration(coalg)
    assert filtration.coradical == Subspace.spanned_by(4, [unit_vec(4, 0), unit_vec(4, 1)])


def test_scalar_type_convolution_inverse_closed_form():
    # for c invertible in A, the map h -> counit(h) c is a unit of the
    # convolution algebra with inverse h -> counit(h) c^{-1}; here
    # c = 2 + t for a transposition t, with (2 + t)(2 - t) = 3
    entry = corpus_entry("qs3")
    wha = entry.wha
    g = entry.groupoid
    t = next(
        m
        for m in g.morphisms
        if m != g.identities[g.objects[0]] and g.comp[(m, m)] == g.identities[g.objects[0]]
    )
    c = tuple(
        Fraction(2) * u + x
        for u, x in zip(wha.unit, unit_vec(6, g.index(t)))
    )
    c_inv = tuple(
        (Fraction(2) * u - x) / 3
        for u, x in zip(wha.unit, unit_vec(6, g.index(t)))
    )
    assert wha.multiply(c, c_inv) == wha.unit
    counit = wha.coalg.counit
    a_c = ConvMap(wha.coalg, wha.alg, Mat.from_columns([tuple(counit[j] * x for x in c) for j in range(6)], 6))
    one = conv_unit(wha.coalg, wha.alg)
    solved = ef_inverse_solve(a_c, one, one)
    expected = Mat.from_columns([tuple(counit[j] * x for x in c_inv) for j in range(6)], 6)
    assert solved is not None and solved.matrix == expected
    assert convolve(a_c, solved) == one


def test_target_subalgebra_is_diagonal_functions_on_objects():
    # for a groupoid algebra the target subalgebra multiplies like
    # coordinatewise functions on the object set
    entry = corpus_entry("c2c1")
    cd = counital_data(entry.wha)
    basis = cd.h_t.basis
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            product = entry.wha.multiply(a, b)
            assert product == (a if i == j else (Fraction(0),) * 3)


def load_bench_inputs():
    """bench/inputs.py, the seeded basis-permuted benchmark inputs, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def dickson_algebras():
    """65 algebras: each weak Hopf algebra's algebra and the dual of its coalgebra, plus sw2*."""
    bench = load_bench_inputs()
    whas = [(name, corpus_entry(name).wha) for name in WHA_NAMES]
    whas += [(f"{name}@{seed}", bench.build(name, seed).wha) for seed in (7, 12) for name in bench.FACTS]
    whas += [(f"family{i}", groupoid_algebra(g)) for i, g in enumerate(groupoid_family(3, 2))]
    out = [("sw2*", dual_algebra(sw2_coalgebra()))]
    for label, h in whas:
        out += [(label, h.alg), (f"{label}*", dual_algebra(h.coalg))]
    return out


def test_radical_is_the_trace_form_kernel_and_nilpotent():
    # Dickson: over Q the radical of an associative unital algebra is the
    # kernel of the trace form; being a nilpotent ideal checks it apart
    # from the trace computation
    cases = dickson_algebras()
    assert len(cases) == 65
    radicals = 0
    for label, a in cases:
        radical = jacobson_radical(a)
        assert radical == kernel(trace_form_matrix(a)), label
        assert subspace_power(a, radical, a.dim + 1).dim == 0, label
        radicals += radical.dim > 0
    assert radicals >= 6  # h4, h4xp2, h4xh4 and their duals, at least


def test_corrupt_algebra_whose_trace_kernel_is_no_ideal_raises():
    # e0 = 1, e1 e1 = e1 e2 = 0, e2 e1 = e2 e2 = e2: not associative
    # ((e2 e1) e1 = e2, e2 (e1 e1) = 0); the trace-form kernel span(e1) is
    # not a left ideal, since e2 e1 = e2
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 1], [0, 0, 1]],
    ]
    a = FiniteAlgebra.from_lists(3, mult, [1, 0, 0])
    assert not validate_algebra(a).ok
    assert kernel(trace_form_matrix(a)) == Subspace.spanned_by(3, [unit_vec(3, 1)])
    with pytest.raises(InvariantViolation, match="not a two-sided ideal"):
        jacobson_radical(a)
