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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from whk import actions, smash
from whk.actions import ModuleAction, adjoint_action, ht_module_action
from whk.algebra import FiniteAlgebra, center, jacobson_radical, subspace_power, validate_algebra
from whk.coalgebra import FiniteCoalgebra, coradical, coradical_filtration, dual_algebra, dual_radical_filtration
from whk.convolution import ConvMap, conv_unit, convolve, ef_inverse_solve
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry, sw2_coalgebra
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.groupoid import groupoid_algebra, groupoid_family
from whk.linalg import Mat, Subspace, invert, kernel, unit_vec, vec
from whk.report import ReportBuilder
from whk.smash import SmashProduct, build_smash
from whk.weakhopf import WeakHopfAlgebra, counital_data, validate_wha

import filtration_reference as dense_route
import law_reference as reference
import smash_reference
from filtration_reference import trace_form_matrix
from test_linalg import delta_vec, of_dm, sympy_kron, to_dm


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
            product = alg.mult[g.index(m1)][g.index(m2)]
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
        assert delta_vec(coalg, e) == sympy_kron(e, e)
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
    assert wha.alg.multiply(c, c_inv) == wha.unit
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
            product = entry.wha.alg.multiply(a, b)
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
    a = FiniteAlgebra(3, mult, [1, 0, 0])
    assert not validate_algebra(a).ok
    assert kernel(trace_form_matrix(a)) == Subspace.spanned_by(3, [unit_vec(3, 1)])
    with pytest.raises(InvariantViolation, match="not a two-sided ideal"):
        jacobson_radical(a)


# --- the three triple laws: generator route against every-triple enumeration ---
#
# The library decides associativity of an algebra, associativity of an
# action and multiplicativity of an action on algebra generators, and lists
# failures on every triple only when that test fails.  The references
# (`law_reference`) enumerate every basis triple.


def closure(a, indices):
    """The span of the basis vectors at indices, closed under all products, by repeated dense spans."""
    space = Subspace.spanned_by(a.dim, [unit_vec(a.dim, i) for i in indices])
    while True:
        grown = Subspace.spanned_by(
            a.dim, list(space.basis) + [a.multiply(x, y) for x in space.basis for y in space.basis]
        )
        if grown == space:
            return space
        space = grown


def assert_generators_are_greedy(a):
    """Each index is a generator iff it lies outside the closure of the generators before it."""
    gens = a.generators
    for i in range(a.dim):
        earlier = closure(a, [s for s in gens if s < i])
        assert (i in gens) == (not earlier.contains(unit_vec(a.dim, i))), i
    assert closure(a, gens) == Subspace.full(a.dim)


def assert_laws_match_every_triple(label, algebras=(), actions_=()):
    """Verdicts and full failure lists of the three laws against the references; the failure count."""
    failing = 0
    for a in algebras:
        want = reference.algebra_associativity(a)
        assert a.is_associative == (not want), label
        rb = ReportBuilder()
        rb.check("associativity", want)
        got = [item for item in validate_algebra(a).items if item.name == "associativity"]
        assert got == list(rb.build().items), label
        assert closure(a, a.generators) == Subspace.full(a.dim), label
        failing += bool(want)
    for m in actions_:
        for law, want in (
            (actions._associativity_failures, reference.action_associativity),
            (actions._multiplicativity_failures, reference.action_multiplicativity),
        ):
            want = want(m)
            assert list(law(m)) == want, (label, law.__name__)
            assert (next(law(m), None) is None) == (not want), (label, law.__name__)
            failing += bool(want)
    return failing


def corpus_law_cases():
    """(label, algebras, actions): each corpus member, and each of its 30 apply_mutation corruptions."""
    cases = []
    for name in WHA_NAMES:
        entry = corpus_entry(name)
        h, ht, adjoint = entry.wha, entry.ht_action, adjoint_action(entry.wha)
        candidate = build_smash(ht).inner_candidate
        cases.append((name, (h.alg, ht.alg, candidate.alg), (ht, adjoint, candidate)))
        for mutation in MUTATIONS:
            broken = apply_mutation(h, mutation)
            acts = tuple(ModuleAction(broken, m.alg, m.act) for m in (ht, candidate))
            # the adjoint tensor of h, read over the broken algebra as well
            acts += (ModuleAction(broken, broken.alg, adjoint.act),)
            cases.append((f"{name}.{mutation}", (broken.alg,), acts))
    return cases


def test_triple_laws_match_every_triple_on_the_corpus_and_its_mutations():
    cases = corpus_law_cases()
    assert len(cases) == 5 + 30
    failing = sum(assert_laws_match_every_triple(label, algs, acts) for label, algs, acts in cases)
    assert failing >= 30  # failure lists are compared, not only passes


def test_triple_laws_match_every_triple_on_the_bench_inputs():
    bench = load_bench_inputs()
    failing = 0
    for seed in (7, 12):
        for name in bench.FACTS:
            h = bench.build(name, seed).wha
            ht = ht_module_action(h)
            candidate = build_smash(ht).inner_candidate
            adjoint = adjoint_action(h)
            label = f"{name}@{seed}"
            failing += assert_laws_match_every_triple(label, (h.alg, ht.alg, candidate.alg), (ht, adjoint, candidate))
    assert failing >= 8  # the adjoint and smash candidates of the non-quantum-commutative inputs


def test_generators_are_greedy_and_generate_on_the_corpus():
    for name in WHA_NAMES:
        entry = corpus_entry(name)
        for a in (entry.wha.alg, entry.ht_action.alg, build_smash(entry.ht_action).inner_candidate.alg):
            assert_generators_are_greedy(a)


def structure(n, products, unit):
    """FiniteAlgebra from {(i, j): {k: c}} products on n basis vectors."""
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in products.items():
        for k, c in row.items():
            mult[i][j][k] = c
    return FiniteAlgebra(n, mult, unit)


# associative algebras in which no single element generates: in k[x, y]/(x^2, y^2)
# (basis 1, x, y, xy) the powers of one element span at most 1, n, n^2 for its
# nilpotent part n; in the upper triangular 2 x 2 matrices (basis E11, E12, E22)
# they span at most 1, v (Cayley-Hamilton)
DUAL_NUMBERS_2 = structure(4, {
    (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}, (1, 0): {1: 1}, (2, 0): {2: 1}, (3, 0): {3: 1},
    (1, 2): {3: 1}, (2, 1): {3: 1},
}, [1, 0, 0, 0])
UPPER_TRIANGULAR_2 = structure(3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}, [1, 0, 1])
scalars = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-2, 3), Fraction(3)])


@st.composite
def changes_of_basis(draw, n):
    """An invertible rational matrix: unit lower triangular times diagonal, columns permuted."""
    below = st.sampled_from([0, 0, 1, Fraction(-1, 2)])
    lower = [[draw(below) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    scale = [draw(st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))] + [draw(scalars) for _ in range(n - 1)]
    order = draw(st.permutations(range(n)))
    return Mat.from_rows([[lower[i][order[j]] * scale[order[j]] for j in range(n)] for i in range(n)])


def rebased(a, p):
    """The algebra a on the basis p e_0, ..., p e_{n-1}: products p^-1 (p e_i p e_j)."""
    q, cols = invert(p), p.columns
    mult = [[q.apply(a.multiply(cols[i], cols[j])) for j in range(a.dim)] for i in range(a.dim)]
    return FiniteAlgebra(a.dim, mult, q.apply(a.unit))


def bumped_algebra(a, i, j, k, amount):
    mult = [[list(row) for row in slice_] for slice_ in a.mult]
    mult[i][j][k] += amount
    return FiniteAlgebra(a.dim, mult, a.unit)


@st.composite
def sparse_algebras(draw):
    """Mostly-zero structure constants, integral and not, rarely associative."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), scalars)
    mult = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return FiniteAlgebra(n, mult, [draw(entry) for _ in range(n)])


@st.composite
def twisted_algebras(draw, bumped=False):
    """A rebased DUAL_NUMBERS_2 or UPPER_TRIANGULAR_2, optionally with one structure constant moved."""
    base = draw(st.sampled_from([DUAL_NUMBERS_2, UPPER_TRIANGULAR_2]))
    a = rebased(base, draw(changes_of_basis(base.dim)))
    if bumped:
        index = st.integers(0, a.dim - 1)
        a = bumped_algebra(a, draw(index), draw(index), draw(index), draw(scalars))
    return a


def has_generator_middle_failure(a):
    return any(j in a.generators for (_, j, _), _, _ in reference.algebra_associativity(a))


@settings(deadline=None, max_examples=60)
@given(st.one_of(sparse_algebras(), twisted_algebras(bumped=True)))
def test_generated_algebras_match_every_triple(a):
    assert_laws_match_every_triple("generated", (a,))
    assert_generators_are_greedy(a)
    # Light: the middle nucleus is a subalgebra, so a non-associative algebra fails at a generator
    assert a.is_associative or has_generator_middle_failure(a)


@settings(deadline=None, max_examples=30)
@given(twisted_algebras())
def test_rebased_associative_algebras_need_two_generators(a):
    assume(any(x.denominator != 1 for slice_ in a.mult for row in slice_ for x in row))
    assert len(a.generators) >= 2
    assert a.is_associative and validate_algebra(a).ok
    assert_generators_are_greedy(a)


def with_zero_coproduct(alg):
    """alg with a zero coproduct (coassociative), zero counit and identity antipode."""
    n = alg.dim
    zero = tuple(tuple((Fraction(0),) * n for _ in range(n)) for _ in range(n))
    return WeakHopfAlgebra(alg, FiniteCoalgebra(n, zero, (Fraction(0),) * n), Mat.identity(n))


# the group algebra of C2 = {1, g}, with Delta(g) = g (x) g
GROUP_C2 = WeakHopfAlgebra(
    FiniteAlgebra(2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0]),
    FiniteCoalgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1]),
    Mat.identity(2),
)
# an involutive automorphism of each: x <-> y, and E12 -> -E12
INVOLUTIONS = {
    DUAL_NUMBERS_2: Mat.from_rows([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    UPPER_TRIANGULAR_2: Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
}


def moved(act, changes):
    """An action tensor with (h, x, k, amount) added entrywise."""
    data = [[list(row) for row in slice_] for slice_ in act]
    for h, x, k, amount in changes:
        data[h][x][k] += amount
    return tuple(tuple(tuple(row) for row in slice_) for slice_ in data)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_generated_actions_match_every_triple(data):
    a = data.draw(twisted_algebras(bumped=data.draw(st.booleans())))
    n = a.dim
    index = st.integers(0, n - 1)
    change = st.lists(st.tuples(index, index, index, scalars), max_size=1)
    # H acting on itself by left multiplication: associative exactly when H is
    regular = ModuleAction(with_zero_coproduct(a), a, moved(a.mult, data.draw(change)))
    # C2 acting by an involutive automorphism, rebased with its algebra: a module algebra
    base = DUAL_NUMBERS_2 if n == 4 else UPPER_TRIANGULAR_2
    p = data.draw(changes_of_basis(n))
    sigma = of_dm(to_dm(p).inv() * to_dm(INVOLUTIONS[base]) * to_dm(p))
    act = moved((Mat.identity(n).columns, sigma.columns), [(h % 2, *rest) for h, *rest in data.draw(change)])
    automorphism = ModuleAction(GROUP_C2, rebased(base, p), act)
    assert_laws_match_every_triple("generated", (), (regular, automorphism))


# 1, a, b with a a = b, a b = a, b a = 2 b, b b = 4 b: not associative, since
# (a a) b = 4 b but a (a b) = b; the greedy generators are 1 and a
NON_ASSOCIATIVE = structure(3, {
    (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 0): {1: 1}, (2, 0): {2: 1},
    (1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {2: 2}, (2, 2): {2: 4},
}, [1, 0, 0])
GROUND_FIELD = WeakHopfAlgebra(
    FiniteAlgebra(1, [[[1]]], [1]), FiniteCoalgebra(1, [[[1]]], [1]), Mat.identity(1)
)


def test_action_laws_failing_only_off_the_generators_are_still_rejected():
    # An algebra cannot fail associativity only at non-generator middles: by
    # Light's argument it would then be associative.  The action laws can,
    # when their premise (an associative H, an associative A) fails.
    a = NON_ASSOCIATIVE
    assert a.generators == (0, 1)
    assert not a.is_associative and has_generator_middle_failure(a)

    # H = NON_ASSOCIATIVE acting on the line by 1 -> 1, a -> 2, b -> 4: (g h) . x = g . (h . x)
    # holds for h = 1 and h = a, and fails only at h = b (a b = a acts by 2, not 2 * 4)
    line = FiniteAlgebra(1, [[[1]]], [1])
    on_line = ModuleAction(with_zero_coproduct(a), line, ((vec([1]),), (vec([2]),), (vec([4]),)))
    # the line acting on NON_ASSOCIATIVE by 1 -> 1, a -> -a, b -> b: 1 . (x y) = (1 . x)(1 . y)
    # holds for x = 1 and x = a, and fails only at x = b, y = a (b a = 2 b, but b (-a) = -2 b)
    flip = Mat.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    on_a = ModuleAction(GROUND_FIELD, a, (flip.columns,))
    for m, law, want, generators in (
        (on_line, actions._associativity_failures, reference.action_associativity, a.generators),
        (on_a, actions._multiplicativity_failures, reference.action_multiplicativity, a.generators),
    ):
        failures = want(m)
        assert failures and all(middle not in generators for (_, middle, _), _, _ in failures)
        assert list(law(m)) == failures
        assert next(law(m), None) is not None
    assert not actions.is_module(on_line)
    assert not actions.is_module_algebra(on_a)


# --- the smash product's premise test against the every-pair loop ---
#
# `smash._construct_smash` takes the premises that make the balance
# relations a two-sided ideal (`smash._failed_premise`) as its
# precondition, and refuses a structure on which one fails.  The every-pair
# loop of `smash_reference.relations_form_ideal`, which multiplies every
# relation basis vector by every tensor basis element on both sides, is the
# reference: wherever the premises hold and A # H is built, it must find the
# relations an ideal.


def smash_outcome(m):
    """The smash product built afresh, or the type and message of the error that stops it."""
    try:
        return smash._construct_smash(m)
    except (InvariantViolation, PreconditionError) as exc:
        return type(exc).__name__, str(exc)


def smash_premise_cases():
    """(label, action): the corpus, each corruption whose target action is a module algebra,
    the bench inputs, and the corruptions below."""
    cases = [(name, corpus_entry(name).ht_action) for name in WHA_NAMES]
    for name in WHA_NAMES:
        for mutation in MUTATIONS:
            try:
                m = ht_module_action(apply_mutation(corpus_entry(name).wha, mutation))
                if actions.is_module_algebra(m):
                    cases.append((f"{name}.{mutation}", m))
            except InvariantViolation:  # counital maps broken beyond an action
                pass
    bench = load_bench_inputs()
    for seed in (7, 12):
        cases += [(f"{name}@{seed}", ht_module_action(bench.build(name, seed).wha)) for name in bench.FACTS]
    return cases + [(label, ht_module_action(h)) for label, h in off_premise_corruptions().items()]


def bumped_coalgebra(c, i, j, k, amount):
    comult = [[list(row) for row in slice_] for slice_ in c.comult]
    comult[i][j][k] += amount
    return FiniteCoalgebra(c.dim, comult, c.counit)


def off_premise_corruptions():
    """Single-entry corruptions whose target action stays a module algebra while one
    premise fails: Delta(z h) = z h_1 (x) h_2, the eps_t identity, associativity of H."""
    p2, h4 = corpus_entry("p2").wha, corpus_entry("h4").wha
    return {
        "p2.comult[1][2][1]+1": WeakHopfAlgebra(p2.alg, bumped_coalgebra(p2.coalg, 1, 2, 1, 1), p2.antipode),
        "p2.comult[1][0][2]+1": WeakHopfAlgebra(p2.alg, bumped_coalgebra(p2.coalg, 1, 0, 2, 1), p2.antipode),
        "h4.mult[1][1][2]+1": WeakHopfAlgebra(bumped_algebra(h4.alg, 1, 1, 2, 1), h4.coalg, h4.antipode),
    }


def test_smash_premise_test_matches_the_every_pair_loop():
    cases = smash_premise_cases()
    assert len(cases) == 5 + 11 + 10 + 3
    assert all(actions.is_module_algebra(m) for _, m in cases)
    failed = {label: smash._failed_premise(m) for label, m in cases}
    # a premise fails only on these corrupted structures, none of them a weak Hopf algebra
    assert {label: name for label, name in failed.items() if name} == {
        "h4.comult_scale": "P3",
        "p2.comult[1][2][1]+1": "P1",
        "p2.comult[1][0][2]+1": "P3",
        "h4.mult[1][1][2]+1": "associativity of H",
    }
    assert not any(validate_wha(m.hopf).ok for label, m in cases if failed[label])
    built, errors = 0, set()
    for label, m in cases:
        got = smash_outcome(m)
        if failed[label]:
            assert got == ("PreconditionError", f"smash product premise fails: {failed[label]}"), label
        elif isinstance(got, SmashProduct):
            assert smash_reference.relations_form_ideal(got), label
            built += 1
        else:
            errors.add(got)
    # the premises hold on the rest; the scaled antipodes stop at the right action
    assert built == 5 + 5 + 10
    assert errors == {("InvariantViolation", "the two right-action expressions disagree")}


# --- the radical and both filtration chains: term tables against the dense routes ---
#
# The library builds the dual algebra's term table by transposing the
# coproduct terms, takes the trace form from sparse left multiplications,
# reduces each coproduct modulo a sparse echelon of the preimage window, and
# grows each radical power from the previous one.  `filtration_reference`
# keeps the dense constructions these replaced; on valid and corrupt input
# both must give the same subspaces, or the same error and message.


def route_outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return "value", fn(*args)
    except (DimensionError, InvariantViolation, PreconditionError, ShapeError) as exc:
        return type(exc).__name__, str(exc)


def filtration_route_cases():
    """(label, coalgebra, algebra or None): the corpus, sw2, a groupoid family,
    the bench inputs at two seeds, every corruption of a corpus member, and two
    single-entry corruptions of h4 whose trace-form kernel is no ideal."""
    bench = load_bench_inputs()
    whas = [(name, corpus_entry(name).wha) for name in WHA_NAMES]
    whas += [(f"family{i}", groupoid_algebra(g)) for i, g in enumerate(groupoid_family(3, 2))]
    whas += [(f"{name}@{seed}", bench.build(name, seed).wha) for seed in (7, 12) for name in bench.FACTS]
    whas += [
        (f"{name}.{mutation}", apply_mutation(corpus_entry(name).wha, mutation))
        for name in WHA_NAMES
        for mutation in MUTATIONS
    ]
    h4 = corpus_entry("h4").wha
    for amount in (1, -1):
        bumped = bumped_coalgebra(h4.coalg, 0, 0, 3, amount)
        whas.append((f"h4.comult[0][0][3]{amount:+d}", WeakHopfAlgebra(h4.alg, bumped, h4.antipode)))
    # fresh copies, so that no route reads a value cached by another test
    sw2 = sw2_coalgebra()
    cases = [("sw2", FiniteCoalgebra(sw2.dim, sw2.comult, sw2.counit), None)]
    for label, h in whas:
        c, a = h.coalg, h.alg
        cases.append((label, FiniteCoalgebra(c.dim, c.comult, c.counit), FiniteAlgebra(a.dim, a.mult, a.unit)))
    return cases


def test_filtration_routes_match_the_dense_reference():
    cases = filtration_route_cases()
    assert len(cases) == 1 + 5 + len(groupoid_family(3, 2)) + 10 + 5 * len(MUTATIONS) + 2
    errors = []
    for label, c, a in cases:
        dual, reference_dual = dual_algebra(c), dense_route.dual_algebra(c)
        assert dual == reference_dual, label
        radical = route_outcome(jacobson_radical, dual)
        assert radical == route_outcome(dense_route.jacobson_radical, reference_dual), label
        if a is not None:
            assert route_outcome(jacobson_radical, a) == route_outcome(dense_route.jacobson_radical, a), label
        if radical[0] == "value":
            for k in (1, 2, 3):
                assert subspace_power(dual, radical[1], k) == dense_route.subspace_power(dual, radical[1], k), label
        for new, old in (
            (coradical, dense_route.coradical),
            (lambda c: coradical_filtration(c).layers, lambda c: dense_route.coradical_filtration(c).layers),
            (lambda c: dual_radical_filtration(c).layers, lambda c: dense_route.dual_radical_filtration(c).layers),
        ):
            got = route_outcome(new, c)
            assert got == route_outcome(old, c), label
            if got[0] != "value":
                errors.append((label, *got))
    # no corruption of the corpus breaks the dual radical; the two h4 ones
    # stop at its ideal check, on every route
    message = "radical candidate is not a two-sided ideal"
    assert errors == [(label, "InvariantViolation", message) for label, _, _ in cases[-2:] for _ in range(3)]
