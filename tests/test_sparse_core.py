"""The sparse structure-constant core against dense references.

The dense `validate_algebra` and `validate_module_algebra` below are the
loops the library ran before it moved to sparse term lists, with every
product written out as a literal sum over the dense tensors.  Reports must
agree item for item: the same failing tuples, in the same order, with the
same counterexample strings.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whk import coalgebra, linalg, smash, weakhopf
from whk.actions import ModuleAction, adjoint_action, validate_module_algebra
from whk.algebra import FiniteAlgebra, validate_algebra
from whk.coalgebra import FiniteCoalgebra, coradical_filtration
from whk.corpus import MUTATIONS, all_entries, apply_mutation, corpus_entry
from whk.linalg import ZERO, Mat, nonzero, unit_vec, zero_vec
from whk.report import ReportBuilder
from whk.smash import build_smash, right_ht_action
from whk.weakhopf import WeakHopfAlgebra, counital_data


def triple_sum(tensor, x, y, n):
    """out[k] = sum over i, j of x[i] y[j] tensor[i][j][k], skipping zero coefficients."""
    out = [ZERO] * n
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                for k, c in enumerate(tensor[i][j]):
                    out[k] += xi * yj * c
    return tuple(out)


def dense_multiply(a, x, y):
    return triple_sum(a.mult, x, y, a.dim)


def dense_apply(m, h, x):
    return triple_sum(m.act, h, x, m.alg.dim)


def reference_validate_algebra(a):
    rb = ReportBuilder()
    ok = True
    for i in range(a.dim):
        for j in range(a.dim):
            ij = a.basis_product(i, j)
            for k in range(a.dim):
                lhs = dense_multiply(a, ij, unit_vec(a.dim, k))
                rhs = dense_multiply(a, unit_vec(a.dim, i), a.basis_product(j, k))
                if lhs != rhs:
                    ok = False
                    rb.record_failure("associativity", (i, j, k), lhs, rhs)
    rb.summary("associativity", ok)
    ok = True
    for i in range(a.dim):
        e = unit_vec(a.dim, i)
        left = dense_multiply(a, a.unit, e)
        right = dense_multiply(a, e, a.unit)
        if left != e:
            ok = False
            rb.record_failure("unit_law", (i,), left, e)
        if right != e:
            ok = False
            rb.record_failure("unit_law", (i,), right, e)
    rb.summary("unit_law", ok)
    return rb.build()


def reference_validate_module_algebra(m):
    rb = ReportBuilder()
    hopf, alg = m.hopf, m.alg
    nh, na = hopf.dim, alg.dim

    ok = True
    for g in range(nh):
        for h in range(nh):
            gh = hopf.alg.basis_product(g, h)
            for x in range(na):
                lhs = dense_apply(m, gh, unit_vec(na, x))
                rhs = dense_apply(m, unit_vec(nh, g), m.act_basis(h, x))
                if lhs != rhs:
                    ok = False
                    rb.record_failure("action_associativity", (g, h, x), lhs, rhs)
    rb.summary("action_associativity", ok)

    ok = True
    dt = hopf.coalg.delta_terms
    for h in range(nh):
        for x in range(na):
            for y in range(na):
                lhs = dense_apply(m, unit_vec(nh, h), alg.basis_product(x, y))
                acc = [ZERO] * na
                for p, q, c in dt[h]:
                    value = dense_multiply(alg, m.act_basis(p, x), m.act_basis(q, y))
                    for t, vt in enumerate(value):
                        acc[t] += c * vt
                if lhs != tuple(acc):
                    ok = False
                    rb.record_failure("action_multiplicative", (h, x, y), lhs, tuple(acc))
    rb.summary("action_multiplicative", ok)

    ok = True
    et = counital_data(hopf).eps_t
    for h in range(nh):
        lhs = dense_apply(m, unit_vec(nh, h), alg.unit)
        rhs = dense_apply(m, tuple(et.entries[i][h] for i in range(nh)), alg.unit)
        if lhs != rhs:
            ok = False
            rb.record_failure("action_unit_compatibility", (h,), lhs, rhs)
    rb.summary("action_unit_compatibility", ok)
    return rb.build()


def outcome(fn, *args):
    """The report items, or the exception type and message if fn raises."""
    try:
        return fn(*args).items
    except Exception as exc:
        return type(exc), str(exc)


def corrupted(m: ModuleAction, i: int, j: int, k: int) -> ModuleAction:
    act = [[list(row) for row in slice_] for slice_ in m.act]
    act[i][j][k] += Fraction(1, 2)
    return ModuleAction(m.hopf, m.alg, tuple(tuple(tuple(r) for r in s) for s in act))


def differential_cases():
    cases = []
    for entry in all_entries():
        cases.append((f"{entry.name}.alg", "algebra", entry.wha.alg))
        cases.append((f"{entry.name}.ht_action", "action", entry.ht_action))
        cases.append((f"{entry.name}.adjoint", "action", adjoint_action(entry.wha)))
        for mutation in MUTATIONS:
            broken = apply_mutation(entry.wha, mutation)
            cases.append((f"{entry.name}.{mutation}.alg", "algebra", broken.alg))
            act = entry.ht_action
            cases.append((f"{entry.name}.{mutation}.ht_action", "action", ModuleAction(broken, act.alg, act.act)))
    cases.append(("qs3.ht_action.corrupted", "action", corrupted(corpus_entry("qs3").ht_action, 1, 0, 0)))
    cases.append(("h4.adjoint.corrupted", "action", corrupted(adjoint_action(corpus_entry("h4").wha), 2, 3, 1)))
    cases.append(("qc2.smash", "algebra", build_smash(corpus_entry("qc2").ht_action).algebra))
    return cases


@pytest.fixture(scope="module")
def cases():
    return differential_cases()


def test_reports_match_dense_reference(cases):
    failing = raising = 0
    for label, kind, obj in cases:
        if kind == "algebra":
            got, want = outcome(validate_algebra, obj), outcome(reference_validate_algebra, obj)
        else:
            got = outcome(validate_module_algebra, obj)
            want = outcome(reference_validate_module_algebra, obj)
        assert got == want, label
        if isinstance(want, tuple) and want and isinstance(want[0], type):
            raising += 1
        elif any(not item.passed for item in want):
            failing += 1
    # the comparison must cover failure records and raising inputs, not only passes
    assert failing >= 20 and raising >= 5


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)
# Mostly zero, with both the shared ZERO and separate zero objects.
entries = st.one_of(st.just(ZERO), st.just(ZERO), st.builds(Fraction), rationals)


def vectors(n):
    return st.one_of(
        st.just(zero_vec(n)),
        st.lists(entries, min_size=n, max_size=n).map(tuple),
    )


def tensors(a, b, c):
    return st.lists(
        st.lists(st.lists(entries, min_size=c, max_size=c).map(tuple), min_size=b, max_size=b).map(tuple),
        min_size=a,
        max_size=a,
    ).map(tuple)


@st.composite
def algebra_and_operands(draw):
    n = draw(st.integers(1, 4))
    alg = FiniteAlgebra(n, draw(tensors(n, n, n)), draw(vectors(n)))
    return alg, draw(vectors(n)), draw(vectors(n))


@st.composite
def action_and_operands(draw):
    nh, na = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    zero = tuple(tuple(zero_vec(nh) for _ in range(nh)) for _ in range(nh))
    hopf = WeakHopfAlgebra(
        FiniteAlgebra(nh, zero, zero_vec(nh)), FiniteCoalgebra(nh, zero, zero_vec(nh)), Mat.identity(nh)
    )
    alg = FiniteAlgebra(na, draw(tensors(na, na, na)), zero_vec(na))
    return ModuleAction(hopf, alg, draw(tensors(nh, na, na))), draw(vectors(nh)), draw(vectors(na))


@settings(deadline=None)
@given(algebra_and_operands())
def test_multiply_matches_triple_sum(case):
    alg, x, y = case
    assert alg.multiply(x, y) == dense_multiply(alg, x, y)


@settings(deadline=None)
@given(action_and_operands())
def test_apply_matches_triple_sum(case):
    m, h, x = case
    assert m.apply(h, x) == dense_apply(m, h, x)


@settings(deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda r: st.integers(0, 4).flatmap(
            lambda c: st.tuples(
                st.just(c),
                st.lists(st.lists(entries, min_size=c, max_size=c).map(tuple), min_size=r, max_size=r),
                vectors(c),
            )
        )
    )
)
def test_columns_match_entries(case):
    cols, rows, v = case
    m = Mat(len(rows), cols, tuple(rows))
    assert len(m.columns) == cols
    for j in range(cols):
        column = tuple(m.entries[i][j] for i in range(m.rows))
        assert m.col(j) == column
        assert m.column_terms[j] == tuple((i, x) for i, x in enumerate(column) if x)
    expected = tuple(sum((m.entries[i][j] * v[j] for j in range(cols)), ZERO) for i in range(m.rows))
    assert m.apply(v) == expected


def test_nonzero_skips_every_kind_of_zero():
    assert nonzero((ZERO, Fraction(0), Fraction(3), 0, Fraction(-1, 2))) == ((2, Fraction(3)), (4, Fraction(-1, 2)))


def test_counital_data_is_cached_on_the_structure():
    wha = corpus_entry("qs3").wha
    assert counital_data(wha) is counital_data(wha)
    twin = WeakHopfAlgebra(wha.alg, wha.coalg, wha.antipode)
    assert twin == wha and twin is not wha
    assert counital_data(twin) == counital_data(wha)
    assert coradical_filtration(twin.coalg) is coradical_filtration(twin.coalg)


def test_no_process_global_structure_caches():
    for fn in (weakhopf.counital_data, coalgebra.coradical_filtration):
        assert not hasattr(fn, "cache_info")


def test_right_ht_action_inverts_the_antipode_once(monkeypatch):
    calls = []
    real = linalg.invert

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (linalg, weakhopf, smash):
        if hasattr(module, "invert"):
            monkeypatch.setattr(module, "invert", counting)
    entry = corpus_entry("p2")
    wha = WeakHopfAlgebra(entry.wha.alg, entry.wha.coalg, entry.wha.antipode)
    action = ModuleAction(wha, entry.ht_action.alg, entry.ht_action.act)
    build_smash(action)
    for z in counital_data(wha).h_t.basis:
        right_ht_action(action, action.alg.unit, z)
    assert len(calls) == 1
    assert nonzero(wha.antipode_inverse.col(0))
