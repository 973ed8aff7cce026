"""Every public dense value holds `Fraction` scalars.

Term lists inside the sparse core hold integral values as `int`; the
values that leave it (vectors, matrices, subspace bases, convolution maps,
structure constants) must be `Fraction` again, whatever route produced
them.  This oracle inspects those values on every corpus member, every
corrupted copy of one, a family of groupoid algebras and the dim-48 rung,
and checks that the dual algebra's term table, transposed from the
coproduct terms, is the table read off its dense tensor.  A matrix and a
subspace are born sparse: every library map read back through its dense
entries gives the same matrix, every library subspace rebuilt from the rows
of its dense view gives the same subspace, and every dense reader takes
exact scalars only.
"""

from fractions import Fraction

import pytest

from whk.actions import ht_module_action
from whk.algebra import FiniteAlgebra, center, jacobson_radical, subspace_power
from whk.coalgebra import FiniteCoalgebra, coradical, coradical_filtration, dual_algebra, dual_radical_filtration
from whk.convolution import ConvMap, ef_inverse_solve, ef_inverse_via_series
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.groupoid import component_groupoid, groupoid_algebra, groupoid_family
from whk.linalg import Mat, Subspace, nonzero, unit_vec, vec
from whk.smash import build_smash
from whk.weakhopf import eps_s_conv, eps_s_matrix, eps_t_conv, eps_t_matrix, identity_conv

# what a corrupted structure may raise instead of returning a value
LIBRARY_ERRORS = (ShapeError, DimensionError, PreconditionError, InvariantViolation)


def scalars(value) -> list:
    """Every scalar of a public dense value; None (no inverse) has none."""
    if value is None:
        return []
    if isinstance(value, Mat):
        return [x for row in value.entries for x in row]
    if isinstance(value, Subspace):
        return [x for b in value.basis for x in b]
    if isinstance(value, ConvMap):
        return scalars(value.matrix)
    if isinstance(value, FiniteAlgebra):
        return scalars(value.mult) + scalars(value.unit)
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in scalars(v)]
    return [value]


def outputs(h):
    """(name, thunk) for each public dense value the oracle inspects on h."""
    n = h.dim
    probes = (h.unit, unit_vec(n, 0), unit_vec(n, n - 1), vec(range(n)), vec(Fraction(i - 1, 2) for i in range(n)))

    def maps():
        return identity_conv(h), eps_t_conv(h), eps_s_conv(h)

    def counital():
        cd = h.counital_data
        return [cd.eps_t, cd.eps_s, cd.h_t, cd.h_s]

    def powers():
        dual = dual_algebra(h.coalg)
        return [subspace_power(dual, h.coalg.dual_radical, k) for k in (1, 2, 3)] + [
            subspace_power(h.alg, center(h.alg), 2)
        ]

    return (
        ("multiply", lambda: [h.alg.multiply(x, y) for x in probes for y in probes]),
        ("Mat.apply", lambda: [h.antipode.apply(x) for x in probes]),
        ("eps_t_matrix", lambda: eps_t_matrix(h)),
        ("eps_s_matrix", lambda: eps_s_matrix(h)),
        ("counital_data", counital),
        ("center", lambda: center(h.alg)),
        ("jacobson_radical", lambda: jacobson_radical(h.alg)),
        ("dual_algebra", lambda: dual_algebra(h.coalg)),
        ("coradical", lambda: coradical(h.coalg)),
        ("subspace_power", powers),
        ("coradical_filtration", lambda: coradical_filtration(h.coalg).layers),
        ("dual_radical_filtration", lambda: dual_radical_filtration(h.coalg).layers),
        ("ef_inverse_solve", lambda: ef_inverse_solve(*maps())),
        ("ef_inverse_via_series", lambda: ef_inverse_via_series(*maps())),
        ("smash_product", lambda: build_smash(ht_module_action(h)).algebra),
    )


VALID = (
    [(name, lambda name=name: corpus_entry(name).wha) for name in WHA_NAMES]
    + [(f"family{i}", lambda g=g: groupoid_algebra(g)) for i, g in enumerate(groupoid_family(3, 2))]
    + [("dim48", lambda: groupoid_algebra(component_groupoid("x_", 4, 3)))]
)
CORRUPT = [
    (f"{name}-{mutation}", lambda name=name, mutation=mutation: apply_mutation(corpus_entry(name).wha, mutation))
    for name in WHA_NAMES
    for mutation in MUTATIONS
]


def typed_terms(table) -> list:
    return [[[(k, type(x), x) for k, x in terms] for terms in row] for row in table]


@pytest.mark.parametrize("build", [b for _, b in VALID + CORRUPT], ids=[name for name, _ in VALID + CORRUPT])
def test_dual_term_table_is_the_one_read_off_its_tensor(build):
    # the dual algebra's term table is transposed from the coproduct terms;
    # it must be the table `nonzero` reads off the dense tensor: the same
    # values, with the same int or Fraction types, in the same order
    dual = dual_algebra(build().coalg)
    fresh = FiniteAlgebra(dual.dim, dual.mult, dual.unit)
    assert typed_terms(dual.mult_terms) == typed_terms(fresh.mult_terms)


def non_fractions(value) -> list:
    return [x for x in scalars(value) if type(x) is not Fraction]


@pytest.mark.parametrize("build", [b for _, b in VALID], ids=[name for name, _ in VALID])
def test_public_values_of_valid_structures_are_fractions(build):
    h = build()
    for name, thunk in outputs(h):
        value = thunk()
        bad = non_fractions(value)
        assert not bad, f"{name}: {type(bad[0]).__name__} {bad[0]!r} among its scalars"


@pytest.mark.parametrize("build", [b for _, b in CORRUPT], ids=[name for name, _ in CORRUPT])
def test_public_values_of_corrupted_structures_are_fractions(build):
    h = build()
    for name, thunk in outputs(h):
        try:
            value = thunk()
        except LIBRARY_ERRORS:
            continue
        bad = non_fractions(value)
        assert not bad, f"{name}: {type(bad[0]).__name__} {bad[0]!r} among its scalars"


def library_maps(h) -> list:
    """The antipode, eps_t, eps_s and both (e, f)-inverses of the identity, as far as h gives them."""
    maps = [h.antipode, eps_t_matrix(h), eps_s_matrix(h)]
    for solver in (ef_inverse_solve, ef_inverse_via_series):
        try:
            v = solver(identity_conv(h), eps_t_conv(h), eps_s_conv(h))
        except LIBRARY_ERRORS:
            continue
        if v is not None:
            maps.append(v.matrix)
    return maps


@pytest.mark.parametrize("build", [b for _, b in VALID + CORRUPT], ids=[name for name, _ in VALID + CORRUPT])
def test_library_maps_rebuilt_from_their_dense_entries_are_equal(build):
    h = build()
    maps = library_maps(h)
    assert len(maps) >= 3
    for m in maps:
        rebuilt = Mat(m.rows, m.cols, m.entries)
        assert rebuilt == m and hash(rebuilt) == hash(m)
        assert rebuilt.entries == m.entries
        types = [[[type(x) for _, x in t] for t in a.column_terms] for a in (rebuilt, m)]
        assert types[0] == types[1]


def library_subspaces(h) -> list:
    """H_t, H_s, the centre, the radical and the coradical filtration's layers."""
    cd = h.counital_data
    return [cd.h_t, cd.h_s, center(h.alg), jacobson_radical(h.alg), *coradical_filtration(h.coalg).layers]


@pytest.mark.parametrize("build", [b for _, b in VALID], ids=[name for name, _ in VALID])
def test_library_subspaces_rebuilt_from_their_rows_are_equal(build):
    for s in library_subspaces(build()):
        for rebuilt in (Subspace(s.ambient_dim, s.sparse_basis), Subspace(s.ambient_dim, tuple(map(nonzero, s.basis)))):
            assert rebuilt == s and hash(rebuilt) == hash(s)
            assert rebuilt.basis == s.basis and rebuilt.pivots == s.pivots
            types = [[[type(x) for _, x in row] for row in a.sparse_basis] for a in (rebuilt, s)]
            assert types[0] == types[1]


ONE = Fraction(1)
INEXACT = [
    ("Mat float", lambda: Mat(1, 1, ((0.5,),))),
    ("Mat float zero", lambda: Mat(1, 2, ((ONE, 0.0),))),
    ("Mat.from_rows float", lambda: Mat.from_rows([[ONE, 2.5]])),
    ("Mat.from_columns float", lambda: Mat.from_columns([(ONE, 0.25)])),
    ("algebra unit", lambda: FiniteAlgebra(1, (((ONE,),),), (1.0,))),
    ("algebra tensor", lambda: FiniteAlgebra(1, (((0.5,),),), (ONE,))),
    ("coalgebra counit", lambda: FiniteCoalgebra(1, (((ONE,),),), (1.0,))),
    ("coalgebra tensor", lambda: FiniteCoalgebra(1, (((1.5,),),), (ONE,))),
    ("algebra unit from terms", lambda: FiniteAlgebra.from_terms(1, (((((0, 1),),),)), (1.0,))),
    ("coalgebra counit from terms", lambda: FiniteCoalgebra.from_terms(1, (((0, 0, 1),),), (1.0,))),
    ("Subspace dense float row", lambda: Subspace(1, ((0.5,),))),
    ("Subspace.spanned_by float", lambda: Subspace.spanned_by(1, [(0.5,)])),
    ("Subspace.spanned_by float zero", lambda: Subspace.spanned_by(2, [(ONE, 0.0)])),
    ("Subspace.contains float", lambda: Subspace.full(1).contains((0.5,))),
    # a dense float row given where a term list belongs
    ("Mat.from_terms dense float row", lambda: Mat.from_terms(2, 1, ((ONE, 0.5),))),
    ("algebra dense float row", lambda: FiniteAlgebra.from_terms(1, ((((0.5,),),)), (ONE,))),
]


@pytest.mark.parametrize("build", [b for _, b in INEXACT], ids=[name for name, _ in INEXACT])
def test_dense_readers_raise_on_inexact_scalars(build):
    with pytest.raises(TypeError, match="^exact scalar expected, got float$"):
        build()


def test_dense_readers_store_tuples():
    m = Mat(1, 1, [[ONE]])
    assert m == Mat(1, 1, ((ONE,),)) and hash(m) == hash(Mat(1, 1, ((ONE,),)))
    for a, c in (
        (FiniteAlgebra(1, [[[ONE]]], [ONE]), FiniteCoalgebra(1, [[[ONE]]], [ONE])),
        (FiniteAlgebra.from_terms(1, (((((0, 1),),),)), [1]), FiniteCoalgebra.from_terms(1, (((0, 0, 1),),), [1])),
    ):
        assert type(a.unit) is tuple and type(c.counit) is tuple
        assert hash(a) == hash(FiniteAlgebra(1, (((ONE,),),), (ONE,))) and hash(c)
