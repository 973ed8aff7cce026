"""The work of the generator-decided checks and of the (e, f) system, counted on c3_o3 (and h4).

component_groupoid("c3_", 3, 3) has 27 morphisms over 3 objects; its
algebra H has the 6 generators (0, 1, 3, 6, 9, 18) and its target algebra
A = H_t the 3 generators (0, 1, 2); H_t and H_s both have dimension 3.
Each count below is pinned, so that a check that silently falls back to
every basis index, every pair or every triple of morphisms fails the
suite and not only the bench.  Nothing is timed.
"""

from whk import algebra, convolution, report, weakhopf
from whk.actions import ht_module_action
from whk.algebra import FiniteAlgebra
from whk.convolution import ef_inverse_solution_space
from whk.corpus import corpus_entry
from whk.groupoid import FiniteGroupoid, component_groupoid, groupoid_algebra, validate_groupoid
from whk.smash import build_smash, embeddings_check
from whk.weakhopf import counital_identities, eps_s_conv, eps_t_conv, identity_conv, validate_wha

C3_O3 = component_groupoid("c3_", 3, 3)


def counting_holds_on(monkeypatch) -> list:
    """Wrap `report.holds_on`, the one generator test, which every `report.Law` and Light's test call;
    the returned list gains one list per call, of each lead whose rows are evaluated."""
    evaluated, real = [], report.holds_on

    def holds_on(rows, *sets):
        call = []
        evaluated.append(call)

        def counted(*lead):
            call.append(lead)
            return rows(*lead)

        return real(counted, *sets)

    monkeypatch.setattr(report, "holds_on", holds_on)
    return evaluated


def fresh(a: FiniteAlgebra) -> FiniteAlgebra:
    """a with none of its cached properties computed."""
    return FiniteAlgebra.from_terms(a.dim, a.mult_terms, a.unit)


def test_light_test_evaluates_one_row_per_basis_index_and_generator(monkeypatch):
    h = fresh(groupoid_algebra(C3_O3).alg)
    assert h.generators == (0, 1, 3, 6, 9, 18)
    evaluated = counting_holds_on(monkeypatch)
    assert h.is_associative
    assert [len(leads) for leads in evaluated] == [27 * 6]


def test_the_centre_has_one_block_of_rows_per_generator(monkeypatch):
    h = fresh(groupoid_algebra(C3_O3).alg)
    calls, real = [], algebra.kernel_sparse

    def kernel_sparse(rows, cols):
        calls.append((len(rows), cols))
        return real(rows, cols)

    monkeypatch.setattr(algebra, "kernel_sparse", kernel_sparse)
    assert h.center.dim == 3  # H is M_3(k C_3), whose centre is k C_3
    assert calls == [(6 * 27, 27)]


def test_the_embeddings_are_decided_on_the_generators_of_both_legs(monkeypatch):
    s = build_smash(ht_module_action(groupoid_algebra(C3_O3)))
    for a in (s.algebra, s.base_action.alg, s.hopf.alg):
        assert a.is_associative  # decided here, so that only the embeddings' own rows are counted
    evaluated = counting_holds_on(monkeypatch)
    assert embeddings_check(s)
    assert [len(leads) for leads in evaluated] == [3, 6]  # the generators of A = H_t, then those of H


def test_the_eps_laws_are_decided_on_spanning_sets(monkeypatch):
    h = groupoid_algebra(C3_O3)
    assert h.alg.is_associative and h.counital_data  # decided here, so that only the eps laws' rows are counted
    evaluated = counting_holds_on(monkeypatch)
    every, real = [], weakhopf._eps_rows

    def eps_rows(h, translations):
        rows = real(h, translations)
        return lambda a: every.append(a) or rows(a)

    monkeypatch.setattr(weakhopf, "_eps_rows", eps_rows)
    assert counital_identities(h).ok
    # eps_t multiplicative on the basis of H_t and absorbing on the generators (9 leads), the same for
    # eps_s on H_s (9 leads), then the two translation laws at every basis index (27 leads)
    assert [len(leads) for leads in evaluated] == [3, 6, 3, 6, 27]
    assert every == []  # no row of the every-pair walk


def test_the_counit_law_visits_the_nonzero_coefficients_only(monkeypatch):
    h = groupoid_algebra(C3_O3)
    visited, real = [], weakhopf._counit_join

    def counit_join(h):
        first, second = real(h)
        visited.append(sum(len(terms) for lists in first + second for terms in lists.values()))
        return first, second

    monkeypatch.setattr(weakhopf, "_counit_join", counit_join)
    assert validate_wha(h).ok and counital_identities(h).ok
    # Delta(e_g) = e_g (x) e_g, and eps(e_a e_g) = 1 for the 9 morphisms a composable with g, else 0: each
    # leg visits 27 * 9 of the 27 * 27 pairs (a, g), once for the counit law and once for the translations
    assert visited == [2 * 27 * 9, 2 * 27 * 9]


def test_the_ef_system_makes_no_empty_row(monkeypatch):
    systems, real = [], convolution.solve_affine_sparse

    def solve_affine_sparse(rows, cols):
        systems.append(rows)
        return real(rows, cols)

    monkeypatch.setattr(convolution, "solve_affine_sparse", solve_affine_sparse)
    convolution._solution_space.cache_clear()  # so that each system is built here
    for h in (groupoid_algebra(C3_O3), corpus_entry("h4").wha):
        ef_inverse_solution_space(identity_conv(h), eps_t_conv(h), eps_s_conv(h))
    # c3_o3: each of the 27 basis vectors gives 18 rows of u * v = e and v * u = f together, and 18 of
    # the 27 rows of f * v = v, whose other 9 cancel.  h4 is a Hopf algebra, so f = eps_s is 1 eps and
    # f * v = v holds on every v: its 16 rows all cancel
    assert [len(rows) for rows in systems] == [27 * (18 + 18), 32]
    assert all(row and all(row.values()) for rows in systems for row in rows)


class CountedReads(dict):
    """A dict that counts its reads by `get` and by subscript."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_composition_associativity_visits_the_composable_triples_only():
    g = C3_O3
    tables = CountedReads(g.src), CountedReads(g.tgt), CountedReads(g.comp)
    counted = FiniteGroupoid(g.objects, g.morphisms, *tables, g.inv, g.identities)
    for table in tables:
        table.reads = 0
    assert validate_groupoid(counted).ok
    src, tgt, comp = (table.reads for table in tables)
    # 27 * 9 composable pairs and 27 * 9 * 9 composable triples: comp is read twice per morphism
    # by the identity laws and by the inverse laws, and by associativity once per pair and three
    # times per triple
    assert comp == 2 * 27 + 2 * 27 + 27 * 9 + 3 * 27 * 9 * 9
    # the endpoints are read once per object and once per morphism by the identity checks, twice
    # per composition entry, three times per morphism by the inverse checks, and by associativity
    # once per morphism (src of a, or tgt of each morphism for the index) and once per pair (src
    # of b): no read per triple
    assert src == 3 + 27 + 2 * 243 + 3 * 27 + 27 + 27 * 9
    assert tgt == 3 + 27 + 2 * 243 + 3 * 27 + 27
