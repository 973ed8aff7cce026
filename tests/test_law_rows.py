"""The laws evaluated by rows, against the every-tuple reference.

Each law's rows are walked over its whole shape, with no premise in
front, and the failure list must equal `law_reference`'s, tuple by tuple,
with equal sparse sides (key order is not observable: a report renders each
side canonically).  The laws declared with a premise go through
`law_registry.check_declared`, so the failures the library reports must
equal that list too.  A corrupt structure may stop a law before any row
is evaluated; both routes must then raise the same error.  The checks that
return only a verdict (centralizers, g . e(h) = e(g h), the centrality of
t, the smash product's counital commutation) must give the verdict of the
reference's failure list, and the sparse conjugation action must equal the
dense tensor."""

from functools import partial
from itertools import product

from whk import actions, algebra, coalgebra, smash, weakhopf
from whk.actions import ModuleAction, adjoint_action, adjoint_data, ht_module_action
from whk.coalgebra import FiniteCoalgebra
from whk.corpus import MUTATIONS, WHA_NAMES, apply_mutation, corpus_entry
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.groupoid import component_groupoid, groupoid_algebra
from whk.linalg import Mat, Subspace, densify, nonzero
from whk.report import Law, ReportBuilder, holds_on, law
from whk.smash import SmashProduct, build_smash
from whk.weakhopf import WeakHopfAlgebra, antipode_conv, identity_conv

import law_reference as reference
from law_registry import LAWS, check_declared, walked
from test_oracles import load_bench_inputs


def outcome(fn, *args):
    """fn(*args), or the type and message of the library error it raises."""
    try:
        return "value", fn(*args)
    except (DimensionError, InvariantViolation, PreconditionError, ShapeError) as exc:
        return type(exc).__name__, str(exc)


def every_row(rows, shape):
    """The failures (t, lhs, rhs) of the law with these rows, at every tuple of shape."""
    return [failure[1:] for failure in law("law", rows, shape).failures()]


def reported(report, name):
    return [item for item in report.items if item.name == name]


def recorded(name, failures):
    rb = ReportBuilder()
    rb.check(name, failures)
    return list(rb.build().items)


def check_algebra(label, a):
    want = reference.algebra_associativity(a)
    assert a.is_associative == (not want), label
    assert reported(algebra.validate_algebra(a), "associativity") == recorded("associativity", want), label
    return check_declared(label, "algebra", a)


def check_wha(label, h):
    c = h.coalg
    want = reference.coassociativity(c)
    assert c.is_coassociative == (not want), label
    assert reported(coalgebra.validate_coalgebra(c), "coassociativity") == recorded("coassociativity", want), label
    failing = check_declared(label, "coalgebra", c) + check_declared(label, "wha", h)
    comult = reference.comult_multiplicative(h)
    assert reported(weakhopf.validate_wha(h), "comult_multiplicative") == recorded("comult_multiplicative", comult)
    # the anti-coalgebra law has no premise: its report items against the reference, beside the anti-algebra
    # law's, wherever `antipode_props` reaches the counital maps without an error
    anti_coalgebra = reference.anti_coalgebra_morphism(h)
    got = outcome(lambda: [item for item in weakhopf.antipode_props(h).items if item.name.startswith("anti_")])
    if got[0] == "value":
        anti_algebra = recorded("anti_algebra_morphism", reference.anti_algebra_morphism(h))
        assert got[1] == anti_algebra + recorded("anti_coalgebra_morphism", anti_coalgebra), label
    return failing + bool(anti_coalgebra)


def check_action(label, m):
    nh, na = m.hopf.dim, m.alg.dim
    failing = check_declared(label, "action", m)
    unit = outcome(lambda: [failure[1:] for failure in actions._unit_compatibility(m).failures()])
    assert unit == outcome(reference.action_unit_compatibility, m), label
    failing += unit[0] == "value" and bool(unit[1])

    def premises():
        nz = m.hopf.counital_data.h_t.dim
        return [every_row(rows, (nz, last)) for rows, last in zip(smash._premise_rows(m), (nh, na, nh))]

    got = outcome(premises)
    assert got == outcome(reference.smash_premises, m), label
    if got[0] == "value" and m.alg.is_associative and m.hopf.alg.is_associative:
        first = next((name for name, failures in zip(("P1", "P2", "P3"), got[1]) if failures), None)
        assert smash._failed_premise(m) == first, label
    return failing


def check_case(label, h, algebras, actions_):
    failing = check_wha(label, h)
    failing += sum(check_algebra(label, a) for a in algebras)
    return failing + sum(check_action(label, m) for m in actions_)


def member_case(label, h):
    """h, its algebra and the algebras of its H_t action and smash candidate, and the
    H_t, adjoint and smash-candidate actions."""
    ht = ht_module_action(h)
    candidate = build_smash(ht).inner_candidate
    return label, h, (h.alg, ht.alg, candidate.alg), (ht, adjoint_action(h), candidate)


def test_laws_by_rows_match_every_tuple_on_the_corpus_and_its_mutations():
    failing = 0
    for name in WHA_NAMES:
        label, h, algebras, (ht, adjoint, candidate) = member_case(name, corpus_entry(name).wha)
        failing += check_case(label, h, algebras, (ht, adjoint, candidate))
        for mutation in MUTATIONS:
            broken = apply_mutation(h, mutation)
            # the tensors of h's actions, read over the broken structure
            acts = [ModuleAction(broken, m.alg, m.act) for m in (ht, candidate)]
            acts.append(ModuleAction(broken, broken.alg, adjoint.act))
            failing += check_case(f"{name}.{mutation}", broken, (broken.alg,), acts)
    assert failing >= 90  # failure lists are compared, not only passes


def test_laws_by_rows_match_every_tuple_on_the_bench_inputs(ladder):
    bench = load_bench_inputs()
    failing = 0
    for seed in (7, 12):
        for name in bench.FACTS:
            failing += check_case(*member_case(f"{name}@{seed}", bench.build(name, seed).wha))
    failing += check_case(*member_case("c3_o4", ladder[0].wha))  # dim 48, above the bench ladder
    assert failing >= 12  # the adjoint and smash candidates of the non-quantum-commutative inputs, among others


def test_a_corruption_off_the_generators_fails_the_generator_test():
    # Delta(e_k), and separately S(e_k), doubled for a basis index k that is not a generator
    h = groupoid_algebra(component_groupoid("x_", 3, 2))
    n, dt = h.dim, h.coalg.delta_terms
    k = next(k for k in range(n) if k not in h.alg.generators)
    doubled = tuple((p, q, 2 * c) for p, q, c in dt[k])
    coalg = FiniteCoalgebra.from_terms(n, dt[:k] + (doubled,) + dt[k + 1:], h.coalg.counit)
    columns = [h.antipode.col(i) if i != k else tuple(2 * x for x in h.antipode.col(i)) for i in range(n)]
    cases = (
        ("comult_multiplicative", WeakHopfAlgebra(h.alg, coalg, h.antipode), weakhopf._comult_multiplicative,
         weakhopf.validate_wha),
        ("anti_algebra_morphism", WeakHopfAlgebra(h.alg, h.coalg, Mat.from_columns(columns, n)),
         weakhopf._anti_algebra_morphism, weakhopf.antipode_props),
    )
    for name, broken, declare, report in cases:
        assert broken.alg.is_associative and broken.alg.generators == h.alg.generators, name
        (rows, generators), = declare(broken).spans
        assert generators == h.alg.generators and not holds_on(rows, generators), name
        want = getattr(reference, name)(broken)
        assert want, name
        assert reported(report(broken), name) == recorded(name, want), name


def test_every_law_with_a_premise_is_registered(monkeypatch):
    """Each `Law` with a premise that the validators decide on c3_o3, and on c3_o3 with one product
    doubled, is in `law_registry.LAWS`, so that the generic property compares its spans with its walk;
    on c3_o3 every registered law is met."""
    declared, real = set(), Law.failures

    def failures(law):
        if law.premise is not None:
            declared.add(law.names)
        return real(law)

    monkeypatch.setattr(Law, "failures", failures)
    h = groupoid_algebra(component_groupoid("c3_", 3, 3))
    ht = ht_module_action(h)
    s = build_smash(ht)
    broken = apply_mutation(h, "mult_scale")
    broken_ht = ModuleAction(broken, ht.alg, ht.act)
    broken_s = SmashProduct(broken_ht, s.relation_space, s.quotient_coords, s.projection, s.algebra)
    for label, x, m, smash_product in (("c3_o3", h, ht, s), ("c3_o3.mult_scale", broken, broken_ht, broken_s)):
        declared.clear()
        for check in (weakhopf.validate_wha, weakhopf.counital_identities, weakhopf.antipode_props):
            outcome(check, x)
        outcome(actions.validate_module_algebra, ModuleAction.from_terms(x, m.alg, m.act_terms))
        outcome(smash.embeddings_check, smash_product)
        assert declared <= set(LAWS), (label, declared - set(LAWS))
        if x is h:
            assert declared == set(LAWS), set(LAWS) - declared


def test_every_span_set_is_reiterable_and_a_law_gives_one_verdict_twice():
    """Each set of every span of every law in `law_registry.LAWS` is a collection, not a one-shot iterator,
    which would leave the second test of its span vacuously true; and `Law.holds()`, asked twice of one
    `Law`, gives one verdict.  On the corpus, on c3_o3 and on c3_o3 with its coproduct scaled, where the
    premises hold and spans of three laws fail."""
    h = groupoid_algebra(component_groupoid("c3_", 3, 3))
    ht = ht_module_action(h)
    s = build_smash(ht)
    broken = apply_mutation(h, "comult_scale")
    broken_ht = ModuleAction(broken, ht.alg, ht.act)
    broken_s = SmashProduct(broken_ht, s.relation_space, s.quotient_coords, s.projection, s.algebra)
    entries = map(corpus_entry, WHA_NAMES)
    cases = [(e.name, e.wha, e.ht_action, build_smash(e.ht_action)) for e in entries]
    cases += [("c3_o3", h, ht, s), ("c3_o3.comult_scale", broken, broken_ht, broken_s)]
    sets, failing = 0, 0
    for label, x, m, smash_product in cases:
        structures = {"algebra": x.alg, "coalgebra": x.coalg, "wha": x, "action": m, "smash": smash_product}
        for names, (kind, declare, _) in LAWS.items():
            declared = outcome(declare, structures[kind])
            if declared[0] != "value":
                continue
            law = declared[1]
            for _, *span_sets in law.spans:
                assert all(iter(each) is not each for each in span_sets), (label, names)
                sets += len(span_sets)
            verdict = outcome(law.holds)
            assert outcome(law.holds) == verdict, (label, names)
            failing += x is broken and verdict == ("value", False)
    assert sets == 13 * len(cases) and failing >= 3, (sets, failing)  # every law declared, with its 13 sets


# --- the counit, antipode and counital-map laws, and what is checked on the inner actions ---

LIBRARY_ERRORS = (DimensionError, InvariantViolation, PreconditionError, ShapeError)


def recorded_laws(names, failures):
    rb = ReportBuilder()
    rb.check_laws(names, failures)
    return list(rb.build().items)


def check_counital(label, h):
    """The counit law, the three antipode laws, the six eps laws and the first
    quantum-commutativity criterion by rows against the reference, and their
    report items; returns the number of failing law lists."""
    n, failing = h.dim, 0
    eps_names, antipode_names = weakhopf._EPS_LAWS, weakhopf._ANTIPODE_LAWS

    for got, want in (
        (lambda: list(weakhopf._counit_mult_failures(h)), reference.counit_mult_compatibility),
        (lambda: walked(Law(antipode_names, partial(weakhopf._antipode_rows, h), (n,))), reference.antipode_laws),
        (lambda: walked(weakhopf._eps_laws(h)), reference.eps_laws),
        (lambda: every_row(h.counital_commutation, (n, n)), reference.counital_commutation),
    ):
        got, want = outcome(got), outcome(want, h)
        assert got == want, (label, want[0])
        failing += got[0] == "value" and bool(got[1])

    def wha_items():
        report = weakhopf.validate_wha(h)
        return reported(report, "counit_mult_compatibility"), [i for i in report.items if i.name in antipode_names]

    def wha_reference():
        return (
            recorded("counit_mult_compatibility", reference.counit_mult_compatibility(h)),
            recorded_laws(antipode_names, reference.antipode_laws(h)),
        )

    assert outcome(wha_items) == outcome(wha_reference), label
    identities = outcome(lambda: [i for i in weakhopf.counital_identities(h).items if i.name in eps_names])
    assert identities == outcome(lambda: recorded_laws(eps_names, reference.eps_laws(h))), label
    return failing


def check_centralizers(label, h):
    """algebra.centralizes on every pair of H, its centre, H_s and H_t against the dense
    products, and the second quantum-commutativity criterion; returns the number of
    non-commuting pairs of spaces."""
    a = h.alg
    spaces = [Subspace.full(a.dim), a.center]
    try:
        cd = h.counital_data
    except InvariantViolation:
        cd = None
    else:
        spaces += [cd.h_s, cd.h_t]
    failing = 0
    for s, t in product(spaces, repeat=2):
        want = reference.noncommuting_pairs(a, s, t)
        assert algebra.centralizes(a, s, t) == (not want), label
        failing += bool(want)
    qc = outcome(weakhopf.is_quantum_commutative, h)
    if cd is None:
        assert qc[0] == "InvariantViolation", label
    else:
        first = not reference.counital_commutation(h)
        assert qc == ("value", (first, not reference.noncommuting_pairs(a, cd.h_s, Subspace.full(a.dim)))), label
    return failing


def same_terms(got, want):
    """Equal term tables, with equal value types."""
    types = lambda table: [[[type(x) for _, x in terms] for terms in row] for row in table]
    return got == want and types(got) == types(want)


def check_inner(label, h, adjoint_act):
    """The sparse-born conjugation actions against the dense tensor, and g . e(h) = e(g h)
    and the centrality of t on h's adjoint data, against the reference; returns the
    number of failing checks."""
    pairs = [(identity_conv(h), antipode_conv(h))]
    try:
        data = adjoint_data(h)
    except InvariantViolation:
        data = None
    else:
        w = data.witness
        pairs += [(w.f, w.f), (w.u, w.f), (w.e, w.v)]
    for u, v in pairs:
        m = ModuleAction.from_sparse(h, u.target, actions._conjugation_images(h, u, v))
        assert m.act == reference.conjugation_tensor(h, u, v), label
        assert same_terms(m.act_terms, tuple(tuple(nonzero(row) for row in slice_) for slice_ in m.act)), label
    if data is None:
        return 0
    nh, m = h.dim, ModuleAction(h, h.alg, adjoint_act)
    want = reference.unit_image_translates(data, m)
    assert every_row(partial(actions._unit_image_rows, data, m), (nh, nh)) == want, label
    assert actions._unit_image_translates(data, m) == (not want), label
    t = actions._t_rows(data)
    values = [[reference.t_basis(data, i, j) for j in range(nh)] for i in range(nh)]
    assert [[densify(t(i).get(j, {}), h.dim) for j in range(nh)] for i in range(nh)] == values, label
    central = data.witness.target.center
    noncentral = [x for row in values for x in row if not central.contains(x)]
    assert actions.t_image_central(data) == (not noncentral), label
    return bool(want) + bool(noncentral)


def check_smash_commutation(label, s):
    """The smash product's counital commutation against the reference; returns 1 when it fails."""
    got = outcome(smash._commutes_counitally, s)
    want = outcome(reference.smash_counital_commutation, s)
    assert got[0] == want[0] and (got[0] != "value" or got[1] == (not want[1])), label
    return got == ("value", False)


def counital_case(label, h, adjoint_act, s):
    return check_counital(label, h) + check_centralizers(label, h) + check_inner(label, h, adjoint_act) + (
        check_smash_commutation(label, s)
    )


def test_counital_laws_and_inner_checks_by_rows_match_the_reference_on_the_corpus_and_its_mutations():
    failing = 0
    for name in WHA_NAMES:
        h = corpus_entry(name).wha
        ht, adjoint = ht_module_action(h), adjoint_action(h)
        s = build_smash(ht)
        failing += counital_case(name, h, adjoint.act, s)
        for mutation in MUTATIONS:
            broken = apply_mutation(h, mutation)
            # h's smash product, read over the broken structure
            broken_s = SmashProduct(
                ModuleAction(broken, ht.alg, ht.act), s.relation_space, s.quotient_coords, s.projection, s.algebra
            )
            failing += counital_case(f"{name}.{mutation}", broken, adjoint.act, broken_s)
    assert failing >= 60  # failure lists are compared, not only passes


def test_counital_laws_and_inner_checks_by_rows_match_the_reference_on_the_bench_inputs(ladder):
    bench = load_bench_inputs()
    failing = 0
    for seed in (7, 12):
        for name in bench.FACTS:
            h = bench.build(name, seed).wha
            failing += counital_case(f"{name}@{seed}", h, adjoint_action(h).act, build_smash(ht_module_action(h)))
    h = ladder[0].wha  # dim 48, above the bench ladder
    failing += counital_case("c3_o4", h, adjoint_action(h).act, ladder[0].smash)
    assert failing >= 10
