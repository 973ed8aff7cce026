"""Acceptance criteria, one test per criterion, each printing a verdict line.

Everything is exact arithmetic, so every comparison is equality with zero
tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.  Besides the corpus and the generated family, the
criteria that hold for every weak Hopf algebra take the `ladder` fixture, the
groupoid algebras of dims 48, 64 and 100 above the bench ladder.
"""

import random
from fractions import Fraction

from whk.actions import InnerData, adjoint_data, inner_action_battery
from whk.algebra import FiniteAlgebra
from whk.cli import main
from whk.coalgebra import (
    FiniteCoalgebra,
    coradical_filtration,
    filtration_crosscheck,
    subcoalgebra_restriction,
    dual_algebra,
)
from whk.convolution import (
    ConvMap,
    conv_power,
    conv_unit,
    convolve,
    ef_inverse_series,
    ef_inverse_solution_space,
    ef_inverse_solve,
    restrict_conv,
)
from whk.corpus import corpus_entry, sw2_coalgebra
from whk.errors import InvariantViolation
from whk.fileio import dumps
from whk.groupoid import is_isotropy_disjoint_union, isotropy_action_check
from whk.linalg import Mat, Subspace, invert, unit_vec, vec, zero_vec
from whk.smash import (
    _failed_premise,
    build_smash,
    embeddings_check,
    smash_action_maps,
    smash_inner_battery,
)
from whk.weakhopf import (
    WeakHopfAlgebra,
    antipode_conv,
    antipode_props,
    counital_data,
    counital_identities,
    eps_s_conv,
    eps_t_conv,
    identity_conv,
    is_quantum_commutative,
    validate_wha,
)

from smash_reference import project_sparse, representative_bilinear
from test_linalg import of_dm, to_dm
from test_oracles import load_bench_inputs

CORPUS_NAMES = ("qc2", "qs3", "h4", "p2", "c2c1")


def record(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def suites_catch(wha: WeakHopfAlgebra) -> bool:
    """True when at least one named suite flags the structure."""
    if not validate_wha(wha).ok:
        return True
    try:
        if not counital_identities(wha).ok:
            return True
        if not antipode_props(wha).ok:
            return True
    except InvariantViolation:
        return True
    return False


def _with_antipode(wha: WeakHopfAlgebra, antipode: Mat) -> WeakHopfAlgebra:
    return WeakHopfAlgebra(wha.alg, wha.coalg, antipode)


def _with_comult_slice(wha: WeakHopfAlgebra, index: int, pairs) -> WeakHopfAlgebra:
    n = wha.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j, k, c in pairs:
        rows[j][k] = Fraction(c)
    comult = tuple(
        tuple(tuple(r) for r in rows) if i == index else slice_
        for i, slice_ in enumerate(wha.coalg.comult)
    )
    return WeakHopfAlgebra(
        wha.alg, FiniteCoalgebra(n, comult, wha.coalg.counit), wha.antipode
    )


def ten_mutations():
    qc2 = corpus_entry("qc2").wha
    qs3 = corpus_entry("qs3").wha
    h4 = corpus_entry("h4").wha
    p2 = corpus_entry("p2").wha
    c2c1 = corpus_entry("c2c1").wha

    swap = Mat.from_columns([unit_vec(2, 1), unit_vec(2, 0)], 2)
    h4_sign = Mat.from_columns(
        [unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 3), unit_vec(4, 2)], 4
    )
    p2_unit_broken = WeakHopfAlgebra(
        FiniteAlgebra(4, p2.alg.mult, unit_vec(4, 0)), p2.coalg, p2.antipode
    )
    qs3_mult = list(list(row) for row in qs3.alg.mult)
    qs3_mult[1][1] = list(qs3.alg.mult[1][2])  # redirect one group product
    qs3_mult_broken = WeakHopfAlgebra(
        FiniteAlgebra(6, tuple(tuple(tuple(r) for r in s) for s in qs3_mult), qs3.alg.unit),
        qs3.coalg,
        qs3.antipode,
    )
    arrow = 1  # a non-identity basis index in each case below
    return [
        ("qc2 antipode swapped", _with_antipode(qc2, swap)),
        ("qs3 antipode identity", _with_antipode(qs3, Mat.identity(6))),
        ("p2 antipode identity", _with_antipode(p2, Mat.identity(4))),
        ("h4 antipode sign flip", _with_antipode(h4, h4_sign)),
        ("h4 comult wrong legs", _with_comult_slice(h4, 2, [(2, 1, 1), (1, 2, 1)])),
        ("qc2 comult degrouped", _with_comult_slice(qc2, 1, [(1, 0, 1)])),
        ("p2 comult mixed tensor", _with_comult_slice(p2, 2, [(2, 3, 1)])),
        ("c2c1 comult doubled", _with_comult_slice(c2c1, arrow, [(1, 1, 1), (0, 0, 1)])),
        ("qs3 mult redirected", qs3_mult_broken),
        ("p2 unit truncated", p2_unit_broken),
    ]


def test_criterion_1_axiom_suite_and_mutations(corpus, ladder):
    ok = True
    for wha in [entry.wha for entry in corpus] + [member.wha for member in ladder]:
        ok = ok and validate_wha(wha).ok
        ok = ok and counital_identities(wha).ok
        ok = ok and antipode_props(wha).ok
    mutations = ten_mutations()
    assert len(mutations) == 10
    for label, broken in mutations:
        caught = suites_catch(broken)
        ok = ok and caught
        if not caught:
            print(f"  mutation NOT caught: {label}")
    record(1, "axiom suite and mutation detection", ok)


def test_criterion_2_antipode_reproduction(corpus):
    ok = True
    for entry in corpus:
        solved = ef_inverse_solve(
            identity_conv(entry.wha), eps_t_conv(entry.wha), eps_s_conv(entry.wha)
        )
        ok = ok and solved is not None and solved.matrix == entry.wha.antipode
    record(2, "identity map inverts to the antipode", ok)


def _series_instances():
    for name in ("qs3", "h4"):
        wha = corpus_entry(name).wha
        u, e, f = identity_conv(wha), eps_t_conv(wha), eps_s_conv(wha)
        filtration = coradical_filtration(wha.coalg)
        sub = subcoalgebra_restriction(wha.coalg, filtration.coradical)
        psi0 = restrict_conv(antipode_conv(wha), sub, filtration.coradical)
        yield name, u, e, f, psi0
    coalg = sw2_coalgebra()
    scalars = FiniteAlgebra(1, [[[1]]], [1])
    eps = ConvMap(coalg, scalars, Mat(1, 2, ((Fraction(1), Fraction(0)),)))
    one = conv_unit(coalg, scalars)
    filtration = coradical_filtration(coalg)
    sub = subcoalgebra_restriction(coalg, filtration.coradical)
    yield "sw2-counit", eps, one, one, restrict_conv(eps, sub, filtration.coradical)
    target = corpus_entry("qc2").wha.alg
    u = ConvMap(coalg, target, Mat.from_columns([vec([0, 1]), vec([1, 0])], 2))
    one = conv_unit(coalg, target)
    psi0 = ConvMap(sub, target, Mat.from_columns([vec([0, 1])], 2))
    yield "sw2-into-group-algebra", u, one, one, psi0


def test_criterion_3_series_agreement_and_truncation():
    ok = True
    for label, u, e, f, psi0 in _series_instances():
        direct = ef_inverse_solve(u, e, f)
        lifted = ef_inverse_series(u, e, f, psi0)
        ok = ok and direct is not None and direct == lifted

    rng = random.Random(101)
    cases = [
        (corpus_entry("qs3").wha.coalg, corpus_entry("qs3").wha.alg),
        (corpus_entry("h4").wha.coalg, corpus_entry("h4").wha.alg),
        (sw2_coalgebra(), dual_algebra(sw2_coalgebra())),
    ]
    for coalg, target in cases:
        filtration = coradical_filtration(coalg)
        c0 = filtration.coradical
        comp = c0.complement_coords()
        basis_mat = Mat.from_columns(
            list(c0.basis) + [unit_vec(coalg.dim, j) for j in comp], coalg.dim
        )
        basis_inv = to_dm(basis_mat).inv()
        zero = zero_vec(target.dim)
        for _ in range(50):
            values = [zero] * c0.dim + [
                tuple(Fraction(rng.randint(-3, 3)) for _ in range(target.dim))
                for _ in comp
            ]
            gamma = ConvMap(coalg, target, of_dm(to_dm(Mat.from_columns(values, target.dim)) * basis_inv))
            power = conv_power(gamma, filtration.length + 1)
            ok = ok and power.is_zero()
    record(3, "series equals direct solve; truncation vanishes", ok)


def _random_invertible_element(alg: FiniteAlgebra, rng: random.Random):
    while True:
        c = vec([rng.randint(-2, 2) for _ in range(alg.dim)])
        left = alg.left_mult_matrix(c)
        inverse = invert(left)
        if inverse is not None:
            return c, inverse.apply(alg.unit)


def _random_conv_unit_pair(wha: WeakHopfAlgebra, rng: random.Random):
    """A random invertible element of Hom(H, H) and its convolution inverse."""
    c, c_inv = _random_invertible_element(wha.alg, rng)
    counit = wha.coalg.counit
    a = ConvMap(wha.coalg, wha.alg, Mat.from_columns([tuple(counit[j] * x for x in c) for j in range(wha.dim)], wha.dim))
    a_inv = ConvMap(wha.coalg, wha.alg, Mat.from_columns([tuple(counit[j] * x for x in c_inv) for j in range(wha.dim)], wha.dim))

    filtration = coradical_filtration(wha.coalg)
    if filtration.length:
        c0 = filtration.coradical
        comp = c0.complement_coords()
        basis_mat = Mat.from_columns(
            list(c0.basis) + [unit_vec(wha.dim, j) for j in comp], wha.dim
        )
        values = [zero_vec(wha.dim)] * c0.dim + [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(wha.dim)) for _ in comp
        ]
        basis_inv = to_dm(basis_mat).inv()
        gamma = ConvMap(wha.coalg, wha.alg, of_dm(to_dm(Mat.from_columns(values, wha.dim)) * basis_inv))
        one = conv_unit(wha.coalg, wha.alg)
        twist = ConvMap(wha.coalg, wha.alg, of_dm(to_dm(one.matrix) + to_dm(gamma.matrix)))
        twist_inv = one
        sign = -1
        power = gamma
        for n in range(filtration.length):
            twist_inv = ConvMap(
                wha.coalg, wha.alg, of_dm(to_dm(twist_inv.matrix) + to_dm(power.matrix) * sign)
            )
            sign = -sign
            power = convolve(power, gamma)
        a = convolve(a, twist)
        a_inv = convolve(twist_inv, a_inv)
    assert convolve(a, a_inv) == conv_unit(wha.coalg, wha.alg)
    return a, a_inv


def test_criterion_4_uniqueness_under_perturbation(corpus):
    rng = random.Random(2024)
    ok = True
    count = 0
    while count < 100:
        entry = corpus[count % len(corpus)]
        wha = entry.wha
        u = identity_conv(wha)
        v = antipode_conv(wha)
        e, f = eps_t_conv(wha), eps_s_conv(wha)
        a, a_inv = _random_conv_unit_pair(wha, rng)
        b, b_inv = _random_conv_unit_pair(wha, rng)
        u2 = convolve(convolve(a, u), b)
        e2 = convolve(convolve(a, e), a_inv)
        f2 = convolve(convolve(b_inv, f), b)
        expected = convolve(convolve(b_inv, v), a_inv)
        particular, homogeneous = ef_inverse_solution_space(u2, e2, f2)
        ok = ok and particular is not None and homogeneous.dim == 0
        if particular is not None:
            n_c, n_a = wha.dim, wha.dim
            entries = tuple(
                tuple(particular[i * n_c + j] for j in range(n_c)) for i in range(n_a)
            )
            ok = ok and Mat(n_a, n_c, entries) == expected.matrix
        count += 1
    record(4, "perturbed inverse problems have point solutions", ok)


def test_criterion_5_quantum_commutativity_metamorphic(corpus, family):
    ok = True
    verdicts = set()
    for entry in corpus:
        a, b = is_quantum_commutative(entry.wha)
        ok = ok and a == b
        verdicts.add(a)
    assert len(family) >= 20
    for member in family:
        a, b = is_quantum_commutative(member.wha)
        ok = ok and a == b
        verdicts.add(a)
    ok = ok and verdicts == {True, False}
    record(5, "both commutativity criteria agree with mixed verdicts", ok)


def test_criterion_6_inner_action_battery_coherence(corpus, ladder):
    ok = True
    named = [(entry.name, entry.wha) for entry in corpus] + [(f"dim {m.wha.dim}", m.wha) for m in ladder]
    for name, wha in named:
        battery = inner_action_battery(adjoint_data(wha))
        print(f"  adjoint on {name}: central f-image hypothesis = {battery.f_image_central}")
        ok = ok and not battery.violations()
    for entry in corpus:
        smash = build_smash(entry.ht_action)
        witness = smash_action_maps(smash)
        battery = inner_action_battery(InnerData(entry.wha, witness))
        print(
            f"  smash witness on {entry.name}: central f-image hypothesis = {battery.f_image_central}"
        )
        ok = ok and not battery.violations()
    record(6, "inner-action equivalences hold side by side", ok)


def test_criterion_7_five_way_equivalence(corpus, family, ladder):
    ok = len(family) >= 20
    for member in family + ladder:
        ok = ok and member.battery.all_equal()
    p2 = corpus_entry("p2")
    c2c1 = corpus_entry("c2c1")
    ok = ok and smash_inner_battery(build_smash(p2.ht_action)).booleans() == (False,) * 5
    ok = ok and smash_inner_battery(build_smash(c2c1.ht_action)).booleans() == (True,) * 5
    record(7, "five-way smash equivalence over the generated family", ok)


def test_criterion_8_isotropy_equivalence(family):
    ok = True
    for member in family:
        conjugation_valid = member.battery.module_algebra
        ok = ok and conjugation_valid == is_isotropy_disjoint_union(member.groupoid)
    # the dedicated operation must agree with the battery on every member
    for member in family:
        pair = isotropy_action_check(member.groupoid, member.action)
        ok = ok and pair[0] == pair[1] and pair[0] == member.battery.module_algebra
    record(8, "conjugation action validity equals isotropy disjointness", ok)


def test_criterion_9_smash_structure(corpus, family, ladder):
    rng = random.Random(99)
    ok = True
    pairs = [(build_smash(entry.ht_action), entry.wha) for entry in corpus]
    pairs += [(member.smash, member.wha) for member in family + ladder]
    for smash, wha in pairs:
        m = smash.base_action
        alg = m.alg
        ok = ok and _failed_premise(m) is None
        for x in range(alg.dim):
            cx = smash.embed_algebra(unit_vec(alg.dim, x))
            for y in range(alg.dim):
                cy = smash.embed_algebra(unit_vec(alg.dim, y))
                if smash.algebra.multiply(cx, cy) != smash.embed_algebra(alg.mult[x][y]):
                    ok = False
        unit = smash.algebra.unit
        for w in range(smash.dim):
            ew = unit_vec(smash.dim, w)
            if smash.algebra.multiply(unit, ew) != ew or smash.algebra.multiply(ew, unit) != ew:
                ok = False
        ok = ok and embeddings_check(smash)
        product_dim = alg.dim * wha.dim
        hopf_input = counital_data(wha).h_t.dim == 1
        ok = ok and (smash.dim == product_dim) == hopf_input
        if smash.relation_space.dim:
            n = product_dim
            for _ in range(3):
                w = unit_vec(n, rng.randrange(n))
                r = smash.relation_space.basis[rng.randrange(smash.relation_space.dim)]
                shifted = tuple(p + q for p, q in zip(w, r))
                y = unit_vec(n, rng.randrange(n))
                if project_sparse(smash, representative_bilinear(m, w, y)) != project_sparse(
                    smash, representative_bilinear(m, shifted, y)
                ):
                    ok = False
    record(9, "smash quotient structure, embeddings and dimension law", ok)


def test_criterion_10_coradical_filtration(corpus, ladder):
    ok = True
    for entry in corpus:
        ok = ok and filtration_crosscheck(entry.wha.coalg)
        filtration = coradical_filtration(entry.wha.coalg)
        if entry.name == "h4":
            expected = Subspace.spanned_by(4, [unit_vec(4, 0), unit_vec(4, 1)])
            ok = ok and filtration.coradical == expected and filtration.length == 1
        else:
            # every other corpus member has a grouplike coalgebra
            ok = ok and filtration.length == 0
    ok = ok and filtration_crosscheck(sw2_coalgebra())
    ok = ok and coradical_filtration(sw2_coalgebra()).length == 1
    for member in ladder:
        ok = ok and filtration_crosscheck(member.wha.coalg)
    # dim 64, the one coalgebra above dim 16 that is not cosemisimple
    tensor_wha, h4 = load_bench_inputs().tensor_wha, corpus_entry("h4").wha
    h4h4p2 = tensor_wha(tensor_wha(h4, h4), corpus_entry("p2").wha).coalg
    ok = ok and coradical_filtration(h4h4p2).length == 2 and filtration_crosscheck(h4h4p2)
    record(10, "coradical filtrations agree across both constructions", ok)


def test_the_ladder_decides_its_triple_laws_on_fewer_generators_than_basis_vectors(ladder):
    for member in ladder:
        a = member.wha.alg
        assert a.is_associative and len(a.generators) < a.dim, (a.dim, a.generators)


def test_criterion_11_cli_contract(tmp_path, capsys):
    ok = main(["corpus", "--run-all"]) == 0
    capsys.readouterr()

    ok = ok and main(["validate", "builtin:qs3"]) == 0
    capsys.readouterr()

    from whk.corpus import apply_mutation

    broken = apply_mutation(corpus_entry("p2").wha, "antipode_identity")
    bad = tmp_path / "broken.json"
    bad.write_text(dumps(broken), encoding="utf-8")
    ok = ok and main(["validate", str(bad)]) == 1
    capsys.readouterr()

    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all", encoding="utf-8")
    ok = ok and main(["validate", str(garbage)]) == 2
    capsys.readouterr()
    record(11, "command-line exit code contract", ok)
