"""Weak Hopf algebra structure and its axiom battery.

A weak Hopf algebra couples an algebra and a coalgebra on the same basis
with an antipode matrix.  Comultiplication is multiplicative but the unit
is not required to be grouplike; the failure of that Hopf axiom is
measured by the target/source counital idempotents whose fixed spaces
replace the scalar line of ordinary Hopf theory.

Axioms are evaluated on all basis tuples: multiplicativity of the
coproduct on pairs, weak comultiplicativity of the unit once, weak
multiplicativity of the counit on triples, and the three antipode
cancellation laws per basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import FiniteAlgebra, centralizes, validate_algebra, unital_subalgebra_report
from .coalgebra import FiniteCoalgebra, validate_coalgebra
from .convolution import ConvMap
from .errors import DimensionError, InvariantViolation, ShapeError
from .linalg import Mat, Subspace, Vec, ZERO, bilinear, invert, kernel, rank, sweedler, unit_vec, vec_kron
from .report import Report, ReportBuilder

SparseTriple = dict[tuple[int, int, int], Fraction]


@dataclass(frozen=True)
class WeakHopfAlgebra:
    alg: FiniteAlgebra
    coalg: FiniteCoalgebra
    antipode: Mat

    def __post_init__(self) -> None:
        if self.alg.dim != self.coalg.dim:
            raise DimensionError("algebra and coalgebra dimensions differ")
        if self.antipode.rows != self.alg.dim or self.antipode.cols != self.alg.dim:
            raise ShapeError("antipode matrix has wrong shape")

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def unit(self) -> Vec:
        return self.alg.unit

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return self.alg.multiply(x, y)

    def antipode_vec(self, x: Vec) -> Vec:
        return self.antipode.apply(x)

    def antipode_col(self, i: int) -> Vec:
        return self.antipode.col(i)

    @cached_property
    def unit_delta_terms(self) -> tuple[tuple[int, int, Fraction], ...]:
        """Nonzero terms of Delta(1)."""
        acc: dict[tuple[int, int], Fraction] = {}
        for i, ui in enumerate(self.unit):
            if ui:
                for j, k, c in self.coalg.delta_terms[i]:
                    key = (j, k)
                    acc[key] = acc.get(key, ZERO) + ui * c
        return tuple((j, k, v) for (j, k), v in sorted(acc.items()) if v)

    @cached_property
    def antipode_inverse(self) -> Mat | None:
        return invert(self.antipode)

    @cached_property
    def counital_data(self) -> CounitalData:
        """Counital idempotents and their fixed subalgebras.

        The fixed spaces are extracted as kernels of (id - projection), the
        more robust primitive; idempotence and the unital-subalgebra facts are
        verified rather than assumed.
        """
        et = eps_t_matrix(self)
        es = eps_s_matrix(self)
        if et @ et != et or es @ es != es:
            raise InvariantViolation("counital maps are not idempotent")
        identity = Mat.identity(self.dim)
        h_t = kernel(identity.sub(et))
        h_s = kernel(identity.sub(es))
        for label, space in (("target", h_t), ("source", h_s)):
            report = unital_subalgebra_report(self.alg, space, label)
            if not report.ok:
                raise InvariantViolation(f"{label} counital space is not a unital subalgebra")
        return CounitalData(et, es, h_t, h_s)


def _eps_t_col(h: WeakHopfAlgebra, i: int) -> Vec:
    """epsilon_t(e_i) computed directly from Delta(1): sum eps(1_1 e_i) 1_2."""
    out = [ZERO] * h.dim
    for j, k, c in h.unit_delta_terms:
        value = c * h.coalg.counit_value(h.alg.basis_product(j, i))
        if value:
            out[k] += value
    return tuple(out)


def _eps_s_col(h: WeakHopfAlgebra, i: int) -> Vec:
    """epsilon_s(e_i) = sum 1_1 eps(e_i 1_2)."""
    out = [ZERO] * h.dim
    for j, k, c in h.unit_delta_terms:
        value = c * h.coalg.counit_value(h.alg.basis_product(i, k))
        if value:
            out[j] += value
    return tuple(out)


def eps_t_matrix(h: WeakHopfAlgebra) -> Mat:
    return Mat.from_columns([_eps_t_col(h, i) for i in range(h.dim)], h.dim)


def eps_s_matrix(h: WeakHopfAlgebra) -> Mat:
    return Mat.from_columns([_eps_s_col(h, i) for i in range(h.dim)], h.dim)


def validate_wha(h: WeakHopfAlgebra) -> Report:
    """Full axiom battery: constituent structures plus the six couplings."""
    rb = ReportBuilder()
    rb.extend(validate_algebra(h.alg))
    rb.extend(validate_coalgebra(h.coalg))
    n = h.dim
    dt = h.coalg.delta_terms
    alg = h.alg

    # Delta(e_i e_j) = Delta(e_i) Delta(e_j) on all pairs
    ok = True
    for i in range(n):
        for j in range(n):
            lhs: dict[tuple[int, int], Fraction] = {}
            for k, ck in enumerate(alg.basis_product(i, j)):
                if ck:
                    for p, q, c in dt[k]:
                        key = (p, q)
                        lhs[key] = lhs.get(key, ZERO) + ck * c
            rhs: dict[tuple[int, int], Fraction] = {}
            for p1, q1, c1 in dt[i]:
                for p2, q2, c2 in dt[j]:
                    coeff = c1 * c2
                    for a, ca in alg.mult_terms[p1][p2]:
                        for b, cb in alg.mult_terms[q1][q2]:
                            key = (a, b)
                            rhs[key] = rhs.get(key, ZERO) + coeff * ca * cb
            lhs = {key: v for key, v in lhs.items() if v}
            rhs = {key: v for key, v in rhs.items() if v}
            if lhs != rhs:
                ok = False
                rb.record_failure("comult_multiplicative", (i, j), lhs, rhs)
    rb.summary("comult_multiplicative", ok)

    # Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)
    direct: SparseTriple = {}
    for j, k, c in h.unit_delta_terms:
        for p, q, c2 in dt[j]:
            key = (p, q, k)
            direct[key] = direct.get(key, ZERO) + c * c2
    left: SparseTriple = {}
    right: SparseTriple = {}
    for j, k, c in h.unit_delta_terms:
        for p, q, c2 in h.unit_delta_terms:
            coeff = c * c2
            for mid, cm in alg.mult_terms[k][p]:
                key = (j, mid, q)
                left[key] = left.get(key, ZERO) + coeff * cm
            for mid, cm in alg.mult_terms[p][k]:
                key = (j, mid, q)
                right[key] = right.get(key, ZERO) + coeff * cm
    direct = {key: v for key, v in direct.items() if v}
    left = {key: v for key, v in left.items() if v}
    right = {key: v for key, v in right.items() if v}
    ok = direct == left == right
    if not ok:
        rb.record_failure("unit_comult_compatibility", (), direct, (left, right))
    rb.summary("unit_comult_compatibility", ok)

    # eps(e_h e_g e_l) = eps(e_h g_1) eps(g_2 e_l) = eps(e_h g_2) eps(g_1 e_l)
    ok = True
    eps = h.coalg.counit_value
    for a in range(n):
        for g in range(n):
            mid_terms = dt[g]
            for b in range(n):
                lhs = eps(alg.multiply(alg.basis_product(a, g), unit_vec(n, b)))
                first = ZERO
                second = ZERO
                for p, q, c in mid_terms:
                    first += c * eps(alg.basis_product(a, p)) * eps(alg.basis_product(q, b))
                    second += c * eps(alg.basis_product(a, q)) * eps(alg.basis_product(p, b))
                if lhs != first or lhs != second:
                    ok = False
                    rb.record_failure("counit_mult_compatibility", (a, g, b), lhs, (first, second))
    rb.summary("counit_mult_compatibility", ok)

    # h_1 S(h_2) = eps_t(h), S(h_1) h_2 = eps_s(h), S(h_1) h_2 S(h_3) = S(h)
    ok4 = ok5 = ok6 = True
    for i in range(n):
        acc4 = [ZERO] * n
        acc5 = [ZERO] * n
        acc6 = [ZERO] * n
        for p, q, c in dt[i]:
            sq = h.antipode_col(q)
            for k, sk in enumerate(sq):
                if sk:
                    coeff = c * sk
                    for t, ct in alg.mult_terms[p][k]:
                        acc4[t] += coeff * ct
            sp = h.antipode_col(p)
            for k, sk in enumerate(sp):
                if sk:
                    coeff = c * sk
                    for t, ct in alg.mult_terms[k][q]:
                        acc5[t] += coeff * ct
            for p2, q2, c2 in dt[p]:
                sp2 = h.antipode_col(p2)
                sq2 = h.antipode_col(q2)
                inner = alg.multiply(alg.multiply(sp2, unit_vec(n, q2)), sq)
                coeff = c * c2
                for t, vt in enumerate(inner):
                    if vt:
                        acc6[t] += coeff * vt
        if tuple(acc4) != _eps_t_col(h, i):
            ok4 = False
            rb.record_failure("antipode_left_cancel", (i,), tuple(acc4), _eps_t_col(h, i))
        if tuple(acc5) != _eps_s_col(h, i):
            ok5 = False
            rb.record_failure("antipode_right_cancel", (i,), tuple(acc5), _eps_s_col(h, i))
        if tuple(acc6) != h.antipode_col(i):
            ok6 = False
            rb.record_failure("antipode_triple", (i,), tuple(acc6), h.antipode_col(i))
    rb.summary("antipode_left_cancel", ok4)
    rb.summary("antipode_right_cancel", ok5)
    rb.summary("antipode_triple", ok6)
    return rb.build()


@dataclass(frozen=True)
class CounitalData:
    eps_t: Mat
    eps_s: Mat
    h_t: Subspace
    h_s: Subspace


def counital_data(h: WeakHopfAlgebra) -> CounitalData:
    """`WeakHopfAlgebra.counital_data`, computed once per structure."""
    return h.counital_data


def counital_identities(h: WeakHopfAlgebra) -> Report:
    """Identity suite for the counital maps and subalgebras.

    Checks, on every basis tuple: Delta(1) sits inside H_s (x) H_t; the
    coproduct of source/target elements takes its one-sided forms; and the
    six absorption/translation identities for eps_s and eps_t.
    """
    rb = ReportBuilder()
    cd = h.counital_data
    n = h.dim
    alg = h.alg
    dt = h.coalg.delta_terms
    eps = h.coalg.counit_value

    pair_space = Subspace.spanned_by(
        n * n, [vec_kron(a, b) for a in cd.h_s.basis for b in cd.h_t.basis]
    )
    delta_unit = [ZERO] * (n * n)
    for j, k, c in h.unit_delta_terms:
        delta_unit[j * n + k] += c
    rb.add("delta_unit_in_source_target", pair_space.contains(tuple(delta_unit)))

    ok = True
    for r, xs in enumerate(cd.h_s.basis):
        actual = h.coalg.delta_vec(xs)
        right_mul = [ZERO] * (n * n)
        left_mul = [ZERO] * (n * n)
        for j, k, c in h.unit_delta_terms:
            xs_k = alg.multiply(xs, unit_vec(n, k))
            k_xs = alg.multiply(unit_vec(n, k), xs)
            for t, vt in enumerate(xs_k):
                if vt:
                    right_mul[j * n + t] += c * vt
            for t, vt in enumerate(k_xs):
                if vt:
                    left_mul[j * n + t] += c * vt
        if actual != tuple(right_mul) or actual != tuple(left_mul):
            ok = False
            rb.record_failure("delta_on_source_elements", (r,), actual, (tuple(right_mul), tuple(left_mul)))
    rb.summary("delta_on_source_elements", ok)

    ok = True
    for r, xt in enumerate(cd.h_t.basis):
        actual = h.coalg.delta_vec(xt)
        left_mul = [ZERO] * (n * n)
        right_mul = [ZERO] * (n * n)
        for j, k, c in h.unit_delta_terms:
            j_xt = alg.multiply(unit_vec(n, j), xt)
            xt_j = alg.multiply(xt, unit_vec(n, j))
            for t, vt in enumerate(j_xt):
                if vt:
                    left_mul[t * n + k] += c * vt
            for t, vt in enumerate(xt_j):
                if vt:
                    right_mul[t * n + k] += c * vt
        if actual != tuple(left_mul) or actual != tuple(right_mul):
            ok = False
            rb.record_failure("delta_on_target_elements", (r,), actual, (tuple(left_mul), tuple(right_mul)))
    rb.summary("delta_on_target_elements", ok)

    et, es = cd.eps_t, cd.eps_s
    checks = {
        "eps_s_absorbs": True,
        "eps_s_translates": True,
        "eps_s_multiplicative": True,
        "eps_t_absorbs": True,
        "eps_t_translates": True,
        "eps_t_multiplicative": True,
    }
    for a in range(n):
        ea = unit_vec(n, a)
        es_a = es.col(a)
        et_a = et.col(a)
        for b in range(n):
            eb = unit_vec(n, b)
            ab = alg.basis_product(a, b)
            es_b = es.col(b)
            et_b = et.col(b)

            lhs = es.apply(alg.multiply(es_a, eb))
            rhs = es.apply(ab)
            if lhs != rhs:
                checks["eps_s_absorbs"] = False
                rb.record_failure("eps_s_absorbs", (a, b), lhs, rhs)

            lhs = alg.multiply(es_a, eb)
            acc = [ZERO] * n
            for p, q, c in dt[b]:
                value = c * eps(alg.basis_product(a, q))
                if value:
                    acc[p] += value
            if lhs != tuple(acc):
                checks["eps_s_translates"] = False
                rb.record_failure("eps_s_translates", (a, b), lhs, tuple(acc))

            lhs = es.apply(alg.multiply(ea, es_b))
            rhs = alg.multiply(es_a, es_b)
            if lhs != rhs:
                checks["eps_s_multiplicative"] = False
                rb.record_failure("eps_s_multiplicative", (a, b), lhs, rhs)

            lhs = et.apply(alg.multiply(ea, et_b))
            rhs = et.apply(ab)
            if lhs != rhs:
                checks["eps_t_absorbs"] = False
                rb.record_failure("eps_t_absorbs", (a, b), lhs, rhs)

            lhs = alg.multiply(ea, et_b)
            acc = [ZERO] * n
            for p, q, c in dt[a]:
                value = c * eps(alg.basis_product(p, b))
                if value:
                    acc[q] += value
            if lhs != tuple(acc):
                checks["eps_t_translates"] = False
                rb.record_failure("eps_t_translates", (a, b), lhs, tuple(acc))

            lhs = et.apply(alg.multiply(et_a, eb))
            rhs = alg.multiply(et_a, et_b)
            if lhs != rhs:
                checks["eps_t_multiplicative"] = False
                rb.record_failure("eps_t_multiplicative", (a, b), lhs, rhs)
    for name, ok in checks.items():
        rb.summary(name, ok)
    return rb.build()


def antipode_props(h: WeakHopfAlgebra) -> Report:
    """Anti-homomorphism properties, invertibility and counital swaps."""
    rb = ReportBuilder()
    n = h.dim
    alg = h.alg
    s = h.antipode

    ok = True
    for i in range(n):
        si = h.antipode_col(i)
        for j in range(n):
            lhs = s.apply(alg.basis_product(i, j))
            rhs = alg.multiply(h.antipode_col(j), si)
            if lhs != rhs:
                ok = False
                rb.record_failure("anti_algebra_morphism", (i, j), lhs, rhs)
    rb.summary("anti_algebra_morphism", ok)

    ok = True
    for i in range(n):
        lhs = h.coalg.delta_vec(h.antipode_col(i))
        acc = [ZERO] * (n * n)
        for p, q, c in h.coalg.delta_terms[i]:
            pair = vec_kron(h.antipode_col(q), h.antipode_col(p))
            for t, vt in enumerate(pair):
                if vt:
                    acc[t] += c * vt
        if lhs != tuple(acc):
            ok = False
            rb.record_failure("anti_coalgebra_morphism", (i,), lhs, tuple(acc))
    rb.summary("anti_coalgebra_morphism", ok)

    rb.add("antipode_invertible", rank(s) == n)

    cd = h.counital_data
    rb.add("antipode_swaps_target_to_source", s @ cd.eps_t == cd.eps_s @ s)
    rb.add("antipode_swaps_source_to_target", s @ cd.eps_s == cd.eps_t @ s)
    return rb.build()


def is_quantum_commutative(h: WeakHopfAlgebra) -> tuple[bool, bool]:
    """Both characterisations, evaluated independently.

    First: h_1 g eps_s(h_2) = h g on all basis pairs.  Second: the source
    counital subalgebra is central.  They agree on every valid input; the
    caller asserts that.
    """
    cd = h.counital_data
    n = h.dim
    alg = h.alg
    mt, dt, eps_s = alg.mult_terms, h.coalg.delta_terms, cd.eps_s.column_terms
    first = all(
        sweedler(dt[i], lambda p, q: bilinear(mt, mt[p][g], eps_s[q])) == dict(mt[i][g])
        for i in range(n)
        for g in range(n)
    )
    second = centralizes(alg, cd.h_s, Subspace.full(n))
    return first, second


def identity_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, Mat.identity(h.dim))


def antipode_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.antipode)


def eps_t_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.counital_data.eps_t)


def eps_s_conv(h: WeakHopfAlgebra) -> ConvMap:
    return ConvMap(h.coalg, h.alg, h.counital_data.eps_s)
