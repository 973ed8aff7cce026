"""Builtin example corpus, compiled in so no file I/O is needed.

Members:
  qc2   group algebra of the two-element group
  qs3   group algebra of the symmetric group on three letters
  h4    the four-dimensional Hopf algebra with a grouplike g and a
        skew-primitive x (g^2 = 1, x^2 = 0, xg = -gx, S(x) = -gx)
  p2    pair groupoid on two objects (its algebra is the 2x2 matrix algebra)
  c2c1  disjoint union of a one-object two-element group and a point
  sw2   two-dimensional coalgebra with a grouplike g and x primitive over it

Each weak Hopf member also ships its canonical target-subalgebra action
under the name "<member>-ht-action".
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .actions import ModuleAction, ht_module_action
from .algebra import FiniteAlgebra
from .coalgebra import FiniteCoalgebra
from .errors import ParseError
from .groupoid import FiniteGroupoid, component_groupoid, disjoint_union, groupoid_algebra
from .linalg import Mat, ONE, Record, ZERO, term_value, unit_vec
from .weakhopf import WeakHopfAlgebra

WHA_NAMES = ("qc2", "qs3", "h4", "p2", "c2c1")
COALGEBRA_NAMES = ("sw2",)


class CorpusEntry(Record):
    name: str
    wha: WeakHopfAlgebra
    groupoid: FiniteGroupoid | None
    ht_action: ModuleAction

    # compared by identity: entries are cached per name, and a groupoid's dict fields do not hash
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def group_groupoid(
    elements: tuple[str, ...],
    compose,
    inverse,
    identity: str,
) -> FiniteGroupoid:
    """One-object groupoid presenting a finite group."""
    obj = "o"
    comp = {(a, b): compose(a, b) for a in elements for b in elements}
    inv = {a: inverse(a) for a in elements}
    return FiniteGroupoid(
        (obj,),
        elements,
        {a: obj for a in elements},
        {a: obj for a in elements},
        comp,
        inv,
        {obj: identity},
    )


def _c2_groupoid() -> FiniteGroupoid:
    def compose(a: str, b: str) -> str:
        return "e" if a == b else "g"

    return group_groupoid(("e", "g"), compose, lambda a: a, "e")


def _s3_groupoid() -> FiniteGroupoid:
    perms = sorted(itertools.permutations(range(3)))
    name = {p: "p" + "".join(str(i) for i in p) for p in perms}
    by_name = {v: k for k, v in name.items()}

    def compose(a: str, b: str) -> str:
        pa, pb = by_name[a], by_name[b]
        return name[tuple(pa[pb[i]] for i in range(3))]

    def inverse(a: str) -> str:
        pa = by_name[a]
        inv = [0, 0, 0]
        for i, j in enumerate(pa):
            inv[j] = i
        return name[tuple(inv)]

    elements = tuple(name[p] for p in perms)
    return group_groupoid(elements, compose, inverse, name[(0, 1, 2)])


def _h4() -> WeakHopfAlgebra:
    # basis 0 = 1, 1 = g, 2 = x, 3 = gx
    z, o = ZERO, ONE
    e = lambda i: unit_vec(4, i)
    zero4 = (z, z, z, z)
    mult = (
        (e(0), e(1), e(2), e(3)),
        (e(1), e(0), e(3), e(2)),
        (e(2), (z, z, z, -o), zero4, zero4),
        (e(3), (z, z, -o, z), zero4, zero4),
    )
    alg = FiniteAlgebra(4, mult, e(0))

    def slice_(pairs):
        rows = [[z] * 4 for _ in range(4)]
        for j, k, c in pairs:
            rows[j][k] = c
        return tuple(tuple(r) for r in rows)

    comult = (
        slice_([(0, 0, o)]),
        slice_([(1, 1, o)]),
        slice_([(2, 0, o), (1, 2, o)]),
        slice_([(3, 1, o), (0, 3, o)]),
    )
    coalg = FiniteCoalgebra(4, comult, (o, o, z, z))
    antipode = Mat.from_columns([e(0), e(1), (z, z, z, -o), e(2)], 4)
    return WeakHopfAlgebra(alg, coalg, antipode)


def sw2_coalgebra() -> FiniteCoalgebra:
    # d[0][0][0] = 1 (g grouplike); d[1][1][0] = d[1][0][1] = 1 (x primitive over g)
    z, o = ZERO, ONE
    comult = (
        ((o, z), (z, z)),
        ((z, o), (o, z)),
    )
    return FiniteCoalgebra(2, comult, (o, z))


@lru_cache(maxsize=None)
def corpus_entry(name: str) -> CorpusEntry:
    if name == "qc2":
        g = _c2_groupoid()
        wha = groupoid_algebra(g)
    elif name == "qs3":
        g = _s3_groupoid()
        wha = groupoid_algebra(g)
    elif name == "p2":
        g = component_groupoid("p2_", 2, 1)
        wha = groupoid_algebra(g)
    elif name == "c2c1":
        g = disjoint_union([component_groupoid("a_", 1, 2), component_groupoid("b_", 1, 1)])
        wha = groupoid_algebra(g)
    elif name == "h4":
        g = None
        wha = _h4()
    else:
        raise ParseError(f"unknown corpus member {name!r}")
    return CorpusEntry(name, wha, g, ht_module_action(wha))


def all_entries() -> list[CorpusEntry]:
    return [corpus_entry(name) for name in WHA_NAMES]


MUTATIONS = (
    "antipode_identity",
    "antipode_scale",
    "comult_scale",
    "counit_zero",
    "unit_shift",
    "mult_scale",
)


def apply_mutation(wha: WeakHopfAlgebra, mutation: str) -> WeakHopfAlgebra:
    """Deterministically corrupted copy of a weak Hopf algebra (test hook)."""
    n = wha.dim
    if mutation == "antipode_identity":
        return WeakHopfAlgebra(wha.alg, wha.coalg, Mat.identity(n))
    if mutation == "antipode_scale":
        doubled = tuple(tuple((i, term_value(2 * x)) for i, x in terms) for terms in wha.antipode.column_terms)
        return WeakHopfAlgebra(wha.alg, wha.coalg, Mat.from_terms(n, n, doubled))
    if mutation == "comult_scale":
        dt = wha.coalg.delta_terms
        last = tuple((j, k, term_value(2 * x)) for j, k, x in dt[n - 1])
        coalg = FiniteCoalgebra.from_terms(n, dt[: n - 1] + (last,), wha.coalg.counit)
        return WeakHopfAlgebra(wha.alg, coalg, wha.antipode)
    if mutation == "counit_zero":
        coalg = FiniteCoalgebra.from_terms(n, wha.coalg.delta_terms, (ZERO,) * n)
        return WeakHopfAlgebra(wha.alg, coalg, wha.antipode)
    if mutation == "unit_shift":
        unit = tuple(
            x + ONE if i == 0 else x for i, x in enumerate(wha.alg.unit)
        )
        alg = FiniteAlgebra.from_terms(n, wha.alg.mult_terms, unit)
        return WeakHopfAlgebra(alg, wha.coalg, wha.antipode)
    if mutation == "mult_scale":
        mt = wha.alg.mult_terms
        target = next(((i, j) for i in range(n) for j in range(n) if (i or j) and mt[i][j]), None)
        if target is None:
            raise ParseError("no nonzero product slot to corrupt")
        ti, tj = target
        mult = tuple(
            tuple(
                tuple((k, term_value(2 * x)) for k, x in terms) if (i, j) == (ti, tj) else terms
                for j, terms in enumerate(slice_)
            )
            for i, slice_ in enumerate(mt)
        )
        alg = FiniteAlgebra.from_terms(n, mult, wha.alg.unit)
        return WeakHopfAlgebra(alg, wha.coalg, wha.antipode)
    raise ParseError(f"unknown mutation {mutation!r}; choose from {', '.join(MUTATIONS)}")


def resolve_builtin(token: str):
    """Map a builtin:<name> token to the corresponding structure."""
    if token == "sw2":
        return "coalgebra", sw2_coalgebra()
    if token.endswith("-ht-action"):
        base = token[: -len("-ht-action")]
        if base in WHA_NAMES:
            return "module_action", corpus_entry(base).ht_action
        raise ParseError(f"unknown builtin action {token!r}")
    if token.endswith("-groupoid"):
        base = token[: -len("-groupoid")]
        if base in WHA_NAMES:
            entry = corpus_entry(base)
            if entry.groupoid is None:
                raise ParseError(f"builtin {base!r} is not groupoid-backed")
            return "groupoid", entry.groupoid
        raise ParseError(f"unknown builtin groupoid {token!r}")
    if token in WHA_NAMES:
        return "weak_hopf", corpus_entry(token).wha
    raise ParseError(f"unknown builtin name {token!r}")
