"""Finite groupoids from composition tables and their weak Hopf algebras.

Composition follows the "g after h" convention: comp[(g, h)] is defined
exactly when src(g) = tgt(h).  The algebra on the morphism basis
multiplies composable pairs and kills the rest, the unit is the sum of
the object identities, every morphism is grouplike, and the antipode is
the inversion table.
"""

from __future__ import annotations

import itertools

from .actions import ModuleAction, is_module_algebra
from .algebra import FiniteAlgebra
from .coalgebra import FiniteCoalgebra
from .errors import PreconditionError, ShapeError
from .linalg import Mat, ONE, Record, ZERO, basis_terms
from .report import Report, ReportBuilder
from .smash import build_smash
from .weakhopf import WeakHopfAlgebra


class FiniteGroupoid(Record):
    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: dict[str, str]
    tgt: dict[str, str]
    comp: dict[tuple[str, str], str]
    inv: dict[str, str]
    identities: dict[str, str]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise ShapeError("duplicate object identifiers")
        if len(set(self.morphisms)) != len(self.morphisms):
            raise ShapeError("duplicate morphism identifiers")
        known = set(self.morphisms)
        objs = set(self.objects)
        pairs = {k for k in self.comp if isinstance(k, tuple) and len(k) == 2 and k[0] in known and k[1] in known}
        for name, table, keys, what in (
            ("src", self.src, known, "a morphism"), ("tgt", self.tgt, known, "a morphism"),
            ("inv", self.inv, known, "a morphism"), ("identities", self.identities, objs, "an object"),
            ("comp", self.comp, pairs, "a pair of morphisms"),
        ):
            stray = set(table) - keys
            if stray:
                raise ShapeError(f"{name} table has an entry for {min(stray)!r}, which is not {what}")
        for m in self.morphisms:
            if m not in self.src or m not in self.tgt or m not in self.inv:
                raise ShapeError(f"morphism {m!r} missing from a structure table")
            if self.src[m] not in objs or self.tgt[m] not in objs:
                raise ShapeError(f"morphism {m!r} has an unknown endpoint")
            if self.inv[m] not in known:
                raise ShapeError(f"inverse of {m!r} is not a morphism")
        for o in self.objects:
            if o not in self.identities or self.identities[o] not in known:
                raise ShapeError(f"object {o!r} has no identity morphism")
        for g in self.morphisms:
            for h in self.morphisms:
                composable = self.src[g] == self.tgt[h]
                present = (g, h) in self.comp
                if composable and not present:
                    raise ShapeError(f"missing composition entry for ({g!r}, {h!r})")
                if present and not composable:
                    raise ShapeError(f"spurious composition entry for ({g!r}, {h!r})")
                if present and self.comp[(g, h)] not in known:
                    raise ShapeError(f"composition of ({g!r}, {h!r}) is not a morphism")

    def index(self, m: str) -> int:
        return self.morphisms.index(m)


def validate_groupoid(g: FiniteGroupoid) -> Report:
    """Category and inversion axioms evaluated over the whole table."""

    def identity_endpoints():
        for o in g.objects:
            identity = g.identities[o]
            if g.src[identity] != o or g.tgt[identity] != o:
                yield (g.objects.index(o),), (g.src[identity], g.tgt[identity]), (o, o)

    def identity_laws():
        for m in g.morphisms:
            left = g.comp.get((g.identities[g.tgt[m]], m))
            right = g.comp.get((m, g.identities[g.src[m]]))
            if left != m or right != m:
                yield (g.index(m),), (left, right), (m, m)

    def composition_endpoints():
        for (a, b), c in g.comp.items():
            if g.src[c] != g.src[b] or g.tgt[c] != g.tgt[a]:
                yield (g.index(a), g.index(b)), (g.src[c], g.tgt[c]), (g.src[b], g.tgt[a])

    def composition_associativity():  # the composable triples, in morphism order
        into: dict[str, list[str]] = {}  # object: the morphisms with that target
        for m in g.morphisms:
            into.setdefault(g.tgt[m], []).append(m)
        for a in g.morphisms:
            for b in into.get(g.src[a], ()):
                ab = g.comp[(a, b)]
                for c in into.get(g.src[b], ()):
                    bc = g.comp[(b, c)]
                    # corrupted tables may leave one side undefined; that is
                    # already an endpoint violation and certainly not associative
                    left = g.comp.get((ab, c))
                    right = g.comp.get((a, bc))
                    if left is None or right is None or left != right:
                        yield (g.index(a), g.index(b), g.index(c)), left, right

    def inverse_laws():
        for m in g.morphisms:
            i = g.inv[m]
            if g.src[i] != g.tgt[m] or g.tgt[i] != g.src[m]:
                yield "inverse_endpoints", (g.index(m),), (g.src[i], g.tgt[i]), (g.tgt[m], g.src[m])
            elif g.comp[(i, m)] != g.identities[g.src[m]] or g.comp[(m, i)] != g.identities[g.tgt[m]]:
                yield (
                    "inverse_laws",
                    (g.index(m),),
                    (g.comp[(i, m)], g.comp[(m, i)]),
                    (g.identities[g.src[m]], g.identities[g.tgt[m]]),
                )

    rb = ReportBuilder()
    rb.check("identity_endpoints", identity_endpoints())
    rb.check("identity_laws", identity_laws())
    rb.check("composition_endpoints", composition_endpoints())
    rb.check("composition_associativity", composition_associativity())
    rb.check_laws(("inverse_endpoints", "inverse_laws"), inverse_laws())
    return rb.build()


def groupoid_algebra(g: FiniteGroupoid) -> WeakHopfAlgebra:
    """Weak Hopf algebra on the morphism basis of a valid groupoid with at least one morphism."""
    report = validate_groupoid(g)
    if not report.ok:
        raise PreconditionError("groupoid table is invalid: " + ", ".join(report.failed_names()))
    if not g.morphisms:
        raise PreconditionError("groupoid has no morphisms: its algebra would have dimension 0")
    n = len(g.morphisms)
    index = {m: i for i, m in enumerate(g.morphisms)}
    mult = tuple(
        tuple(((index[g.comp[(a, b)]], 1),) if g.src[a] == g.tgt[b] else () for b in g.morphisms) for a in g.morphisms
    )
    unit = [ZERO] * n
    for o in g.objects:
        unit[index[g.identities[o]]] = ONE
    alg = FiniteAlgebra.from_terms(n, mult, tuple(unit))
    coalg = FiniteCoalgebra.from_terms(n, tuple(((i, i, 1),) for i in range(n)), (ONE,) * n)

    antipode = Mat.from_terms(n, n, tuple(basis_terms(index[g.inv[m]]) for m in g.morphisms))
    return WeakHopfAlgebra(alg, coalg, antipode)


def is_isotropy_disjoint_union(g: FiniteGroupoid) -> bool:
    """True iff every morphism is an endomorphism."""
    return all(g.src[m] == g.tgt[m] for m in g.morphisms)


def isotropy_action_check(g: FiniteGroupoid, m: ModuleAction) -> tuple[bool, bool]:
    """Conjugation on A # H versus the shape of the groupoid.

    Returns two independently computed verdicts: whether the conjugation
    candidate h . (x # g) = h . x # h g h^{-1} is a genuine module-algebra
    action on the smash product, and whether the groupoid is a disjoint
    union of its isotropy groups.  The caller asserts they agree.

    The first is `smash_inner_battery`'s `module_algebra`, read from the
    smash product kept on m and the law verdicts kept on its candidate; the
    second comes from the composition table alone, from which m's algebra
    is also rebuilt.
    """
    if m.hopf != groupoid_algebra(g):
        raise PreconditionError("action is not defined over this groupoid's algebra")
    return is_module_algebra(build_smash(m).inner_candidate), is_isotropy_disjoint_union(g)


def component_groupoid(prefix: str, objects: int, isotropy: int) -> FiniteGroupoid:
    """Connected groupoid: pair groupoid on the objects times a cyclic group.

    Morphism (p, q, a) runs from object q to object p and carries a cyclic
    label a; composition adds labels modulo the isotropy order.
    """
    if objects < 1 or isotropy < 1:
        raise PreconditionError("components need at least one object and label")
    objs = tuple(f"{prefix}o{i}" for i in range(objects))
    names: dict[tuple[int, int, int], str] = {}
    for p in range(objects):
        for q in range(objects):
            for a in range(isotropy):
                names[(p, q, a)] = f"{prefix}m{p}_{q}_{a}"
    morphisms = tuple(names[key] for key in sorted(names))
    src = {names[(p, q, a)]: objs[q] for (p, q, a) in names}
    tgt = {names[(p, q, a)]: objs[p] for (p, q, a) in names}
    comp = {}
    for (p, q, a) in names:
        for (q2, r, b) in names:
            if q == q2:
                comp[(names[(p, q, a)], names[(q2, r, b)])] = names[(p, r, (a + b) % isotropy)]
    inv = {names[(p, q, a)]: names[(q, p, (-a) % isotropy)] for (p, q, a) in names}
    identities = {objs[o]: names[(o, o, 0)] for o in range(objects)}
    return FiniteGroupoid(objs, morphisms, src, tgt, comp, inv, identities)


def disjoint_union(parts: list[FiniteGroupoid]) -> FiniteGroupoid:
    objects = tuple(o for part in parts for o in part.objects)
    morphisms = tuple(m for part in parts for m in part.morphisms)
    src = {}
    tgt = {}
    comp = {}
    inv = {}
    identities = {}
    for part in parts:
        src.update(part.src)
        tgt.update(part.tgt)
        comp.update(part.comp)
        inv.update(part.inv)
        identities.update(part.identities)
    return FiniteGroupoid(objects, morphisms, src, tgt, comp, inv, identities)


def groupoid_family(max_objects: int = 3, max_isotropy: int = 3) -> list[FiniteGroupoid]:
    """Structured batch of small groupoids covering both isotropy verdicts.

    Components are pair groupoids crossed with cyclic groups; the family
    enumerates object-count partitions with isotropy assignments up to
    reordering of equal-sized components.
    """
    def partitions(n: int, cap: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        out = []
        for first in range(min(n, cap), 0, -1):
            for rest in partitions(n - first, first):
                out.append((first,) + rest)
        return out

    family = []
    for total in range(1, max_objects + 1):
        for shape in partitions(total, total):
            pools = []
            for size, block in itertools.groupby(shape):
                count = len(list(block))
                pools.append(
                    list(itertools.combinations_with_replacement(range(1, max_isotropy + 1), count))
                )
            for assignment in itertools.product(*pools):
                orders = [k for group in assignment for k in group]
                parts = [
                    component_groupoid(f"c{i}_", size, order)
                    for i, (size, order) in enumerate(zip(shape, orders))
                ]
                family.append(disjoint_union(parts))
    return family
