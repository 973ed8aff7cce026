"""Seeded benchmark inputs and the mathematical facts pinned for them.

Every input is built from public constructors and then has its basis
permuted by a permutation drawn from the seed.  A basis permutation is an
isomorphism, so every fact in FACTS holds for every seed; only the
numbers inside the structure tensors (and hence the work done by
elimination) move.

Names: ``cK_oO`` is ``component_groupoid`` with O objects and isotropy
order K (dimension O*O*K); ``h4xp2`` and ``h4xh4`` are tensor products
of corpus members; ``iso_union`` is the disjoint union of three
one-object cyclic groups of order 6.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from whk import FiniteAlgebra, FiniteCoalgebra, FiniteGroupoid, Mat, WeakHopfAlgebra
from whk.corpus import corpus_entry
from whk.groupoid import component_groupoid, disjoint_union, groupoid_algebra


@dataclass(frozen=True)
class Facts:
    """Seed-independent verdicts for one input."""

    dim: int
    h_t_dim: int
    h_s_dim: int
    quantum_commutative: bool
    filtration_length: int
    isotropy_union: bool | None  # None: not groupoid-backed


FACTS = {
    "c2_o3": Facts(18, 3, 3, False, 0, False),
    "c3_o3": Facts(27, 3, 3, False, 0, False),
    "h4xp2": Facts(16, 2, 2, False, 1, None),
    "h4xh4": Facts(16, 1, 1, True, 2, None),
    "iso_union": Facts(18, 3, 3, True, 0, True),
}


@dataclass(frozen=True)
class Input:
    name: str
    wha: WeakHopfAlgebra
    groupoid: FiniteGroupoid | None

    @property
    def facts(self) -> Facts:
        return FACTS[self.name]


def permutation(seed: int, name: str, n: int) -> list[int]:
    """The seed's basis permutation for one input (string seeding is stable)."""
    perm = list(range(n))
    random.Random(f"{seed}:{name}").shuffle(perm)
    return perm


def permuted_groupoid(g: FiniteGroupoid, perm: list[int]) -> FiniteGroupoid:
    """Same groupoid, morphisms listed in permuted order (new basis order)."""
    morphisms = tuple(g.morphisms[p] for p in perm)
    return FiniteGroupoid(g.objects, morphisms, g.src, g.tgt, g.comp, g.inv, g.identities)


def permuted_wha(h: WeakHopfAlgebra, perm: list[int]) -> WeakHopfAlgebra:
    """Transport h along the basis relabelling new i <- old perm[i]."""
    n = h.dim
    mult = tuple(
        tuple(tuple(h.alg.mult[perm[i]][perm[j]][perm[k]] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    comult = tuple(
        tuple(tuple(h.coalg.comult[perm[i]][perm[j]][perm[k]] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    alg = FiniteAlgebra(n, mult, tuple(h.alg.unit[p] for p in perm))
    coalg = FiniteCoalgebra(n, comult, tuple(h.coalg.counit[p] for p in perm))
    s = h.antipode.entries
    antipode = Mat(n, n, tuple(tuple(s[perm[i]][perm[j]] for j in range(n)) for i in range(n)))
    return WeakHopfAlgebra(alg, coalg, antipode)


def tensor_wha(h: WeakHopfAlgebra, k: WeakHopfAlgebra) -> WeakHopfAlgebra:
    """H (x) K on the flat basis i * dim K + j, built entry by entry."""
    nh, nk = h.dim, k.dim
    n = nh * nk
    pairs = [divmod(i, nk) for i in range(n)]

    def tensor(th, tk):
        return tuple(
            tuple(
                tuple(th[a][c][e] * tk[b][d][f] for e, f in pairs)
                for c, d in pairs
            )
            for a, b in pairs
        )

    alg = FiniteAlgebra(
        n,
        tensor(h.alg.mult, k.alg.mult),
        tuple(h.alg.unit[a] * k.alg.unit[b] for a, b in pairs),
    )
    coalg = FiniteCoalgebra(
        n,
        tensor(h.coalg.comult, k.coalg.comult),
        tuple(h.coalg.counit[a] * k.coalg.counit[b] for a, b in pairs),
    )
    sh, sk = h.antipode.entries, k.antipode.entries
    antipode = Mat(n, n, tuple(tuple(sh[a][c] * sk[b][d] for c, d in pairs) for a, b in pairs))
    return WeakHopfAlgebra(alg, coalg, antipode)


def _groupoid(name: str) -> FiniteGroupoid:
    if name == "iso_union":
        return disjoint_union([component_groupoid(f"g{i}_", 1, 6) for i in range(3)])
    isotropy, objects = (int(part[1:]) for part in name.split("_"))
    return component_groupoid(f"{name}_", objects, isotropy)


def build(name: str, seed: int) -> Input:
    """The named input with the seed's basis permutation applied."""
    if name in ("h4xp2", "h4xh4"):
        other = "p2" if name == "h4xp2" else "h4"
        base = tensor_wha(corpus_entry("h4").wha, corpus_entry(other).wha)
        return Input(name, permuted_wha(base, permutation(seed, name, base.dim)), None)
    g = _groupoid(name)
    g = permuted_groupoid(g, permutation(seed, name, len(g.morphisms)))
    return Input(name, groupoid_algebra(g), g)
