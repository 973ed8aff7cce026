"""The registry of the laws the library declares with a premise.

A `report.Law` with a premise passes on its spans without walking its
tuples, so each one is registered here: the kind of structure it is
declared on, the library function that declares it, and its every-tuple
reference in `law_reference`.  `check_declared` asks three routes for the
failures of every registered law of one structure: the law as declared,
the same law with its premise removed, so that the walk runs whatever the
spans say, and the reference.  All three must agree, or raise the same
library error.  `test_law_rows.test_every_law_with_a_premise_is_registered`
keeps the registry complete.
"""

from whk import actions, algebra, coalgebra, smash, weakhopf
from whk.errors import DimensionError, InvariantViolation, PreconditionError, ShapeError
from whk.report import Law

import law_reference as reference

LAWS = {  # names: (kind of structure, declaration, reference)
    ("associativity",): ("algebra", algebra._associativity, reference.algebra_associativity),
    ("coassociativity",): ("coalgebra", coalgebra._coassociativity, reference.coassociativity),
    ("comult_multiplicative",): ("wha", weakhopf._comult_multiplicative, reference.comult_multiplicative),
    ("anti_algebra_morphism",): ("wha", weakhopf._anti_algebra_morphism, reference.anti_algebra_morphism),
    weakhopf._EPS_LAWS: ("wha", weakhopf._eps_laws, reference.eps_laws),
    ("action_associativity",): ("action", actions._associativity, reference.action_associativity),
    ("action_multiplicative",): ("action", actions._multiplicativity, reference.action_multiplicativity),
    ("algebra_embedding_multiplicative",): (
        "smash", lambda s: smash._embedding_laws(s)[0], reference.algebra_embedding_multiplicative,
    ),
    ("hopf_embedding_multiplicative",): (
        "smash", lambda s: smash._embedding_laws(s)[1], reference.hopf_embedding_multiplicative,
    ),
}

LIBRARY_ERRORS = (DimensionError, InvariantViolation, PreconditionError, ShapeError)


def outcome(fn):
    """fn(), or the type and message of the library error it raises."""
    try:
        return "value", fn()
    except LIBRARY_ERRORS as exc:
        return type(exc).__name__, str(exc)


def walked(law):
    """The failures of law with its premise removed: every tuple of its shape is evaluated."""
    return list(Law(law.names, law.rows, law.shape).failures())


def named(names, failures):
    """A reference's failures as (name, t, lhs, rhs); a one-law reference lists (t, lhs, rhs)."""
    return list(failures) if len(names) > 1 else [(names[0], *failure) for failure in failures]


def check_declared(label, kind, x):
    """Every registered law of this kind declared on x, by its three routes; returns how many fail."""
    failing = 0
    for names, (of, declare, want) in LAWS.items():
        if of != kind:
            continue
        got = outcome(lambda: list(declare(x).failures()))
        assert got == outcome(lambda: walked(declare(x))) == outcome(lambda: named(names, want(x))), (label, names)
        failing += got[0] == "value" and bool(got[1])
    return failing
