"""Pass/fail reports with replayable counterexamples.

Every validator in the library returns a Report: a flat list of named
checks, each either passing or carrying the basis indices and the two
evaluated sides that disagree.  Reports are deterministic: identical
inputs produce identical item sequences.

A law on basis tuples is handed over by rows: rows(*lead) evaluates both
sides at every tuple (*lead, k) along the last index k in one call and
returns them as two dicts of nonzero rows, {k: side at k}.  The kernels
`linalg.apply_each`, `combine_each` and `sweedler_each` build them, reading
each table through its support (`FiniteAlgebra.mult_support`,
`transposed_support`, `ModuleAction.act_support`: the nonzero entries per
outer index), so a zero row is never built or compared and the structure
constants are read once per row, not once per tuple.  A `Law` declares
one or several laws on the same tuples once: their names, rows and shape,
and, where a closure argument lets a spanning set decide them, a premise
and the (rows, leads) tests of the spans, each argued in the docstring of
the function that declares it.  `Law.failures` is the one procedure: it
evaluates no row of the walk when the premise and every span hold, and
otherwise lists the failing tuples in lexicographic order, one tuple's
failures together, walking k in ascending order and handing a side
missing from its dict over as the zero vector {}.  `holds_on` is the one
generator test: it compares the dicts.

Every law hands its two sides over exactly as it computed them, and
`render` is the one notation they are printed in: a sparse vector with its
keys ascending and its values as reduced fractions, so the key order and
the value types inside the kernels are not observable.  A builder keeps at
most `SHOWN` counterexamples per check and counts the rest; a check with
more failures ends with one item that carries the total, so the output of
a report is bounded by its number of checks.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import Record

# a failing basis tuple of one law and its two sides
Failure = tuple[tuple[int, ...], object, object]
# both sides of a law at fixed leading indices, as two {last index: nonzero side} dicts
Rows = Callable[..., tuple[dict, dict]]
# the counterexamples a report keeps per check
SHOWN = 8


class Law(Record):
    """Laws on the same basis tuples, declared once.  rows(*lead) returns one pair of dicts of nonzero
    sides over the last index per name; a law without a premise is always walked."""

    names: tuple[str, ...]
    rows: Callable[..., Sequence[tuple[dict, dict]]]
    shape: tuple[int, ...]
    premise: Callable[[], bool] | None = None
    spans: Sequence[tuple[Rows, Sequence[tuple[int, ...]]]] = ()

    def failures(self) -> Iterator[tuple[str, tuple[int, ...], dict, dict]]:
        """(name, t, lhs, rhs): nothing when the premise and every span hold; otherwise, at every tuple t
        of `shape` in lexicographic order, each law whose two sides differ at t, in the order of `names`.
        A lead at which every pair is equal is passed over whole."""
        if self.premise is not None and self.premise() and all(holds_on(*span) for span in self.spans):
            return
        for lead in product(*map(range, self.shape[:-1])):
            sides = self.rows(*lead)
            if all(lhs == rhs for lhs, rhs in sides):
                continue
            for k in range(self.shape[-1]):
                for name, (lhs, rhs) in zip(self.names, sides):
                    left, right = lhs.get(k, {}), rhs.get(k, {})
                    if left != right:
                        yield name, (*lead, k), left, right

    def holds(self) -> bool:
        """Whether no tuple fails, stopping at the first failure of the walk."""
        return next(self.failures(), None) is None


def law(name: str, rows: Rows, shape: tuple[int, ...], premise: Callable[[], bool] | None = None, spans=()) -> Law:
    """The `Law` of one name, whose rows(*lead) returns its one pair of dicts."""
    return Law((name,), lambda *lead: (rows(*lead),), shape, premise, spans)


def holds_on(rows: Rows, leads: Iterable[tuple[int, ...]]) -> bool:
    """Whether the two dicts of rows(*lead) are equal on every lead, stopping at the first row that differs."""
    return all(lhs == rhs for lhs, rhs in (rows(*lead) for lead in leads))


def render(side: object) -> str:
    """A failure side as a report prints it.  A dict is a vector: {k: v, ...} over its nonzero
    entries, keys ascending, values by str (an int or a reduced Fraction, 2 or -1/2); the zero
    vector is {}.  A tuple is the tuple of its rendered sides; anything else, a scalar, a
    string or None, is str."""
    if isinstance(side, dict):
        return "{" + ", ".join(f"{k}: {render(side[k])}" for k in sorted(side) if side[k]) + "}"
    if isinstance(side, tuple):
        return "(" + ", ".join(map(render, side)) + ")"
    return str(side)


class Counterexample(Record):
    indices: tuple[int, ...]
    lhs: str
    rhs: str


class Item(Record):
    name: str
    passed: bool
    counterexample: Counterexample | None = None
    # on the item after a check's SHOWN counterexamples: how many tuples failed in all
    total: int | None = None


class Report(Record):
    items: tuple[Item, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def failures(self) -> tuple[Item, ...]:
        return tuple(item for item in self.items if not item.passed)

    def failed_names(self) -> tuple[str, ...]:
        seen: list[str] = []
        for item in self.failures():
            if item.name not in seen:
                seen.append(item.name)
        return tuple(seen)

    def merged(self, other: "Report") -> "Report":
        return Report(self.items + other.items)

    def to_dict(self) -> dict:
        return {"verdict": "pass" if self.ok else "fail", "items": [_item_dict(item) for item in self.items]}

    def render(self) -> str:
        lines = []
        for item in self.items:
            if item.passed:
                lines.append(f"check {item.name}: ok")
            elif item.total is not None:
                lines.append(f"check {item.name}: FAIL, {item.total} failures, {SHOWN} shown")
            elif item.counterexample is None:
                lines.append(f"check {item.name}: FAIL")
            else:
                ce = item.counterexample
                idx = ",".join(str(i) for i in ce.indices)
                lines.append(
                    f"check {item.name}: FAIL at ({idx}): lhs={ce.lhs} rhs={ce.rhs}"
                )
        lines.append(f"verdict: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _item_dict(item: Item) -> dict:
    ce = item.counterexample
    out = {
        "name": item.name,
        "passed": item.passed,
        "counterexample": None if ce is None else {"indices": list(ce.indices), "lhs": ce.lhs, "rhs": ce.rhs},
    }
    if item.total is not None:
        out.update(total=item.total, shown=SHOWN)
    return out


class ReportBuilder:
    """Accumulates items; a failing check keeps its first `SHOWN` offending tuples
    and counts every one."""

    def __init__(self) -> None:
        self._items: list[Item] = []
        self._failures: dict[str, int] = {}

    def add(self, name: str, passed: bool, counterexample: Counterexample | None = None) -> None:
        self._items.append(Item(name, passed, None if passed else counterexample))

    def record_failure(self, name: str, indices: tuple[int, ...], lhs: object, rhs: object) -> None:
        """Count one failure of `name`, and keep it, its sides rendered, while it is among the first `SHOWN`."""
        count = self._failures[name] = self._failures.get(name, 0) + 1
        if count <= SHOWN:
            self._items.append(Item(name, False, Counterexample(indices, render(lhs), render(rhs))))

    def check(self, name: str, failures: Iterable[Failure]) -> None:
        """Record every (indices, lhs, rhs) failure of one law, then its summary."""
        self.check_laws((name,), ((name, *failure) for failure in failures))

    def decide(self, law: Law) -> None:
        """Record the failures of every law of `law`, then their summaries."""
        self.check_laws(law.names, law.failures())

    def check_laws(
        self, names: Sequence[str], failures: Iterable[tuple[str, tuple[int, ...], object, object]]
    ) -> None:
        """Record (name, indices, lhs, rhs) failures of several laws in the order
        they come, so one basis tuple's failures stay together, then each law's
        summary in the order of `names`."""
        for name, indices, lhs, rhs in failures:
            self.record_failure(name, indices, lhs, rhs)
        for name in names:
            self.summary(name, name not in self._failures)

    def summary(self, name: str, ok: bool) -> None:
        """The item that closes a check: a pass, or the failure total when more than `SHOWN` were recorded."""
        if ok:
            self._items.append(Item(name, True, None))
        elif self._failures.get(name, 0) > SHOWN:
            self._items.append(Item(name, False, None, self._failures[name]))

    def extend(self, report: Report) -> None:
        self._items.extend(report.items)

    def build(self) -> Report:
        return Report(tuple(self._items))
