from fractions import Fraction

from whk.report import SHOWN, Law, ReportBuilder, holds_on, law, render


def recorded(rows, calls):
    """rows, appending the leading indices of each row it evaluates to calls."""
    def wrapped(*lead):
        calls.append(lead)
        return rows(*lead)
    return wrapped


def rows_of(*sides):
    """Each list of scalars as a law's side holds it: {k: {0: x}} over its nonzero entries x only."""
    return tuple({k: {0: x} for k, x in enumerate(side) if x} for side in sides)


def scalar(side):
    """The scalar a side {0: x} holds; a side left out of its row is {}, which is 0."""
    return side.get(0, 0)


def walk(rows, shape, premise=None, spans=()):
    """The failures (t, lhs, rhs) of the one law with these rows."""
    return (failure[1:] for failure in law("law", rows, shape, premise, spans).failures())


def test_law_failures_walks_the_shape_in_lexicographic_order():
    calls = []
    rows = recorded(lambda i, j: rows_of([(i + j * k) % 3 for k in range(2)], [0, 0]), calls)
    every = [(i, j, k) for i in range(2) for j in range(3) for k in range(2)]
    failures = [(t, scalar(lhs), scalar(rhs)) for t, lhs, rhs in walk(rows, (2, 3, 2))]
    assert calls == [(i, j) for i in range(2) for j in range(3)]
    assert failures == [(t, (t[0] + t[1] * t[2]) % 3, 0) for t in every if (t[0] + t[1] * t[2]) % 3]


def test_law_failures_of_an_empty_and_a_nullary_shape():
    assert list(walk(lambda: ({}, {}), (0,))) == []
    # a law of no argument is one row of one entry
    assert list(walk(lambda: rows_of([0], [1]), (1,))) == [((0,), {}, {0: 1})]


def test_a_row_left_out_on_one_side_only_is_shown_as_the_zero_vector():
    # at k = 1 the left side cancelled and is missing from its dict; at k = 2 the right one
    lhs, rhs = {0: {0: 1}, 2: {1: 2}}, {0: {0: 1}, 1: {0: -1, 2: 1}}
    assert list(walk(lambda: (lhs, rhs), (3,))) == [((1,), {}, {0: -1, 2: 1}), ((2,), {1: 2}, {})]
    # the same with several laws on the tuples: the equal pair yields nothing
    assert list(Law(("a", "b"), lambda: ((lhs, rhs), (rhs, rhs)), (3,)).failures()) == [
        ("a", (1,), {}, {0: -1, 2: 1}),
        ("a", (2,), {1: 2}, {}),
    ]


def test_law_failures_evaluates_nothing_when_passes_holds():
    calls = []
    rows = recorded(lambda i: rows_of([i, i], [1, 2]), calls)
    assert list(walk(rows, (2, 2), premise=lambda: True)) == []
    assert calls == []


def test_interleaved_failures_evaluates_nothing_when_passes_holds():
    calls = []
    rows = recorded(lambda i: (rows_of([i], [1]), rows_of([2], [2])), calls)  # law "a" fails at i = 0 only
    assert list(Law(("a", "b"), rows, (2, 1), lambda: True).failures()) == []
    assert calls == []
    assert list(Law(("a", "b"), rows, (2, 1), lambda: False).failures()) == [("a", (0, 0), {}, {0: 1})]
    assert calls == [(0,), (1,)]


def test_law_failures_evaluate_no_row_when_the_premise_and_every_span_hold():
    calls, asked = [], []
    rows = recorded(lambda i: (rows_of([i], [1]), rows_of([2], [2])), calls)  # law "a" fails at i = 0 only
    span = recorded(lambda i: rows_of([i], [i]), asked)
    laws = Law(("a", "b"), rows, (2, 1), lambda: True, [(span, [(0,), (1,)])])
    assert list(laws.failures()) == [] and laws.holds()
    assert calls == [] and asked == [(0,), (1,)] * 2  # the span is tested once by each call
    # a premise that fails, a span that fails, or no premise at all: every tuple is walked
    failing_span = [(lambda i: rows_of([i], [0]), [(0,), (1,)])]
    for premise, spans in ((lambda: False, ()), (lambda: True, failing_span), (None, ())):
        calls.clear()
        laws = Law(("a", "b"), rows, (2, 1), premise, spans)
        assert list(laws.failures()) == [("a", (0, 0), {}, {0: 1})] and not laws.holds()
        assert calls[:2] == [(0,), (1,)]


def test_creating_the_iterator_evaluates_nothing_not_even_passes():
    calls, asked = [], []
    rows = recorded(lambda i: rows_of([i, i], [-1, -1]), calls)
    failures = walk(rows, (2, 2), lambda: asked.append(1) or False)
    assert calls == [] and asked == []
    assert next(failures)[0] == (0, 0)
    assert asked == [1] and calls == [(0,)]
    assert [t for t, _, _ in failures] == [(0, 1), (1, 0), (1, 1)]
    assert calls == [(0,), (1,)]


def test_holds_on_stops_at_the_first_difference():
    calls = []
    rows = recorded(lambda i, j: rows_of([i, j], [i, i]), calls)
    assert not holds_on(rows, [(0, 0), (1, 2), (2, 2)])
    assert calls == [(0, 0), (1, 2)]
    assert holds_on(rows, [(3, 3), (4, 4)])
    assert holds_on(rows, [])


def test_render_is_canonical_in_key_order_and_value_type():
    assert render({2: Fraction(-1, 2), 0: 1}) == render({0: Fraction(1), 2: Fraction(-1, 2)}) == "{0: 1, 2: -1/2}"
    assert render({(1, 0): 2, (0, 3): 1}) == "{(0, 3): 1, (1, 0): 2}"
    assert render({3: 3}) == render({3: Fraction(3)}) == "{3: 3}"


def test_render_of_the_zero_vector_pairs_scalars_and_strings():
    assert render({}) == render({1: 0, 0: Fraction(0)}) == "{}"
    # a tuple of scalars stays a tuple, as `_counit_mult_failures` hands one over
    assert render((Fraction(1), 0)) == "(1, 0)" and render(Fraction(-2, 3)) == "-2/3"
    assert render(({0: 1}, {})) == "({0: 1}, {})"
    # the sides of the groupoid laws are morphism and object names, or None for a missing composite
    assert render(("ab", "b")) == "(ab, b)" and render("member") == "member" and render(None) == "None"


def test_a_check_keeps_its_first_counterexamples_and_counts_the_rest():
    rb = ReportBuilder()
    rb.check_laws(("many", "few", "none"), (
        (name, (k,), {0: k}, {})
        for k in range(SHOWN + 3) for name in ("many", "few") if name == "many" or k < 2
    ))
    report = rb.build()
    assert [(item.name, item.counterexample.indices) for item in report.items if item.counterexample] == [
        *[("many", (0,)), ("few", (0,)), ("many", (1,)), ("few", (1,))],
        *[("many", (k,)) for k in range(2, SHOWN)],
    ]
    lines = report.render().splitlines()
    assert lines[-3:] == [f"check many: FAIL, {SHOWN + 3} failures, {SHOWN} shown", "check none: ok", "verdict: fail"]
    assert sum(line.startswith("check many: FAIL at") for line in lines) == SHOWN
    assert report.to_dict()["items"][-2] == {
        "name": "many", "passed": False, "counterexample": None, "total": SHOWN + 3, "shown": SHOWN,
    }
    # at the cap, and through summary as a hand-recorded law uses it, no total is added
    rb = ReportBuilder()
    for k in range(SHOWN):
        rb.record_failure("law", (k,), k, 0)
    rb.summary("law", False)
    assert [item.total for item in rb.build().items] == [None] * SHOWN
