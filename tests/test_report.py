from whk.linalg import densify
from whk.report import holds_on, interleaved_failures, law_failures


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


def test_law_failures_walks_the_shape_in_lexicographic_order():
    calls = []
    rows = recorded(lambda i, j: rows_of([(i + j * k) % 3 for k in range(2)], [0, 0]), calls)
    every = [(i, j, k) for i in range(2) for j in range(3) for k in range(2)]
    failures = list(law_failures(rows, (2, 3, 2), scalar))
    assert calls == [(i, j) for i in range(2) for j in range(3)]
    assert failures == [(t, (t[0] + t[1] * t[2]) % 3, 0) for t in every if (t[0] + t[1] * t[2]) % 3]


def test_law_failures_of_an_empty_and_a_nullary_shape():
    assert list(law_failures(lambda: ({}, {}), (0,), str)) == []
    # a law of no argument is one row of one entry
    assert list(law_failures(lambda: rows_of([0], [1]), (1,), lambda side: str(scalar(side)))) == [((0,), "0", "1")]


def test_a_row_left_out_on_one_side_only_is_shown_as_the_zero_vector():
    # at k = 1 the left side cancelled and is missing from its dict; at k = 2 the right one
    lhs, rhs = {0: {0: 1}, 2: {1: 2}}, {0: {0: 1}, 1: {0: -1, 2: 1}}
    assert list(law_failures(lambda: (lhs, rhs), (3,), lambda side: densify(side, 3))) == [
        ((1,), (0, 0, 0), (-1, 0, 1)),
        ((2,), (0, 2, 0), (0, 0, 0)),
    ]
    # the same with several laws on the tuples: the equal pair yields nothing
    assert list(interleaved_failures("ab", lambda: ((lhs, rhs), (rhs, rhs)), (3,), len)) == [
        ("a", (1,), 0, 2),
        ("a", (2,), 1, 0),
    ]


def test_law_failures_evaluates_nothing_when_passes_holds():
    calls, shown = [], []
    rows = recorded(lambda i: rows_of([i, i], [1, 2]), calls)
    assert list(law_failures(rows, (2, 2), shown.append, passes=lambda: True)) == []
    assert calls == [] and shown == []


def test_creating_the_iterator_evaluates_nothing_not_even_passes():
    calls, asked = [], []
    rows = recorded(lambda i: rows_of([i, i], [-1, -1]), calls)
    failures = law_failures(rows, (2, 2), str, lambda: asked.append(1) or False)
    assert calls == [] and asked == []
    assert next(failures)[0] == (0, 0)
    assert asked == [1] and calls == [(0,)]
    assert [t for t, _, _ in failures] == [(0, 1), (1, 0), (1, 1)]
    assert calls == [(0,), (1,)]


def test_show_is_applied_only_to_failing_tuples():
    shown = []

    def show(side):
        shown.append(scalar(side))
        return f"<{scalar(side)}>"

    failures = list(law_failures(lambda: rows_of([0, 1, 2], [1, 1, 1]), (3,), show))
    assert failures == [((0,), "<0>", "<1>"), ((2,), "<2>", "<1>")]
    assert shown == [0, 1, 2, 1]
    shown.clear()
    # an equal row is passed over whole
    assert list(law_failures(lambda i: rows_of([i, 1], [i, 1 + i]), (2, 2), show)) == [((1, 1), "<1>", "<2>")]
    assert shown == [1, 2]


def test_holds_on_stops_at_the_first_difference():
    calls = []
    rows = recorded(lambda i, j: rows_of([i, j], [i, i]), calls)
    assert not holds_on(rows, [(0, 0), (1, 2), (2, 2)])
    assert calls == [(0, 0), (1, 2)]
    assert holds_on(rows, [(3, 3), (4, 4)])
    assert holds_on(rows, [])
