from whk.report import holds_on, law_failures


def recorded(sides, calls):
    """sides, appending each tuple it is evaluated at to calls."""
    def wrapped(*t):
        calls.append(t)
        return sides(*t)
    return wrapped


def test_law_failures_walks_the_shape_in_lexicographic_order():
    calls = []
    sides = recorded(lambda i, j, k: ((i + j * k) % 3, 0), calls)
    every = [(i, j, k) for i in range(2) for j in range(3) for k in range(2)]
    failures = list(law_failures(sides, (2, 3, 2), lambda side: side))
    assert calls == every
    assert failures == [(t, (t[0] + t[1] * t[2]) % 3, 0) for t in every if (t[0] + t[1] * t[2]) % 3]


def test_law_failures_of_an_empty_and_a_nullary_shape():
    assert list(law_failures(lambda i: (0, 1), (0,), str)) == []
    assert list(law_failures(lambda: (0, 1), (), str)) == [((), "0", "1")]


def test_law_failures_evaluates_nothing_when_passes_holds():
    calls, shown = [], []
    sides = recorded(lambda i, j: (i, j + 1), calls)
    assert list(law_failures(sides, (2, 2), shown.append, passes=lambda: True)) == []
    assert calls == [] and shown == []


def test_creating_the_iterator_evaluates_nothing_not_even_passes():
    calls, asked = [], []
    failures = law_failures(recorded(lambda i: (i, -1), calls), (2,), str, lambda: asked.append(1) or False)
    assert calls == [] and asked == []
    assert [t for t, _, _ in failures] == [(0,), (1,)]
    assert asked == [1] and calls == [(0,), (1,)]


def test_show_is_applied_only_to_failing_tuples():
    shown = []

    def show(side):
        shown.append(side)
        return f"<{side}>"

    assert list(law_failures(lambda i: (i, 1), (3,), show)) == [((0,), "<0>", "<1>"), ((2,), "<2>", "<1>")]
    assert shown == [0, 1, 2, 1]


def test_holds_on_stops_at_the_first_difference():
    calls = []
    sides = recorded(lambda i, j: (i, j), calls)
    assert not holds_on(sides, [(0, 0), (1, 2), (2, 2)])
    assert calls == [(0, 0), (1, 2)]
    assert holds_on(sides, [(3, 3), (4, 4)])
    assert holds_on(sides, [])
