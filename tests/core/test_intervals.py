"""Unit and property tests for the interval set."""

import bisect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet


class TestAdd:
    def test_single_interval(self):
        s = IntervalSet()
        assert s.add(0, 5) == 5
        assert s.intervals() == [(0, 5)]

    def test_disjoint_intervals(self):
        s = IntervalSet()
        s.add(0, 3)
        s.add(10, 12)
        assert s.intervals() == [(0, 3), (10, 12)]
        assert s.covered() == 5

    def test_adjacent_intervals_merge(self):
        s = IntervalSet()
        s.add(0, 3)
        s.add(3, 6)
        assert s.intervals() == [(0, 6)]

    def test_overlap_counts_new_units_only(self):
        s = IntervalSet()
        s.add(0, 5)
        assert s.add(3, 8) == 3

    def test_exact_duplicate_adds_zero(self):
        s = IntervalSet()
        s.add(2, 7)
        assert s.add(2, 7) == 0

    def test_bridging_gap_merges_three(self):
        s = IntervalSet()
        s.add(0, 2)
        s.add(4, 6)
        assert s.add(2, 4) == 2
        assert s.intervals() == [(0, 6)]

    def test_superset_swallows(self):
        s = IntervalSet()
        s.add(2, 4)
        s.add(6, 8)
        assert s.add(0, 10) == 6
        assert s.intervals() == [(0, 10)]

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().add(5, 5)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet().add(-1, 3)


class TestQueries:
    def test_contains(self):
        s = IntervalSet()
        s.add(5, 10)
        assert s.contains(5, 10)
        assert s.contains(6, 9)
        assert not s.contains(4, 6)
        assert not s.contains(9, 11)
        assert IntervalSet().contains(5, 5)  # an empty range is always held

    def test_membership_operator(self):
        s = IntervalSet()
        s.add(3, 5)
        assert 3 in s and 4 in s
        assert 5 not in s and 2 not in s

    def test_overlaps(self):
        s = IntervalSet()
        s.add(0, 5)
        s.add(10, 15)
        assert s.overlaps(3, 12) == 4  # 3,4 and 10,11
        assert s.overlaps(5, 10) == 0

    def test_gaps_walks_only_the_window(self):
        s = IntervalSet()
        for start, end in ((0, 2), (4, 6), (8, 10), (20, 30)):
            s.add(start, end)
        assert s.gaps(0, 10) == [(2, 4), (6, 8)]
        assert s.gaps(1, 9) == [(2, 4), (6, 8)]       # clipped at both ends
        assert s.gaps(5, 25) == [(6, 8), (10, 20)]
        assert s.gaps(10, 20) == [(10, 20)]           # nothing stored there
        assert s.gaps(21, 29) == []                   # wholly present
        assert s.gaps(30, 35) == [(30, 35)]           # past the last interval
        assert IntervalSet().gaps(3, 7) == [(3, 7)]

    def test_is_complete(self):
        s = IntervalSet()
        s.add(0, 10)
        assert s.is_complete(10)
        assert not s.is_complete(11)
        assert IntervalSet().is_complete(0)  # nothing to hold, nothing missing

    def test_incomplete_with_gap(self):
        s = IntervalSet()
        s.add(0, 4)
        s.add(6, 10)
        assert not s.is_complete(10)

    def test_missing(self):
        s = IntervalSet()
        s.add(2, 4)
        s.add(6, 8)
        assert s.missing(10) == [(0, 2), (4, 6), (8, 10)]

    def test_missing_when_complete(self):
        s = IntervalSet()
        s.add(0, 7)
        assert s.missing(7) == []

    def test_missing_of_empty(self):
        assert IntervalSet().missing(3) == [(0, 3)]

    def test_span_end(self):
        s = IntervalSet()
        assert s.span_end == 0
        s.add(3, 9)
        assert s.span_end == 9

    def test_bool_and_len(self):
        s = IntervalSet()
        assert not s and len(s) == 0
        s.add(0, 1)
        s.add(5, 6)
        assert s and len(s) == 2


# ----------------------------------------------------------------------
# Property tests against a naive set-of-integers model.
# ----------------------------------------------------------------------

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 30)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=1,
    max_size=25,
)


@given(intervals_strategy)
def test_add_matches_model(pairs):
    s = IntervalSet()
    model: set[int] = set()
    for start, end in pairs:
        fresh = set(range(start, end)) - model
        assert s.add(start, end) == len(fresh)
        model |= set(range(start, end))
    assert s.covered() == len(model)
    covered = [u for lo, hi in s.intervals() for u in range(lo, hi)]
    assert set(covered) == model
    # Internal representation must be sorted and disjoint.
    ivs = s.intervals()
    assert all(lo < hi for lo, hi in ivs)
    assert all(ivs[i][1] < ivs[i + 1][0] for i in range(len(ivs) - 1))


@given(intervals_strategy, st.integers(0, 220), st.integers(1, 40))
def test_queries_match_model(pairs, qstart, qlen):
    s = IntervalSet()
    model: set[int] = set()
    for start, end in pairs:
        s.add(start, end)
        model |= set(range(start, end))
    qend = qstart + qlen
    assert s.contains(qstart, qend) == set(range(qstart, qend)).issubset(model)
    assert s.overlaps(qstart, qend) == len(set(range(qstart, qend)) & model)
    assert s.intersects(qstart, qend) == bool(set(range(qstart, qend)) & model)
    gaps = s.gaps(qstart, qend)
    assert {u for lo, hi in gaps for u in range(lo, hi)} == (
        set(range(qstart, qend)) - model
    )
    # Gaps come back sorted, non-empty and maximal (never adjacent).
    assert all(lo < hi for lo, hi in gaps)
    assert all(gaps[i][1] < gaps[i + 1][0] for i in range(len(gaps) - 1))


def _reference_add(starts: list[int], ends: list[int], start: int, end: int) -> None:
    """The merge ``IntervalSet.add`` made on its own before ``insert``
    existed: the oracle the one-walk ``insert`` is held to."""
    lo = bisect.bisect_left(ends, start)
    hi = bisect.bisect_right(starts, end)
    new_start, new_end = start, end
    for i in range(lo, hi):
        new_start = min(new_start, starts[i])
        new_end = max(new_end, ends[i])
    starts[lo:hi] = [new_start]
    ends[lo:hi] = [new_end]


RELATIONS = ("disjoint", "touching", "nested", "straddling", "covering")


@st.composite
def related_inserts(draw) -> list[tuple[int, int]]:
    """Inserts each drawn in one of RELATIONS to an earlier one: apart from
    it, touching it, inside it, across one of its edges, or around it."""
    start = draw(st.integers(0, 60))
    spans = [(start, start + draw(st.integers(1, 20)))]
    for _ in range(draw(st.integers(1, 15))):
        a, b = draw(st.sampled_from(spans))
        relation = draw(st.sampled_from(RELATIONS))
        n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        if relation == "disjoint":
            span = (b + n, b + n + m)
        elif relation == "touching":
            span = (a - n, a) if a >= n and draw(st.booleans()) else (b, b + n)
        elif relation == "nested":
            lo = draw(st.integers(a, b - 1))
            span = (lo, draw(st.integers(lo + 1, b)))
        elif relation == "straddling":
            cut = draw(st.integers(a, b - 1)) if b - a > 1 else a
            span = (max(0, a - n), cut + 1) if a > 0 and draw(st.booleans()) else (cut, b + n)
        else:
            span = (max(0, a - n), b + m)
        spans.append(span)
    return spans


@given(related_inserts())
def test_insert_is_gaps_then_add_in_one_walk(spans):
    s = IntervalSet()
    starts: list[int] = []
    ends: list[int] = []
    for start, end in spans:
        expected = s.gaps(start, end)
        assert s.insert(start, end) == expected
        _reference_add(starts, ends, start, end)
        assert s.intervals() == list(zip(starts, ends))


@given(intervals_strategy, st.integers(1, 240))
def test_missing_matches_model(pairs, total):
    s = IntervalSet()
    model: set[int] = set()
    for start, end in pairs:
        s.add(start, end)
        model |= set(range(start, end))
    gaps = {u for lo, hi in s.missing(total) for u in range(lo, hi)}
    assert gaps == set(range(total)) - model
    assert s.is_complete(total) == set(range(total)).issubset(model)
