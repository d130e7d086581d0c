"""SharedPlacementBudget: fair shares, refusal-not-blocking, reclamation."""

from __future__ import annotations

import pytest

from repro.core.errors import InconsistentOverlapError
from repro.host.budget import BudgetExceededError, SharedPlacementBudget
from repro.host.delivery import FrameStore, PlacementBuffer
from tests.helpers import place_frame


def test_empty_pool_offers_everything():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    assert budget.registered == 0
    assert budget.fair_share() == 1000


def test_fair_share_divides_pool_with_floor():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    for key in range(4):
        assert budget.register(key)
    assert budget.fair_share() == 250
    for key in range(4, 9):
        assert budget.register(key)
    # 1000 // 9 = 111 > floor; add one more and the floor kicks in.
    assert budget.fair_share() == max(1000 // 9, 100)
    assert budget.register(9)
    assert budget.fair_share() == 100


def test_register_refuses_when_min_shares_exceed_pool():
    budget = SharedPlacementBudget(pool_bytes=300, min_share_bytes=100)
    assert budget.register("a")
    assert budget.register("b")
    assert budget.register("c")
    assert not budget.register("d")
    assert budget.refusals == 1
    assert budget.was_refused("d")
    # Registration is idempotent for admitted keys.
    assert budget.register("a")


def test_reserve_enforces_fair_share_and_pool():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    assert budget.register("a")
    assert budget.register("b")
    assert budget.reserve("a", 400)
    assert not budget.reserve("a", 200)  # 600 > fair share 500
    assert budget.reserve("b", 500)
    assert budget.reserved_total == 900
    assert budget.peak_reserved == 900
    assert budget.held("a") == 400
    assert budget.refusals == 1


def test_reserve_auto_registers():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    assert budget.reserve("fresh", 250)
    assert budget.registered == 1
    assert budget.held("fresh") == 250


def test_release_reclaims_and_reopens_shares():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    budget.reserve("a", 500)
    budget.reserve("b", 400)
    assert not budget.reserve("b", 200)  # pool nearly full
    assert budget.release("a") == 500
    assert budget.reserved_total == 400
    assert budget.reserve("b", 200)  # b's share grew after a left
    assert budget.release("missing") == 0


def test_negative_reservation_rejected():
    budget = SharedPlacementBudget()
    with pytest.raises(ValueError):
        budget.reserve("a", -1)


def test_placement_buffer_draws_from_budget():
    budget = SharedPlacementBudget(pool_bytes=1024, min_share_bytes=64)
    buffer = PlacementBuffer(limit_bytes=None, budget=budget, budget_key=7)
    assert buffer.place(0, b"x" * 512) == 512
    assert budget.held(7) == 512
    with pytest.raises(BudgetExceededError):
        buffer.place(512, b"y" * 1024)
    # Consistent rewrites of already-grown region need no new reservation.
    assert buffer.place(0, b"x" * 512) == 0
    assert budget.held(7) == 512


def test_budget_refusal_is_a_value_error_subclass():
    # Callers that treat placement failures as chunk rejection keep
    # working unchanged.
    assert issubclass(BudgetExceededError, ValueError)


def test_frames_reserve_nothing_beyond_the_stream():
    # A frame is a window of the stream: what the pool holds for a
    # connection is the stream's region, however many frames lie in it.
    budget = SharedPlacementBudget(pool_bytes=4096, min_share_bytes=64)
    store = FrameStore(PlacementBuffer(limit_bytes=None, budget=budget, budget_key="conn"))
    place_frame(store, 1, 0, b"a" * 1024, last=True, base=0)
    place_frame(store, 2, 0, b"b" * 1024, last=True, base=1024)
    assert store.completed == [1, 2]
    assert budget.held("conn") == 2048
    with pytest.raises(BudgetExceededError):
        place_frame(store, 3, 0, b"c" * 4096, base=2048)
    assert store.frame(3) is None          # refused by the stream: no frame state
    assert budget.held("conn") == 2048


def test_a_connection_reserves_its_stream_bytes_once():
    # The endpoint reserves the stream region under the connection's
    # C.ID and nothing else: a frame filling that region adds nothing,
    # and releasing the key frees everything.
    budget = SharedPlacementBudget(pool_bytes=8192, min_share_bytes=64)
    stream = PlacementBuffer(limit_bytes=None, budget=budget, budget_key=5)
    frames = FrameStore(stream)
    assert place_frame(frames, 0, 0, b"f" * 1000, last=True, base=0)
    assert frames.contents(0) == stream.contents() == b"f" * 1000
    assert budget.held(5) == 1000
    assert budget.release(5) == 1000
    assert budget.reserved_total == 0


class TestReleaseBytes:
    def test_release_bytes_returns_bytes_to_the_pool(self):
        budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
        assert budget.reserve("a", 300)
        assert budget.release_bytes("a", 200) == 200
        assert budget.held("a") == 100
        assert budget.reserved_total == 100
        assert budget.registered == 1  # a partial return is not an eviction

    def test_release_bytes_after_wholesale_evict_is_clamped(self):
        # sweep() releases a connection's whole key; a straggler partial
        # return afterwards must not double-subtract from the pool.
        budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
        assert budget.reserve("a", 300)
        assert budget.reserve("b", 100)
        budget.release("a")  # wholesale eviction
        assert budget.release_bytes("a", 300) == 0
        assert budget.reserve("a", 50)
        assert budget.release_bytes("a", 300) == 50  # clamped to what is held
        assert budget.reserved_total == budget.held("b") == 100

    def test_negative_release_rejected(self):
        budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
        assert budget.reserve("a", 300)
        with pytest.raises(ValueError):
            budget.release_bytes("a", -1)
        assert budget.held("a") == 300


def test_placement_buffer_grows_one_keyed_reservation():
    budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
    reserved = []
    reserve = budget.reserve
    budget.reserve = lambda key, nbytes: reserved.append((key, nbytes)) or reserve(key, nbytes)
    buffer = PlacementBuffer(limit_bytes=None, budget=budget, budget_key="k")
    buffer.place(0, b"x" * 100)
    buffer.place(100, b"y" * 100)
    assert budget.held("k") == 200
    # Each append reserves its growth once, a hole before it included;
    # a write inside the region reserves nothing.
    buffer.place(250, b"z" * 50)
    buffer.place(200, b"w" * 50)
    assert reserved == [("k", 100), ("k", 100), ("k", 100)]
    assert budget.held("k") == len(buffer._data) == 300


class TestRefusedWriteReservesNothing:
    """The exception edge, checked where it happens: ``place`` compares,
    then reserves, then grows — so a refusal of any kind leaves the pool
    and the region as they were, and no token is needed to undo it."""

    @staticmethod
    def placed_region(**kwargs):
        budget = SharedPlacementBudget(pool_bytes=1000, min_share_bytes=100)
        buffer = PlacementBuffer(limit_bytes=None, budget=budget, budget_key="k", **kwargs)
        buffer.place(0, b"abcd" * 25)
        return budget, buffer

    @staticmethod
    def snapshot(budget, buffer):
        return (
            budget.held("k"), budget.reserved_total, len(buffer._data), buffer.contents(),
            buffer.bytes_placed,
        )

    def test_write_beyond_total_bytes(self):
        budget, buffer = self.placed_region(total_bytes=150)
        before = self.snapshot(budget, buffer)
        with pytest.raises(ValueError):
            buffer.place(100, b"z" * 100)
        assert self.snapshot(budget, buffer) == before

    def test_disagreeing_overlap_that_would_also_grow(self):
        budget, buffer = self.placed_region()
        before = self.snapshot(budget, buffer)
        with pytest.raises(InconsistentOverlapError):
            buffer.place(90, b"z" * 100)  # [90, 100) disagrees, [100, 190) is fresh
        with pytest.raises(InconsistentOverlapError):
            buffer.place(40, b"abcz")  # inside the region, its last byte disagrees
        assert self.snapshot(budget, buffer) == before
        assert buffer.overlap_conflicts == 2

    def test_contradicted_end_marker(self):
        budget, buffer = self.placed_region()
        buffer.place_last(100, b"e" * 50)
        before = self.snapshot(budget, buffer)
        with pytest.raises(ValueError):
            buffer.place_last(150, b"z" * 50)  # the end is known to be 150
        with pytest.raises(ValueError):
            buffer.place_last(0, b"abcd" * 10)  # an end below placed bytes
        assert self.snapshot(budget, buffer) == before
        assert buffer.total_bytes == 150

    def test_budget_refusal_leaves_the_buffer_unwritten_and_ungrown(self):
        budget, buffer = self.placed_region()
        before = self.snapshot(budget, buffer)
        with pytest.raises(BudgetExceededError):
            buffer.place(48, b"abcd" * 250)  # agrees on [48, 100); 948 fresh bytes refused
        assert self.snapshot(budget, buffer) == before
        assert not buffer.has_range(100, 101)
        assert budget.refusals == 1
