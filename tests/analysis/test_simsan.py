"""Tests for the simsan runtime sanitizer (repro.analysis.simsan).

The regression pair is the core contract: an injected
mutation-after-schedule bug is caught with the sanitizer installed and
— demonstrably — sails through undetected with the hook disabled, which
is exactly why the CI simsan lane exists.

``TestShardWatch`` runs the cases the retired static ownership pass
read off its fixtures as events on a live, watched
:class:`~repro.transport.shard.ShardedEndpoint`: a shard reaching into
another shard's budget or table, or into the pool's books, raises; a
shard changing its own state, borrowing through ``GlobalBudgetPool.lend``
or being touched by member 0 stays silent.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Callable

import pytest

from repro.analysis import simsan
from repro.core.errors import SimSanError
from repro.host.pool import GlobalBudgetPool
from repro.netsim import events as events_mod
from repro.netsim.events import EventLoop
from repro.netsim.shardloop import ShardedLoop
from repro.transport.connection import ConnectionConfig
from repro.transport.shard import ShardedEndpoint


@pytest.fixture(autouse=True)
def restore_observer():
    """Keep whatever observer the session installed (e.g. the CI simsan
    lane's) intact across these tests."""
    previous = events_mod.get_schedule_observer()
    yield
    events_mod.set_schedule_observer(previous)


def mutate_after_schedule(loop: EventLoop) -> tuple[bytearray, list[bytes]]:
    """The injected bug: a payload buffer aliased into a scheduled
    callback, then mutated before the callback runs."""
    observed: list[bytes] = []
    buf = bytearray(b"self-describing chunk payload")
    loop.at(1.0, lambda: observed.append(bytes(buf)))
    buf[0] ^= 0xFF  # the mutation the callback never agreed to
    return buf, observed


class TestRegression:
    def test_sanitizer_catches_injected_mutation(self):
        loop = EventLoop()
        with simsan.session() as san:
            mutate_after_schedule(loop)
            with pytest.raises(SimSanError, match="mutation-after-schedule"):
                loop.run()
        [violation] = san.violations
        assert violation.seq == 0
        assert "buf" in violation.buffer_label
        assert violation.scheduled_digest != violation.dispatched_digest
        # The callsite points at the scheduling line in this file, not
        # at the event-loop internals.
        assert "test_simsan.py" in violation.callsite

    def test_bug_is_undetected_without_the_hook(self):
        # The same injected bug with the observer disabled: the run
        # completes silently and the callback observes corrupted bytes.
        events_mod.set_schedule_observer(None)
        loop = EventLoop()
        buf, observed = mutate_after_schedule(loop)
        loop.run()  # no error — the whole point of the sanitizer
        assert observed == [bytes(buf)]
        assert observed[0] != b"self-describing chunk payload"

    def test_clean_run_raises_nothing(self):
        loop = EventLoop()
        with simsan.session() as san:
            buf = bytearray(b"stable payload")
            seen: list[bytes] = []
            loop.at(1.0, lambda: seen.append(bytes(buf)))
            loop.run()
        assert san.violations == []
        assert san.buffers_tracked == 1
        assert seen == [b"stable payload"]


class TestFingerprinting:
    def test_immutable_bytes_are_not_tracked(self):
        loop = EventLoop()
        with simsan.session() as san:
            payload = b"immutable"
            loop.at(1.0, lambda: payload)
            loop.run()
        assert san.buffers_tracked == 0
        assert san.audit.entries == 1  # the audit still records it

    def test_partial_arguments_are_tracked(self):
        loop = EventLoop()
        sink: list[int] = []

        def deliver(data: bytearray) -> None:
            sink.append(len(data))

        buf = bytearray(b"partial-carried payload")
        with simsan.session():
            loop.at(1.0, functools.partial(deliver, buf))
            buf.extend(b"!!")
            with pytest.raises(SimSanError, match="args\\[0\\]"):
                loop.run()

    def test_report_mode_records_without_raising(self):
        loop = EventLoop()
        with simsan.session(simsan.SimSanitizer(raise_on_violation=False)) as san:
            mutate_after_schedule(loop)
            loop.run()
        [violation] = san.violations
        description = violation.describe()
        assert "mutated between schedule and dispatch" in description
        assert "scheduling backtrace" in description


class TestAuditLog:
    def run_scenario(self, seed: int) -> str:
        loop = EventLoop()
        rng = random.Random(seed)
        with simsan.session() as san:
            for _ in range(20):
                loop.at(loop.now + rng.random(), lambda: None)
            loop.run()
            return san.audit.digest()

    def test_identical_seeded_runs_agree(self):
        assert self.run_scenario(7) == self.run_scenario(7)

    def test_schedule_divergence_changes_the_digest(self):
        assert self.run_scenario(7) != self.run_scenario(8)

    def test_entry_count_matches_schedules(self):
        loop = EventLoop()
        with simsan.session() as san:
            for index in range(5):
                loop.at(float(index), lambda: None)
            loop.run()
        assert san.audit.entries == 5


class TestInstallation:
    def test_session_restores_previous_observer(self):
        previous = events_mod.get_schedule_observer()
        with simsan.session() as san:
            assert events_mod.get_schedule_observer() is san
        assert events_mod.get_schedule_observer() is previous

    def test_install_uninstall_roundtrip(self):
        events_mod.set_schedule_observer(None)
        san = simsan.install()
        assert simsan.current() is san
        simsan.uninstall()
        assert simsan.current() is None
        assert events_mod.get_schedule_observer() is None

    def test_enabled_by_env(self, monkeypatch):
        monkeypatch.setenv(simsan.ENV_VAR, "1")
        assert simsan.enabled_by_env()
        monkeypatch.setenv(simsan.ENV_VAR, "off")
        assert not simsan.enabled_by_env()
        monkeypatch.delenv(simsan.ENV_VAR)
        assert not simsan.enabled_by_env()


def launder_pool(pool: GlobalBudgetPool) -> None:
    """A module helper that clears the pool's loan ledger."""
    pool._lent.clear()


class TestShardWatch:
    @staticmethod
    def endpoint(shards: int = 6) -> tuple[ShardedLoop, ShardedEndpoint]:
        loop = ShardedLoop()
        return loop, ShardedEndpoint(loop, shards=shards)

    @staticmethod
    def cid_on(endpoint: ShardedEndpoint, shard: int) -> int:
        return next(cid for cid in itertools.count(1) if endpoint.shard_of(cid) == shard)

    @staticmethod
    def run_on(
        loop: ShardedLoop, endpoint: ShardedEndpoint, shard: int, callback: Callable[[], object]
    ) -> None:
        """Run *callback* as an event of *shard*'s member, watched."""
        with simsan.session() as san:
            san.watch(endpoint)
            endpoint.shards[shard].endpoint.loop.schedule(0.0, callback)
            loop.run()

    def test_registering_in_another_shards_budget_raises(self):
        loop, endpoint = self.endpoint()
        other = endpoint.shards[1].endpoint.budget
        with pytest.raises(SimSanError, match=r"shard 0's member.*changed endpoint 0 shard 1"):
            self.run_on(loop, endpoint, 0, lambda: other.register(self.cid_on(endpoint, 1)))

    def test_evicting_another_shards_conversation_raises(self):
        loop, endpoint = self.endpoint()
        cid = self.cid_on(endpoint, 5)
        endpoint.open_connection(ConnectionConfig(connection_id=cid))
        table = endpoint.shards[5].endpoint.table
        crossing = r"shard 4's member.*changed endpoint 0 shard 5"
        with pytest.raises(SimSanError, match=crossing) as err:
            self.run_on(loop, endpoint, 4, lambda: table.evict(cid))
        assert "'active_connections': '1 -> 0'" in str(err.value)
        assert "'tombstones': '0 -> 1'" in str(err.value)

    def test_zeroing_the_pools_lent_total_breaks_the_books(self):
        loop, endpoint = self.endpoint()
        assert endpoint.shards[2].endpoint.budget.reserve(self.cid_on(endpoint, 2), 4096)

        def hijack_pool_store() -> None:
            endpoint.pool.lent_total = 0

        books = r"pool books broken.*lent_total 0, shard loans 262144, shard backing 262144"
        with pytest.raises(SimSanError, match=books):
            self.run_on(loop, endpoint, 2, hijack_pool_store)

    def test_clearing_the_ledger_through_a_helper_raises(self):
        loop, endpoint = self.endpoint()
        assert endpoint.shards[2].endpoint.budget.reserve(self.cid_on(endpoint, 2), 4096)
        with pytest.raises(SimSanError, match=r"shard 3's member.*changed endpoint 0 shard 2"):
            self.run_on(loop, endpoint, 3, lambda: launder_pool(endpoint.pool))

    def test_error_names_the_scheduling_callsite_mid_run(self):
        loop, endpoint = self.endpoint(2)
        other = endpoint.shards[1].endpoint.budget
        with simsan.session() as san:
            san.watch(endpoint)
            endpoint.shards[0].endpoint.loop.schedule(0.0, lambda: other.register(1))
            loop.schedule(1.0, lambda: None)
            with pytest.raises(SimSanError, match=r"scheduled at .*test_simsan\.py:\d+"):
                loop.run()

    def test_a_shard_changing_its_own_budget_stays_silent(self):
        loop, endpoint = self.endpoint()
        own = endpoint.shards[1].endpoint.budget
        self.run_on(loop, endpoint, 1, lambda: own.register(self.cid_on(endpoint, 1)))
        assert own.registered == 1

    def test_borrowing_through_pool_lend_stays_silent(self):
        loop, endpoint = self.endpoint()
        own = endpoint.shards[1].endpoint.budget
        self.run_on(loop, endpoint, 1, lambda: own.reserve(self.cid_on(endpoint, 1), 4096))
        assert endpoint.pool.lends == 1
        assert endpoint.pool.lent_to(1) == own.pool_bytes > 0

    def test_member_zero_touching_a_shard_stays_silent(self):
        loop, endpoint = self.endpoint()
        other = endpoint.shards[1].endpoint.budget
        with simsan.session() as san:
            san.watch(endpoint)
            loop.schedule(0.0, lambda: other.register(self.cid_on(endpoint, 1)))
            loop.run()
        assert other.registered == 1
