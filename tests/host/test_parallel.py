"""Unit tests for TYPE demultiplexing and the parallel split."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FragmentationError, ReproError
from repro.core.fragment import split
from repro.core.types import ChunkType
from repro.paper.parallel import ProcessingUnit, TypeDemux, parallel_split
from repro.wsc.invariant import EdPayload, build_ed_chunk

from tests.conftest import make_chunk
from tests.core.test_fragment_properties import chunks as chunk_strategy


def _unit(name="u"):
    return ProcessingUnit(name=name, handler=lambda c: c.type)


class TestTypeDemux:
    def test_routes_by_type(self):
        data_unit = _unit("data")
        ed_unit = _unit("ed")
        demux = TypeDemux()
        demux.register(ChunkType.DATA, data_unit)
        demux.register(ChunkType.ERROR_DETECTION, ed_unit)
        demux.dispatch(make_chunk(units=4))
        demux.dispatch(build_ed_chunk(1, 2, EdPayload(0, 0, 4)))
        assert data_unit.chunks_handled == 1
        assert ed_unit.chunks_handled == 1

    def test_one_context_retrieval_per_chunk(self):
        """Section 2: shared TYPE/IDs mean a single context retrieval
        per chunk, not per data unit."""
        demux = TypeDemux()
        demux.register(ChunkType.DATA, _unit())
        big = make_chunk(units=100)
        demux.dispatch(big)
        assert demux.context_retrievals == 1

    def test_unrouted_type_raises(self):
        demux = TypeDemux()
        with pytest.raises(ReproError):
            demux.dispatch(make_chunk())

    def test_default_unit_catches_unrouted(self):
        fallback = _unit("default")
        demux = TypeDemux(default=fallback)
        demux.dispatch(make_chunk())
        assert fallback.chunks_handled == 1

    def test_busy_time_accounting(self):
        unit = ProcessingUnit(
            name="x", handler=lambda c: None,
            cost_per_byte=1.0, cost_per_chunk=10.0,
        )
        demux = TypeDemux()
        demux.register(ChunkType.DATA, unit)
        demux.dispatch(make_chunk(units=4))  # 16 payload bytes
        assert unit.busy_time == pytest.approx(26.0)

    def test_parallel_speedup_with_balanced_units(self):
        demux = TypeDemux()
        demux.register(ChunkType.DATA, _unit("data"))
        demux.register(ChunkType.ERROR_DETECTION, _unit("ed"))
        for index in range(10):
            demux.dispatch(make_chunk(units=3, seed=index))
            demux.dispatch(build_ed_chunk(1, index, EdPayload(0, 0, 3)))
        assert demux.speedup() > 1.0
        assert demux.serial_time() == pytest.approx(
            demux.units[ChunkType.DATA].busy_time
            + demux.units[ChunkType.ERROR_DETECTION].busy_time
        )

    def test_results_collected_per_unit(self):
        unit = ProcessingUnit(name="sum", handler=lambda c: c.payload_bytes)
        demux = TypeDemux()
        demux.register(ChunkType.DATA, unit)
        demux.dispatch_all([make_chunk(units=2), make_chunk(units=5, c_sn=2, t_sn=2, x_sn=2)])
        assert unit.results == [8, 20]


class TestParallelSplit:
    def test_matches_sequential_split(self):
        chunk = make_chunk(units=9, c_st=True, t_st=True, x_st=True)
        assert parallel_split(chunk, 4) == split(chunk, 4)

    @given(chunk_strategy(max_units=32), st.data())
    @settings(max_examples=60)
    def test_matches_sequential_split_property(self, chunk, data):
        if chunk.length < 2:
            return
        cut = data.draw(st.integers(1, chunk.length - 1))
        assert parallel_split(chunk, cut) == split(chunk, cut)

    def test_control_chunk_rejected(self):
        with pytest.raises(FragmentationError):
            parallel_split(build_ed_chunk(1, 2, EdPayload(0, 0, 2)), 1)

    def test_bad_cut_rejected(self):
        with pytest.raises(FragmentationError):
            parallel_split(make_chunk(units=3), 3)
