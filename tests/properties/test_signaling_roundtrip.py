"""Property suite: connection establishment signaling round-trips.

Appendix A moves seldom-changing header facts (SIZE, the TPDU length)
into the establishment message, so the signaling encoding is
load-bearing for every later chunk of the conversation: any
``ConnectionConfig`` must survive ``build_signaling_chunk`` →
``parse_signaling_chunk`` exactly, and the strict parser must accept
everything the builder can emit while refusing any perturbation of the
C.ID, the flag word or the reserved bytes.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SignalingError
from repro.transport.connection import (
    ConnectionConfig,
    build_signaling_chunk,
    parse_signaling_chunk,
)

# The wire format carries C.ID as u32, unit words and TPDU units as u16
# (the builder clamps tpdu_units to 0xFFFF).
configs = st.builds(
    ConnectionConfig,
    connection_id=st.integers(0, 0xFFFFFFFF),
    unit_words=st.integers(1, 0xFFFF),
    tpdu_units=st.integers(1, 0xFFFF),
)


@given(configs)
def test_config_roundtrips_through_signaling(config):
    assert parse_signaling_chunk(build_signaling_chunk(config)) == config


@given(configs)
def test_signaling_chunk_is_well_formed(config):
    chunk = build_signaling_chunk(config)
    # The C tuple labels the conversation the establishment belongs to,
    # and the payload is whole words (control LEN counts words).
    assert chunk.c.ident == config.connection_id
    assert len(chunk.payload) % 4 == 0
    assert chunk.length == len(chunk.payload) // 4


@given(configs, st.integers(0, 11), st.integers(1, 255))
def test_any_reserved_or_flag_perturbation_is_rejected_or_inert(config, offset, delta):
    """Flipping a byte of the fixed 12-byte payload either changes the
    parsed config (SIZE and TPDU length) or raises (the C.ID, which the
    header still names, the flag word and the reserved bytes) — it is
    never silently ignored."""
    chunk = build_signaling_chunk(config)
    payload = bytearray(chunk.payload)
    payload[offset] = (payload[offset] + delta) % 256
    mutated = chunk.__class__(
        type=chunk.type, size=chunk.size, length=chunk.length,
        c=chunk.c, t=chunk.t, x=chunk.x, payload=bytes(payload),
    )
    if offset < 4 or offset >= 8:
        with pytest.raises(SignalingError):
            parse_signaling_chunk(mutated)
    else:
        assert parse_signaling_chunk(mutated) != config


@given(configs)
def test_roundtrip_preserves_derived_parameters(config):
    parsed = parse_signaling_chunk(build_signaling_chunk(config))
    assert parsed.unit_bytes == config.unit_bytes
    assert parsed.tpdu_bytes == config.tpdu_bytes


def test_builder_clamps_oversized_tpdu_units():
    config = ConnectionConfig(connection_id=1, tpdu_units=0x1_0000)
    parsed = parse_signaling_chunk(build_signaling_chunk(config))
    assert parsed.tpdu_units == 0xFFFF


def test_oversized_connection_id_cannot_be_encoded():
    with pytest.raises(struct.error):
        build_signaling_chunk(ConnectionConfig(connection_id=0x1_0000_0000))
