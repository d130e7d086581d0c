"""The constant-weight multiply equals the definition.

T.ID and C.ID sit at fixed positions (Figure 5), so their weights are
constants, and X.ID's is fixed by its final T.SN (Figure 6); multiplying
by a constant is GF(2)-linear in the value's bits: ``gf_mul_const``
answers with four byte-table lookups built from 32 basis products.
These properties hold it to ``gf_mul`` — the bit-serial definition —
over full-width values and the edges (0, 1, all-ones, every single bit),
for the ID weights and the X pair's cached multipliers from the first
to the last T.SN a TPDU can hold, and a whole TPDU whose T.ID and C.ID
lie near 2**32 to the ``add_symbol`` oracle, on the sender and through
the receiver.
"""

from __future__ import annotations

import random

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.fragment import split_to_unit_limit
from repro.core.types import MAX_TPDU_SYMBOLS
from repro.wsc import invariant as invariant_module
from repro.wsc.endtoend import EndToEndReceiver
from repro.wsc.gf32 import alpha_pow, gf_mul, gf_mul_const
from repro.wsc.invariant import C_ID_POS, C_ST_POS, T_ID_POS, X_PAIR_BASE, encode_tpdu
from repro.wsc.wsc2 import Wsc2Accumulator, symbols_from_bytes

from tests.conftest import make_chunk

#: final T.SNs whose X.ID multiplier is checked: the first, a one-unit-word
#: TPDU of 16 units, a byte's edge, and the last symbol a TPDU can hold.
X_FINAL_T_SNS = (0, 15, 255, MAX_TPDU_SYMBOLS - 1)
WEIGHTS = {
    "T.ID": alpha_pow(T_ID_POS),
    "C.ID": alpha_pow(C_ID_POS),
    **{f"X.ID@{t_sn}": alpha_pow(X_PAIR_BASE + 2 * t_sn) for t_sn in X_FINAL_T_SNS},
}
#: the multipliers the invariant runs, beside fresh ones built here: C.ID's
#: is the T.ID table applied to alpha * C.ID, read off the ID rows' parities;
#: X.ID's is the one cached for its final T.SN.
RUNNING = {
    "T.ID": invariant_module._times_t_id_weight,
    "C.ID": lambda value: invariant_module._id_parities(value, 0)[1],
    **{f"X.ID@{t_sn}": invariant_module._x_pair_weight(t_sn)[0] for t_sn in X_FINAL_T_SNS},
}
EDGES = [0, 1, 0xFFFFFFFF, *(1 << bit for bit in range(32))]

words = st.integers(0, 2**32 - 1)
near_top = st.integers(2**32 - 2**12, 2**32 - 1)


def test_every_edge_value_for_both_weights():
    for name, weight in WEIGHTS.items():
        fresh = gf_mul_const(weight)
        for value in EDGES:
            assert fresh(value) == RUNNING[name](value) == gf_mul(weight, value), (name, value)


@given(st.sampled_from(sorted(WEIGHTS)), st.one_of(st.sampled_from(EDGES), words))
def test_table_multiply_is_gf_mul_for_the_id_weights(name, value):
    assert RUNNING[name](value) == gf_mul(WEIGHTS[name], value)


@given(words, words)
@example(0, 0xFFFFFFFF)
@example(0xFFFFFFFF, 0xFFFFFFFF)
def test_table_multiply_is_gf_mul_for_any_weight(weight, value):
    assert gf_mul_const(weight)(value) == gf_mul(weight, value)


@given(
    near_top, near_top, near_top, st.integers(1, 64), st.booleans(), st.booleans(),
    st.integers(1, 9), st.integers(0, 2**32),
)
@example(2**32 - 1, 2**32 - 1, 2**32 - 1, 64, True, True, 1, 0)
def test_tpdu_with_ids_near_2_32_matches_the_oracle(
    t_id, c_id, x_id, units, c_st, x_st, cut, seed
):
    chunk = make_chunk(
        units=units, c_id=c_id, c_st=c_st, t_id=t_id, t_st=True, x_id=x_id, x_st=x_st, seed=seed
    )
    oracle = Wsc2Accumulator()
    oracle.add_symbol(T_ID_POS, t_id)
    oracle.add_symbol(C_ID_POS, c_id)
    oracle.add_run(0, symbols_from_bytes(chunk.payload))
    if c_st:
        oracle.add_symbol(C_ST_POS, 1)
    oracle.add_symbol(X_PAIR_BASE + 2 * (units - 1), x_id)
    oracle.add_symbol(X_PAIR_BASE + 2 * (units - 1) + 1, int(x_st))

    pieces = split_to_unit_limit(chunk, cut)
    random.Random(seed).shuffle(pieces)
    ed_payload, ed = encode_tpdu(pieces)
    assert (ed_payload.p0, ed_payload.p1) == oracle.value()

    receiver = EndToEndReceiver()
    verdicts = [v for piece in [ed, *pieces] for v in receiver.receive(piece)]
    assert [(v.c_id, v.t_id, v.ok) for v in verdicts] == [(c_id, t_id, True)]
