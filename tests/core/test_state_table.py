"""The declarative lifecycle table: validation, rendering, row lines."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import state_table
from repro.analysis.state_table import (
    CLOSED,
    ESTABLISHED,
    EVENTS,
    INITIAL_STATE,
    STATE_TABLE,
    STATES,
    StateTable,
    Transition,
    row_line,
)
from tests.docs_blocks import LIFECYCLE, extract, lifecycle_markdown, lifecycle_mermaid


class TestDeclaredTable:
    def test_shape(self):
        assert len(STATES) == 7
        assert len(STATE_TABLE.transitions) == 22
        assert STATE_TABLE.initial == INITIAL_STATE == CLOSED

    def test_is_sound(self):
        assert STATE_TABLE.validate() == []

    def test_by_id_matches_declaration_order(self):
        assert list(STATE_TABLE.by_id) == [
            t.transition_id for t in STATE_TABLE.transitions
        ]

    def test_outgoing_covers_every_state(self):
        for state in STATES:
            assert STATE_TABLE.outgoing(state), state

    def test_event_alphabet_is_pinned(self):
        # The model checker's interleaving space is exactly this list.
        assert EVENTS == (
            "signaling-chunk",
            "data-chunk",
            "ack-chunk",
            "cst-chunk",
            "local-open",
            "local-close",
            "sweep",
            "progress-police",
            "tombstone-overflow",
        )


class TestValidation:
    def test_unknown_src_state_is_rejected(self):
        with pytest.raises(ValueError, match="unknown src state"):
            Transition("t", "LIMBO", "sweep", CLOSED)

    def test_unknown_event_is_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            Transition("t", CLOSED, "meteor-strike", CLOSED)

    def test_unknown_guard_and_effect_are_rejected(self):
        with pytest.raises(ValueError, match="unknown guard"):
            Transition("t", CLOSED, "sweep", CLOSED, guard="moon-full")
        with pytest.raises(ValueError, match="unknown effect"):
            Transition("t", CLOSED, "sweep", CLOSED, effects=("explode",))

    def test_duplicate_transition_id_is_rejected(self):
        t = Transition("dup", CLOSED, "sweep", CLOSED)
        with pytest.raises(ValueError, match="duplicate transition id"):
            StateTable(states=STATES, initial=CLOSED, transitions=(t, t))

    def test_validate_reports_unreachable_and_dead_end(self):
        table = StateTable(
            states=(CLOSED, ESTABLISHED, "CLOSING"),
            initial=CLOSED,
            transitions=(
                Transition("loop", CLOSED, "sweep", CLOSED),
                Transition("dead", ESTABLISHED, "sweep", "CLOSING"),
            ),
        )
        problems = table.validate()
        assert any("unreachable" in p for p in problems)

    def test_validate_reports_unguarded_nondeterminism(self):
        table = StateTable(
            states=(CLOSED, ESTABLISHED),
            initial=CLOSED,
            transitions=(
                Transition("a", CLOSED, "sweep", ESTABLISHED),
                Transition("b", CLOSED, "sweep", CLOSED),
            ),
        )
        assert any("both unguarded" in p for p in table.validate())


class TestRendering:
    def test_markdown_has_a_row_per_transition(self):
        text = lifecycle_markdown()
        for transition in STATE_TABLE.transitions:
            assert f"`{transition.transition_id}`" in text

    def test_mermaid_aliases_hyphenated_states(self):
        text = lifecycle_mermaid()
        assert 'state "EVICTED-idle" as EVICTED_idle' in text
        assert text.startswith("stateDiagram-v2")

    def test_docs_block_roundtrips_through_extract(self):
        block = LIFECYCLE.rendered()
        assert block.startswith("<!-- state-table:begin -->")
        assert block.endswith("<!-- state-table:end -->")
        assert extract(f"# header\n\n{block}\n\ntrailer\n", LIFECYCLE.marker) == block

    def test_extract_block_returns_none_without_markers(self):
        assert extract("# just a doc\n", LIFECYCLE.marker) is None

    def test_row_line_points_at_the_declaration(self):
        source = Path(state_table.__file__).read_text(encoding="utf-8").splitlines()
        for tid in ("establish", "close", "close-local", "forget-refused"):
            line = row_line(tid)
            assert f'"{tid}"' in source[line - 1]

