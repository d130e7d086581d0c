"""The declarative lifecycle table: validation, rendering, docs drift."""

from __future__ import annotations

import pytest

from repro.core.state_table import (
    BLOCK_BEGIN,
    BLOCK_END,
    CLOSED,
    ESTABLISHED,
    EVENTS,
    INITIAL_STATE,
    STATE_TABLE,
    STATES,
    StateTable,
    Transition,
    docs_block,
    extract_block,
    main,
    render_markdown,
    render_mermaid,
    row_line,
    table_path,
)


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
        text = render_markdown()
        for transition in STATE_TABLE.transitions:
            assert f"`{transition.transition_id}`" in text

    def test_mermaid_aliases_hyphenated_states(self):
        text = render_mermaid()
        assert 'state "EVICTED-idle" as EVICTED_idle' in text
        assert text.startswith("stateDiagram-v2")

    def test_docs_block_roundtrips_through_extract(self):
        block = docs_block()
        assert block.startswith(BLOCK_BEGIN)
        assert block.endswith(BLOCK_END)
        assert extract_block(f"# header\n\n{block}\n\ntrailer\n") == block

    def test_extract_block_returns_none_without_markers(self):
        assert extract_block("# just a doc\n") is None

    def test_row_line_points_at_the_declaration(self):
        source = table_path().read_text(encoding="utf-8").splitlines()
        for tid in ("establish", "close", "close-local", "forget-refused"):
            line = row_line(tid)
            assert f'"{tid}"' in source[line - 1]


class TestMain:
    def test_write_then_check_roundtrips(self, tmp_path, capsys):
        docs = tmp_path / "architecture.md"
        docs.write_text("# Architecture\n", encoding="utf-8")
        assert main(["--docs", str(docs), "--write"]) == 0
        assert main(["--docs", str(docs), "--check"]) == 0
        out = capsys.readouterr().out
        assert "up to date" in out

    def test_check_fails_on_stale_block(self, tmp_path, capsys):
        docs = tmp_path / "architecture.md"
        docs.write_text(
            f"# Architecture\n\n{BLOCK_BEGIN}\nold\n{BLOCK_END}\n", encoding="utf-8"
        )
        assert main(["--docs", str(docs), "--check"]) == 1

    def test_write_replaces_existing_block_in_place(self, tmp_path):
        docs = tmp_path / "architecture.md"
        docs.write_text(
            f"# head\n\n{BLOCK_BEGIN}\nstale\n{BLOCK_END}\n\n# tail\n", encoding="utf-8"
        )
        assert main(["--docs", str(docs), "--write"]) == 0
        text = docs.read_text(encoding="utf-8")
        assert "stale" not in text
        assert text.startswith("# head")
        assert text.rstrip().endswith("# tail")
        assert extract_block(text) == docs_block()

    def test_committed_docs_block_is_current(self):
        assert main(["--check"]) == 0

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
