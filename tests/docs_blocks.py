"""The two generated blocks of the docs, rendered from the live tables.

``docs/wire-format.md`` carries the wire layout
(:data:`repro.core.wire_table.TABLES`) and ``docs/architecture.md`` the
connection lifecycle (:data:`repro.analysis.state_table.STATE_TABLE`),
each between a ``<!-- <marker>:begin -->`` / ``<!-- <marker>:end -->``
pair.  ``tests/test_docs_blocks.py`` holds each committed block to the
one rendered here.  After a table changes, rewrite both blocks with::

    PYTHONPATH=src python -m tests.docs_blocks
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

from repro.analysis.state_table import STATE_TABLE
from repro.core.wire_table import TABLES, WireTable

REPO = Path(__file__).resolve().parents[1]
REGENERATE = "PYTHONPATH=src python -m tests.docs_blocks"


def wire_markdown(table: WireTable) -> str:
    """One wire table as GitHub markdown."""
    lines = [
        f"### `{table.table_id}` — {table.title} "
        f"({table.total_bytes} bytes, `\"{table.struct_format}\"`)",
        "",
        "| offset | field | bytes | struct | notes |",
        "|---|---|---|---|---|",
    ]
    for field in table.fields:
        lines.append(
            f"| {field.offset} | {field.name} | {field.width} "
            f"| `{field.fmt}` | {field.notes} |"
        )
    return "\n".join(lines)


def lifecycle_markdown() -> str:
    """The lifecycle's transition relation as GitHub markdown."""
    lines = [
        f"### Connection lifecycle — {len(STATE_TABLE.states)} states, "
        f"{len(STATE_TABLE.transitions)} transitions",
        "",
        "| id | from | event | to | guard | effects | notes |",
        "|---|---|---|---|---|---|---|",
    ]
    for t in STATE_TABLE.transitions:
        effects = ", ".join(t.effects) or "—"
        lines.append(
            f"| `{t.transition_id}` | {t.src} | {t.event} | {t.dst} "
            f"| {t.guard or '—'} | {effects} | {t.notes} |"
        )
    return "\n".join(lines)


def lifecycle_mermaid() -> str:
    """The lifecycle as a mermaid ``stateDiagram-v2``; hyphenated states
    are aliased, which mermaid ids cannot be."""

    def alias(state: str) -> str:
        return state.replace("-", "_")

    lines = ["stateDiagram-v2"]
    lines += [f'    state "{s}" as {alias(s)}' for s in STATE_TABLE.states if alias(s) != s]
    lines.append(f"    [*] --> {alias(STATE_TABLE.initial)}")
    for t in STATE_TABLE.transitions:
        label = f"{t.event} [{t.guard}]" if t.guard else t.event
        lines.append(f"    {alias(t.src)} --> {alias(t.dst)}: {label}")
    return "\n".join(lines)


class Block(NamedTuple):
    """One generated block: its test id, the docs file and marker that
    hold it, and its body."""

    name: str
    docs: Path
    marker: str
    body: Callable[[], str]

    def rendered(self) -> str:
        """The full block, marker lines included."""
        return "\n".join([
            f"<!-- {self.marker}:begin -->",
            f"<!-- Generated by `{REGENERATE}`;",
            "     held by tests/test_docs_blocks.py. Do not edit. -->",
            "",
            self.body(),
            "",
            f"<!-- {self.marker}:end -->",
        ])


WIRE_FORMAT = Block(
    "wire-format",
    REPO / "docs" / "wire-format.md",
    "wire-tables",
    lambda: "\n\n".join(wire_markdown(TABLES[tid]) for tid in sorted(TABLES)),
)
LIFECYCLE = Block(
    "lifecycle",
    REPO / "docs" / "architecture.md",
    "state-table",
    lambda: f"{lifecycle_markdown()}\n\n```mermaid\n{lifecycle_mermaid()}\n```",
)
BLOCKS = (WIRE_FORMAT, LIFECYCLE)


def _span(text: str, marker: str) -> tuple[int, int] | None:
    begin = text.find(f"<!-- {marker}:begin -->")
    end_marker = f"<!-- {marker}:end -->"
    end = text.find(end_marker)
    if begin == -1 or end < begin:
        return None
    return begin, end + len(end_marker)


def extract(text: str, marker: str) -> str | None:
    """The block between *marker*'s begin/end lines, or None."""
    span = _span(text, marker)
    return None if span is None else text[span[0]:span[1]]


def splice(text: str, block: Block) -> str:
    """*text* with its *block* replaced by the freshly rendered one."""
    span = _span(text, block.marker)
    if span is None:
        raise ValueError(f"{block.docs.name} has no {block.marker} markers")
    return text[:span[0]] + block.rendered() + text[span[1]:]


def main() -> None:
    for block in BLOCKS:
        text = block.docs.read_text(encoding="utf-8")
        block.docs.write_text(splice(text, block), encoding="utf-8")
        print(f"wrote the {block.name} block of {block.docs.relative_to(REPO)}")


if __name__ == "__main__":
    main()
