"""Each CHANGES.md entry stays readable in one sitting.

An entry is a ``- PR <n> ...`` line and every line after it up to the
next entry, its ``FOUND:`` and ``MENDED:`` lines included.  Entries
numbered ``FIRST_HELD`` and up, the first written under the limit, hold
at most ``LIMIT`` characters each.  Narrative and run tables belong in
``docs/benchmarking.md``; an entry says what changed and what was found.
"""

from __future__ import annotations

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
FIRST_HELD = 46
LIMIT = 3_000

_ENTRY = re.compile(r"^- PR (\d+)\b", re.MULTILINE)


def entries(text: str) -> list[tuple[int, str]]:
    """``(PR number, entry text)`` for each entry, in file order."""
    starts = list(_ENTRY.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    return [
        (int(match.group(1)), text[match.start():end].rstrip("\n"))
        for match, end in zip(starts, ends)
    ]


def test_an_entry_runs_to_the_next_and_keeps_its_found_lines():
    text = "- PR 45: a\nFOUND: b\n- PR 46 · c\nMENDED: d\nFOUND: e\n- PR 46, review fixes: f\n"
    assert entries(text) == [
        (45, "- PR 45: a\nFOUND: b"),
        (46, "- PR 46 · c\nMENDED: d\nFOUND: e"),
        (46, "- PR 46, review fixes: f"),
    ]


def test_every_held_entry_is_at_most_3000_characters():
    held = [(pr, body) for pr, body in entries(CHANGES.read_text(encoding="utf-8"))
            if pr >= FIRST_HELD]
    assert held, f"no CHANGES.md entry numbered {FIRST_HELD} or up: has the format changed?"
    too_long = [f"PR {pr}: {len(body)} characters" for pr, body in held if len(body) > LIMIT]
    assert not too_long, f"CHANGES.md entries over {LIMIT} characters: {too_long}"
