"""Each generated docs block is the one its live table renders."""

from __future__ import annotations

import pytest

from tests.docs_blocks import BLOCKS, REGENERATE, REPO, Block, extract, splice

_BY_NAME = pytest.mark.parametrize("block", BLOCKS, ids=[block.name for block in BLOCKS])


@_BY_NAME
def test_committed_block_is_current(block: Block):
    committed = extract(block.docs.read_text(encoding="utf-8"), block.marker)
    assert committed == block.rendered(), (
        f"{block.docs.relative_to(REPO)}: the generated {block.name} block is stale; "
        f"rewrite it with `{REGENERATE}`"
    )


@_BY_NAME
def test_regenerating_replaces_a_stale_block_in_place(block: Block):
    stale = f"# head\n\n<!-- {block.marker}:begin -->\nold\n<!-- {block.marker}:end -->\n\n# tail\n"
    text = splice(stale, block)
    assert text.startswith("# head\n\n") and text.endswith("\n\n# tail\n")
    assert extract(text, block.marker) == block.rendered()
