"""The header-width tables: the committed docs block is the generated one."""

from __future__ import annotations

from pathlib import Path

from repro.core.wire_table import BLOCK_BEGIN, BLOCK_END, docs_block, extract_block, main

DOCS = Path(__file__).parents[2] / "docs" / "wire-format.md"


class TestMain:
    def test_check_fails_on_stale_block(self, tmp_path):
        docs = tmp_path / "wire-format.md"
        docs.write_text(f"# Wire\n\n{BLOCK_BEGIN}\nold\n{BLOCK_END}\n", encoding="utf-8")
        assert main(["--docs", str(docs), "--check"]) == 1
        assert main(["--docs", str(docs), "--write"]) == 0
        assert extract_block(docs.read_text(encoding="utf-8")) == docs_block()
        assert main(["--docs", str(docs), "--check"]) == 0

    def test_committed_docs_block_is_current(self):
        assert main(["--docs", str(DOCS), "--check"]) == 0
