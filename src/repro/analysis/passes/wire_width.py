"""wire-width: every literal struct format string names network byte order.

A native-order struct (``"HBB"``, ``"=I"``) packs the same bytes as
``">HBB"`` on one host and different bytes on another, so a same-host
round trip — which is all the test suite can run — never sees it (and
``"<Q"`` is host-independent but not the wire's order).  This pass
requires an explicit ``>`` or ``!`` prefix on every literal format
given to ``struct.Struct`` / ``pack`` / ``unpack`` / ``unpack_from`` /
``pack_into`` / ``iter_unpack`` / ``calcsize``.

What it no longer checks, and why (docs/static-analysis.md, "Retired
passes"): header sizes are pinned by :mod:`repro.core.wire_table`'s
import-time asserts and the codec structs are built from that table;
field positions are inferred from live encodings by
``tests/core/test_wire_layout.py``; and every literal ``struct`` call
site in ``src/`` runs in the tier-1 suite, where an invalid format or a
short slice raises ``struct.error``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleUnit, Pass, dotted_name

__all__ = ["WireWidthPass"]

_STRUCT_CALLS = {"pack", "unpack", "unpack_from", "pack_into", "iter_unpack", "calcsize"}


def _literal_format(node: ast.Call) -> str | None:
    """The literal format string of a ``struct`` call, else None."""
    callee = dotted_name(node.func)
    is_struct = callee in {"struct.Struct", "Struct"} or (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _STRUCT_CALLS
        and dotted_name(node.func.value) == "struct"
    )
    if not is_struct or not node.args:
        return None
    fmt = node.args[0]
    if isinstance(fmt, ast.Constant) and isinstance(fmt.value, str):
        return fmt.value
    return None


class WireWidthPass(Pass):
    id = "wire-width"
    description = "literal struct formats use explicit network byte order"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            fmt = _literal_format(node)
            if fmt is not None and not fmt.startswith((">", "!")):
                yield self.finding(
                    unit,
                    node,
                    f"struct format {fmt!r} lacks explicit network byte order "
                    "('>' or '!'): wire formats must not depend on host endianness",
                    symbol=f"fmt:{fmt}:endian",
                )
