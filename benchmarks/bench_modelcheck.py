"""TOOLING: exhaustive lifecycle checking of the live endpoint.

Pins the shape of :mod:`repro.analysis.modelcheck`'s search (tier-1 runs
it): states, edges and rows covered of the default configuration and of
a wide one with three conversations for two tokens (admission refused,
every row fires), and zero violations.  States-per-second is printed,
never a figure: wall time varies by machine, the state space does not.
"""

from __future__ import annotations

import time

from _common import print_table, register_bench
from repro.analysis.modelcheck import ModelConfig, explore
from repro.analysis.state_table import STATE_TABLE

#: The checker's defaults, which tier-1 explores.
DEFAULT = ModelConfig(conversations=2, pool_tokens=1, tombstone_capacity=1)
WIDE = ModelConfig(conversations=3, pool_tokens=2, tombstone_capacity=2)


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: explore the default and the wide space."""
    default = explore(DEFAULT)
    wide = explore(WIDE)
    return {
        "modelcheck.states": default.states_explored,
        "modelcheck.edges": default.edges,
        "modelcheck.covered": len(default.fired),
        "modelcheck.violations": len(default.violations),
        "modelcheck.wide_states": wide.states_explored,
        "modelcheck.wide_edges": wide.edges,
        "modelcheck.wide_covered": len(wide.fired),
        "modelcheck.wide_violations": len(wide.violations),
    }


def test_default_space_is_clean_and_covered(benchmark):
    result = benchmark(explore, DEFAULT)
    assert result.ok
    assert result.uncovered() == []


def test_wide_space_is_clean(benchmark):
    result = benchmark(explore, WIDE)
    assert result.ok
    assert result.uncovered() == []


def main() -> None:
    rows = [["config", "states", "edges", "covered", "violations", "states/s"]]
    for name, config in (("default", DEFAULT), ("wide", WIDE)):
        start = time.perf_counter()
        result = explore(config)
        elapsed = time.perf_counter() - start
        rows.append(
            [
                name,
                result.states_explored,
                result.edges,
                f"{len(result.fired)}/{len(STATE_TABLE.by_id)}",
                len(result.violations),
                result.states_explored / elapsed if elapsed else float("inf"),
            ]
        )
    print_table("lifecycle checking of the live endpoint (exhaustive, bounded)", rows)


if __name__ == "__main__":
    main()
