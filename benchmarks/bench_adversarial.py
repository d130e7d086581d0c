"""ADVERSARIAL: the attack suite as a measured, golden-gated workload.

ROADMAP item 4 asks what happens when the strict receiver meets a
deliberate attacker rather than a merely unreliable network.  This
bench drives every scenario in :data:`repro.app.adversarial.SCENARIOS`
— inconsistent-overlap forgery (both forge-after and poison-first),
almost-sorted and interrupt-coalescing reorder, a signaling storm,
C.ID churn against a deliberately small tombstone cap, slow-loris
tricklers pinning the shared pool, and a liar in gap reports — and reports, per scenario: honest
completions, detection counters, attack volume, Jain fairness over
honest shares, and peak pool draw.

Shape: reorder costs nothing (labels make order irrelevant); overlap
forgery is always *detected* — at worst it denies service, never
silently corrupts; floods are reclaimed by sweeps into bounded
negative caches; tricklers are evicted on throughput grounds and the
honest conversations then complete fairly.  Every scenario must also
pass the invariant harness itself (:func:`check_invariants`), so this
bench doubles as an end-to-end run of the adversarial contract.
"""

from __future__ import annotations

from _common import print_table, register_bench, scaled
from repro.app.adversarial import (
    AttackReport,
    check_invariants,
    run_cid_churn,
    run_gap_liar,
    run_overlap_attack,
    run_reorder_attack,
    run_signaling_storm,
    run_slow_loris,
)

SEED = 29
HONEST = 6
TOMBSTONE_CAP = 64


def run_scenarios(payload_scale: float = 1.0) -> dict[str, AttackReport]:
    """Every attack scenario at pinned seeds; figures are deterministic."""
    honest = scaled(HONEST, payload_scale, minimum=2)
    reports = {
        "overlap": run_overlap_attack(SEED, conversations=honest),
        "overlap-poison-first": run_overlap_attack(
            SEED, conversations=honest, forge_first=True
        ),
        "reorder-almost-sorted": run_reorder_attack(
            SEED, "almost-sorted", conversations=honest
        ),
        "reorder-coalescing": run_reorder_attack(
            SEED, "coalescing", conversations=honest
        ),
        "signaling-storm": run_signaling_storm(
            SEED, honest=honest, storm_frames=scaled(400, payload_scale, minimum=50)
        ),
        "cid-churn": run_cid_churn(
            SEED,
            honest=honest,
            churn_cycles=scaled(300, payload_scale, minimum=80),
            tombstone_cap=TOMBSTONE_CAP,
        ),
        "slow-loris": run_slow_loris(
            SEED, honest=honest, attackers=scaled(24, payload_scale, minimum=6)
        ),
        "gap-liar": run_gap_liar(SEED, conversations=honest),
    }
    for report in reports.values():
        check_invariants(report)
    return reports


def _complete(report: AttackReport) -> int:
    return sum(1 for outcome in report.outcomes if outcome.complete)


# ----------------------------------------------------------------------
# pytest targets pinning the shape
# ----------------------------------------------------------------------

def test_reorder_is_free_and_overlap_is_detected():
    reports = run_scenarios()
    for name in ("reorder-almost-sorted", "reorder-coalescing"):
        assert _complete(reports[name]) == len(reports[name].outcomes)
    assert reports["overlap"].detections["overlap_conflicts"] > 0
    assert _complete(reports["overlap"]) == len(reports["overlap"].outcomes)
    assert reports["overlap-poison-first"].detected() > 0


def test_floods_are_reclaimed_within_bounds():
    reports = run_scenarios()
    storm = reports["signaling-storm"]
    assert storm.stats["evicted_total"] >= storm.attack_frames
    churn = reports["cid-churn"]
    assert churn.stats["tombstones"] <= TOMBSTONE_CAP
    assert churn.extra["tombstones_dropped"] > 0
    loris = reports["slow-loris"]
    assert loris.extra["stalled_evictions"] > 0
    assert _complete(loris) == len(loris.outcomes)


def test_adversarial_suite_wallclock(benchmark):
    reports = benchmark(run_scenarios, 0.5)
    assert all(check_invariants(r) is None for r in reports.values())


@register_bench
def run(payload_scale: float = 1.0) -> dict:
    """Perf entry point: one figure block per scenario."""
    figures: dict[str, object] = {}
    for name, report in run_scenarios(payload_scale).items():
        figures[f"{name}.complete"] = _complete(report)
        figures[f"{name}.conversations"] = len(report.outcomes)
        figures[f"{name}.detected"] = report.detected()
        figures[f"{name}.attack_frames"] = report.attack_frames
        figures[f"{name}.fairness"] = round(report.honest_fairness(), 4)
        figures[f"{name}.peak_pool_bytes"] = report.stats["budget_peak"]
        figures[f"{name}.tombstones"] = report.stats["tombstones"]
    return figures


def main():
    reports = run_scenarios()
    rows = [(
        "scenario", "complete", "detected", "attack frames",
        "fairness", "peak pool (KiB)", "tombstones", "stalled",
    )]
    for name, report in reports.items():
        rows.append((
            name,
            f"{_complete(report)}/{len(report.outcomes)}",
            report.detected(),
            report.attack_frames,
            round(report.honest_fairness(), 4),
            report.stats["budget_peak"] // 1024,
            report.stats["tombstones"],
            report.extra.get("stalled_evictions", 0),
        ))
    print_table("ADVERSARIAL — attack scenarios vs the invariant harness", rows)
    print("\npaper's frame: labels, not arrival order, carry meaning — so")
    print("reorder is free, forged overlaps are *detectable* content")
    print("disagreements instead of silent first/last-wins resolution,")
    print("and per-conversation state is cheap enough to shed under flood.")


if __name__ == "__main__":
    main()
