"""Analysis bench: fault campaign — repair recovery and overhead.

The headline robustness claim for the fault-management subsystem: at a
damaging stuck-cell rate (>= 5 %, stuck at weight +1), the spare-remap
repair ladder recovers at least half of the accuracy the unrepaired
accelerator loses, pays for every repair through the event accounting,
and never breaks batch invariance (one batch vs single-sample batches).
"""

from repro.eval.formatting import format_table
from repro.faults import CampaignConfig, run_campaign


def fault_campaign():
    return run_campaign(CampaignConfig())


def test_fault_campaign(benchmark, record_report):
    report = benchmark.pedantic(fault_campaign, rounds=1, iterations=1)
    record_report("fault_campaign", report.render())

    config = report.config
    # Parity: repair machinery must not desynchronize the two engines.
    assert report.parity_ok

    damaging = [
        f
        for f in config.fault_fractions
        if f >= 0.05
        and report.clean_accuracy - report.mean_accuracy(f, "none") > 0.01
    ]
    assert damaging, "campaign produced no damaging fault rate to repair"
    for fraction in damaging:
        # Headline: spare-remap (+retry) claws back >= half the loss.
        assert report.recovery(fraction, "spare") >= 0.5
        # Repair is charged: deploy energy and time rise above no-repair.
        energy, time_s = report.repair_overhead(fraction, "spare")
        assert energy > 0 and time_s > 0
        # Retry alone cannot fix stuck cells — and costs energy trying.
        assert (
            report.mean_accuracy(fraction, "retry")
            <= report.mean_accuracy(fraction, "spare") + 1e-9
        )

    # Repair never makes things worse than no repair (graceful degradation).
    for fraction in config.fault_fractions:
        none_acc = report.mean_accuracy(fraction, "none")
        for policy in ("spare", "remap"):
            assert report.mean_accuracy(fraction, policy) >= none_acc - 0.02

    # In-situ training survived every run.
    rows = [
        [r.fraction * 100, r.policy, r.trial, r.train_loss_first, r.train_loss_last]
        for r in report.rows
    ]
    assert all(r[3] == r[3] and r[4] == r[4] for r in rows)  # no NaNs
    record_report(
        "fault_campaign_training",
        format_table(
            ["stuck (%)", "policy", "trial", "first loss", "last loss"],
            rows,
            title="In-situ training survival under faults + repair",
        ),
    )
