"""Pipeline-overlap throughput gate on the sharded serving path.

Serves the same seeded request burst on one model sharded across a
pipeline of accelerators twice — once with the pipe held exclusive per
batch (serialized) and once with overlapped stage execution (stage k of
batch i concurrent with stage k-1 of batch i+1) — and requires the
overlapped makespan to be strictly smaller.  Virtual-clock time, so the
gate is deterministic and host-speed independent.  The plan's analytic
``fill + (n-1) * bottleneck`` prediction is recorded alongside the
measured speedup as a cross-check on the cost model.
"""

from repro.serving import ShardWorkloadConfig, makespan_s, run_shard_workload
from repro.serving.shard_workload import plan_workload

CONFIG = ShardWorkloadConfig()
MIN_SPEEDUP = 1.2


def test_overlap_beats_serialized_stage_execution(record_report):
    plan = plan_workload(CONFIG)
    overlap_report = run_shard_workload(CONFIG, overlap=True).report
    serial_report = run_shard_workload(CONFIG, overlap=False).report
    assert overlap_report.completion_rate == 1.0
    assert serial_report.completion_rate == 1.0

    overlap_makespan = makespan_s(overlap_report)
    serial_makespan = makespan_s(serial_report)
    speedup = serial_makespan / overlap_makespan
    n = CONFIG.n_requests
    predicted = plan.overlap_speedup(
        -(-n // CONFIG.server.max_batch)  # batches in the burst
    )

    record_report(
        "pipeline_overlap",
        "\n".join(
            [
                f"model {list(CONFIG.dims)} across {plan.n_stages} stages "
                f"({plan.n_accelerators} accelerators), "
                f"{n} requests, batch cap {CONFIG.server.max_batch}",
                f"serialized makespan: {serial_makespan * 1e6:.2f} us "
                f"({n / serial_makespan:.3e} req/s virtual)",
                f"overlapped makespan: {overlap_makespan * 1e6:.2f} us "
                f"({n / overlap_makespan:.3e} req/s virtual)",
                f"measured speedup: {speedup:.2f}x "
                f"(plan predicts {predicted:.2f}x for back-to-back batches; "
                f"bar {MIN_SPEEDUP:.1f}x)",
            ]
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"overlap gains only {speedup:.2f}x over serialized stages "
        f"(bar {MIN_SPEEDUP:.1f}x)"
    )
