"""``fuzz-campaign``: the differential fuzz campaign, as CI runs it.

``repro.gen.run_campaign(count=200, seed, jobs=nproc)`` with the default
checks and families.  A campaign must find zero disagreements, and its
summary must not depend on ``jobs``: the traced run compares the
``jobs=nproc`` summary with the in-process ``jobs=1`` one.
"""

from __future__ import annotations

import os
import statistics
import time

from pbstats import Result, summarize
import pbtrace

COUNT = 200

#: Seconds one campaign takes at jobs=2 on a 2-vCPU box; sizes the
#: number of campaigns so a run measures about ``--seconds``.
NOMINAL_CAMPAIGN_S = 5.0


def campaigns_for(seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_CAMPAIGN_S))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup(seed: int):
    from repro.gen import run_campaign

    return run_campaign


def digest(summary) -> tuple:
    """Everything a campaign report says, for equality across ``jobs``."""
    return (
        summary.format(verbose=True),
        tuple(
            (r.seed, r.family, r.structural_hash, r.description, r.shrunk,
             tuple((c.name, c.status, c.detail) for c in r.results))
            for r in summary.reports
        ),
        tuple(summary.zone_failures),
    )


def _campaign(run_campaign, seed: int, jobs: int, result: Result):
    start = time.perf_counter()
    summary = run_campaign(count=COUNT, seed=seed, jobs=jobs)
    elapsed = time.perf_counter() - start
    for report in summary.reports:
        result.op(report.ok, f"instance {report.seed} ({report.family}):"
                  f" {[f.name for f in report.failures]}")
    result.check(len(summary.reports) == COUNT,
                 f"campaign {seed} reported {len(summary.reports)} of {COUNT}")
    result.check(not summary.zone_failures,
                 f"campaign {seed}: zone algebra failures")
    return summary, elapsed


def run(seed: int, seconds: int, trace: bool, result: Result, out_dir: str):
    run_campaign = setup(seed)
    jobs = nproc()
    if trace:
        return _traced(run_campaign, seed, jobs, result, out_dir)
    walls = []
    for index in range(campaigns_for(seconds)):
        _summary, elapsed = _campaign(run_campaign, seed + COUNT * index, jobs, result)
        walls.append(elapsed)
    result.put("ops_per_s", COUNT * len(walls) / sum(walls), "1/s")
    result.put("latency_p50_ms", statistics.median(walls) * 1e3, "ms")
    result.say(f"fuzz-campaign seed={seed} jobs={jobs} campaigns={len(walls)}")
    result.say(f"  fuzz.instances_per_s  {COUNT * len(walls) / sum(walls):.2f} 1/s")
    result.say("  campaign walls        "
               + ", ".join(f"{w:.3f} s" for w in walls))


def _traced(run_campaign, seed, jobs, result: Result, out_dir: str):
    from repro.gen import differential
    from repro.util import counters

    pooled, pooled_s = _campaign(run_campaign, seed, jobs, result)
    _serial, serial_s = _campaign(run_campaign, seed, 1, result)

    tracer = pbtrace.Tracer()
    pbtrace.install(tracer)
    tracer.patch(differential, "run_instance_checks", "fuzz.instance",
                 lambda args: args[0].seed)
    counters.reset()
    start = time.perf_counter_ns()
    try:
        traced, _ = _campaign(run_campaign, seed, 1, result)
    finally:
        wall = time.perf_counter_ns() - start
        tracer.restore()
    result.check(digest(traced) == digest(pooled),
                 f"campaign {seed}: jobs={jobs} summary differs from jobs=1")

    lines, metrics = pbtrace.layer_report(tracer.table(), wall)
    checks = [f"gen.check.{name}" for name in pbtrace.CHECK_NAMES]
    durations = tracer.durations(["fuzz.instance"] + checks)
    tasks = summarize([d / 1e6 for d in durations["fuzz.instance"]])
    lines.append(f"  par.task_p50_ms {tasks['p50']:.2f}  par.task_max_ms "
                 f"{max(durations['fuzz.instance']) / 1e6:.2f}"
                 f"  (n={tasks['count']}, traced)")
    for name in checks:
        lines.append(f"  {name}.ms {sum(durations[name]) / 1e6:.1f} (traced)")
    extras = {
        "par.efficiency": (serial_s / (jobs * pooled_s), "ratio"),
        "trace.overhead": (wall / 1e9 / serial_s, "ratio"),
    }
    dropped = tracer.write_chrome(os.path.join(out_dir, f"fuzz-campaign-{seed}.trace.json"))
    return lines, metrics, counters.export(), extras, dropped
