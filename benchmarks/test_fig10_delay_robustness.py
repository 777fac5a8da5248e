"""Figure 10: delay-distribution robustness across workloads and reuse.

The paper drives Table II's case-5 custom application with P(x, y) Poisson
workloads across two web servers and R(m, n) connection-reuse ratios at the
application server, then shows the inter-flow delay peak between S2-S3 and
S3-S8 staying within [40, 60] ms (60 ms ground truth) across all settings.

We sweep the same (workload, reuse) grid and assert the dominant peak of
the S2->S3 / S3->S8 delay histogram stays within one 20 ms bin of the
60 ms ground truth in every configuration.
"""

import pytest

from repro.core.signatures import SignatureConfig, build_application_signatures
from repro.scenarios import AppPlan, three_tier_lab

DURATION = 60.0
GROUND_TRUTH = 0.06  # the app server's processing delay
PAIR = (("S2", "S3"), ("S3", "S8"))

#: (label, rate for S1's client, rate for S2's client, reuse at app server)
SETTINGS = [
    ("P(5,5) R(0,0)", 5.0, 5.0, 0.0),
    ("P(5,1) R(0,20)", 5.0, 1.0, 0.2),
    ("P(1,5) R(0,90)", 1.0, 5.0, 0.9),
    ("P(1,5) R(50,50)", 1.0, 5.0, 0.5),
    ("P(5,1) R(0,50)", 5.0, 1.0, 0.5),
    ("P(1,5) R(90,10)", 1.0, 5.0, 0.9),
]


def run_setting(rate1, rate2, reuse, seed=3):
    plans = (
        AppPlan(
            "custom-a",
            (("web", ("S1",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
            ("S22",),
            request_rate=rate1,
            reuse=reuse,
        ),
        AppPlan(
            "custom-b",
            (("web", ("S2",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
            ("S21",),
            request_rate=rate2,
            reuse=reuse,
        ),
    )
    scenario = three_tier_lab(plans, seed=seed)
    log = scenario.run(0.5, DURATION)
    sigs = build_application_signatures(log, SignatureConfig())
    # Both custom apps share S3/S8, so they form one group.
    return next(iter(sigs.values()))


def test_fig10_delay_peak_robustness(benchmark, record_table):
    def sweep():
        rows = []
        for label, r1, r2, reuse in SETTINGS:
            sig = run_setting(r1, r2, reuse)
            peak = sig.dd.dominant_peak(PAIR)
            n = sig.dd.summary(PAIR).n
            rows.append((label, peak, n))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [
        "Fig 10: DD peak for S2->S3 / S3->S8 across workload x reuse "
        f"(ground truth {GROUND_TRUTH * 1000:.0f} ms, 20 ms bins)"
    ]
    lines.append(f"{'setting':<18} {'peak (ms)':>10} {'samples':>8}")
    failures = []
    for label, peak, n in rows:
        lines.append(f"{label:<18} {peak * 1000:>10.0f} {n:>8}")
        # Paper: the peak persists within [40, 60] ms of ground truth;
        # our bins are 20 ms, so allow one bin around 60-70 ms.
        if not (GROUND_TRUTH - 0.02) <= peak <= (GROUND_TRUTH + 0.03):
            failures.append(f"{label}: peak {peak * 1000:.0f}ms off ground truth")
    record_table("fig10_delay_robustness", lines)
    assert not failures, "\n".join(failures)
