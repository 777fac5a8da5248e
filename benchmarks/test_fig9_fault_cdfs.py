"""Figure 9: fault effects on byte-count and delay CDFs.

The paper injects (a) 1% loss on both links connecting the web and
application servers and (b) verbose logging on the application server of a
four-node three-tier app, then plots:

* Fig 9(a): the CDF of per-flow byte counts — loss shifts it right
  (retransmissions inflate counters);
* Fig 9(b): the CDF of delays between incoming and outgoing flows at the
  application server — both logging and loss shift it right.

We reproduce both CDFs from the control-plane measurements and assert the
shift directions and visibility (KS distance).
"""

import pytest

from repro.core.events import extract_flow_records
from repro.core.signatures.delay import delay_cdf
from repro.core.signatures.flowstats import byte_cdf
from repro.faults import LinkLoss, LoggingMisconfig
from repro.scenarios import AppPlan, three_tier_lab

DURATION = 60.0
APP_PAIR = (("S1", "S3"), ("S3", "S8"))  # web->app incoming, app->db outgoing

FOUR_NODE = AppPlan(
    "fig9",
    (("web", ("S1",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
    ("S22",),
    request_rate=5.0,
)


def run_case(fault=None, seed=3):
    """The flow records of one run; the single app is the only group."""
    scenario = three_tier_lab([FOUR_NODE], seed=seed)
    if fault is not None:
        scenario.inject(fault, at=0.0)
    return extract_flow_records(scenario.run(0.5, DURATION))


@pytest.fixture(scope="module")
def records():
    vanilla = run_case()
    loss = run_case(LinkLoss([("S1", "ofs3"), ("S3", "ofs5")], 0.03))
    logging_run = run_case(LoggingMisconfig("S3", overhead=0.05))
    return vanilla, loss, logging_run


def cdf_rows(cdf, points=10):
    rows = []
    samples = cdf.points()
    step = max(1, len(samples) // points)
    for value, frac in samples[::step]:
        rows.append(f"  {value:12.1f}  {frac:6.3f}")
    return rows


def test_fig9a_byte_count_cdf(benchmark, records, record_table):
    vanilla, loss, _ = records

    def build_cdfs():
        return byte_cdf(vanilla), byte_cdf(loss)

    v_cdf, l_cdf = benchmark.pedantic(build_cdfs, rounds=1, iterations=1)

    from repro.analysis.plotting import ascii_cdf

    lines = ["Fig 9(a): per-flow byte count CDF (value, fraction)"]
    lines.append("vanilla:")
    lines.extend(cdf_rows(v_cdf))
    lines.append("loss (1-2% on web-app links):")
    lines.extend(cdf_rows(l_cdf))
    ks = v_cdf.ks_distance(l_cdf)
    lines.append(f"KS distance vanilla vs loss: {ks:.3f}")
    lines.append("")
    lines.append(ascii_cdf({"vanilla": v_cdf, "loss": l_cdf}, x_label="bytes"))
    record_table("fig9a_byte_cdf", lines)

    # Shape: loss shifts mass to larger byte counts — the mean and the
    # extreme quantiles move right, and the distributions visibly differ.
    assert max(l_cdf.samples) > max(v_cdf.samples)
    assert sum(l_cdf.samples) / len(l_cdf.samples) > sum(v_cdf.samples) / len(
        v_cdf.samples
    )
    assert ks > 0.005


def test_fig9b_delay_cdf(benchmark, records, record_table):
    vanilla, loss, logging_run = records

    def build_cdfs():
        return tuple(
            delay_cdf([r.arrival for r in run], APP_PAIR)
            for run in (vanilla, logging_run, loss)
        )

    v_cdf, g_cdf, l_cdf = benchmark.pedantic(build_cdfs, rounds=1, iterations=1)

    from repro.analysis.plotting import ascii_cdf

    lines = ["Fig 9(b): web->app->db inter-flow delay CDF at app server S3 (seconds)"]
    for name, cdf in (("vanilla", v_cdf), ("logging", g_cdf), ("loss", l_cdf)):
        lines.append(f"{name}: median={cdf.quantile(0.5)*1000:.1f}ms "
                     f"p95={cdf.quantile(0.95)*1000:.1f}ms n={len(cdf.samples)}")
    lines.append("")
    lines.append(
        ascii_cdf(
            {"vanilla": v_cdf, "logging": g_cdf, "loss": l_cdf},
            x_label="delay (s)",
        )
    )
    record_table("fig9b_delay_cdf", lines)

    # Logging shifts the whole distribution (median moves by ~overhead).
    assert g_cdf.quantile(0.5) > v_cdf.quantile(0.5) + 0.03
    # Loss shifts the tail (retransmission delays), median roughly holds.
    assert l_cdf.quantile(0.95) > v_cdf.quantile(0.95)
    assert abs(l_cdf.quantile(0.5) - v_cdf.quantile(0.5)) < 0.03
