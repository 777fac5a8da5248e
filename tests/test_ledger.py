"""The run ledger: content addressing, append-only round trips, damage
tolerance, and the perf-regression gate."""

import json
import os
import unittest
import warnings

from repro.obs.ledger import (
    AmbiguousRecordError,
    RunLedger,
    RunRecord,
    compare_records,
    gate_records,
    render_compare_table,
    render_records_table,
)


def make_record(**overrides):
    base = dict(
        run_id="deadbeef00000000",
        command="profile",
        scenario="lab",
        seed=3,
        messages=1000,
        phases={"model": 0.100, "model/extract": 0.040, "diff": 0.020},
        total_s=0.120,
        metrics={"unknown_changes": 0},
        repeats=3,
        noise_floor_pct=10.0,
        created_at="2026-01-01T00:00:00+0000",
    )
    base.update(overrides)
    return RunRecord(**base)


class RecordTest(unittest.TestCase):
    def test_round_trip(self):
        record = make_record(folded={"model;f.py:g": 0.05})
        clone = RunRecord.from_dict(record.to_dict())
        self.assertEqual(clone.record_id, record.record_id)
        self.assertEqual(clone.to_dict(), record.to_dict())

    def test_content_id_is_content_addressed(self):
        a = make_record()
        b = make_record()
        self.assertEqual(a.record_id, b.record_id)
        c = make_record(messages=1001)
        self.assertNotEqual(a.record_id, c.record_id)

    def test_content_id_excludes_itself(self):
        record = make_record()
        self.assertEqual(record.content_id(), record.record_id)

    def test_summary_omits_heavy_fields(self):
        record = make_record(folded={"model;f.py:g": 0.05})
        summary = record.summary()
        self.assertNotIn("folded", summary)
        self.assertEqual(summary["phases"], 3)
        self.assertTrue(summary["profiled"])

    def test_parent_era_line_with_bench_key_still_loads(self):
        data = make_record().to_dict()
        data["bench"] = {"throughput": {"simulate": {"messages_per_s": 1}}}
        data["record_id"] = "feedfacecafe"
        clone = RunRecord.from_dict(data)
        self.assertEqual(clone.record_id, "feedfacecafe")
        self.assertNotIn("bench", clone.to_dict())


class LedgerTest(unittest.TestCase):
    def test_append_and_read_back(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            first = ledger.append(make_record())
            second = ledger.append(make_record(messages=2000))
            records = ledger.records()
            self.assertEqual(
                [r.record_id for r in records],
                [first.record_id, second.record_id],
            )
            self.assertEqual(ledger.latest().record_id, second.record_id)

    def test_get_by_prefix(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            record = ledger.append(make_record())
            self.assertEqual(
                ledger.get(record.record_id[:4]).record_id, record.record_id
            )
            with self.assertRaises(KeyError):
                ledger.get("zzzz")

    def test_get_ambiguous_prefix(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            ledger.append(make_record())
            ledger.append(make_record(messages=2000))
            with self.assertRaises(AmbiguousRecordError) as ctx:
                ledger.get("")  # empty prefix matches both
            self.assertIn("ambiguous", str(ctx.exception))

    def test_latest_filters_by_run_id(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            ledger.append(make_record())
            other = ledger.append(
                make_record(run_id="feedface00000000", messages=2000)
            )
            self.assertEqual(
                ledger.latest(run_id="feedface00000000").record_id,
                other.record_id,
            )
            self.assertIsNone(ledger.latest(run_id="nosuchrun"))

    def test_corrupt_line_skipped_with_warning(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            kept = ledger.append(make_record())
            with open(ledger.path, "a", encoding="utf-8") as fh:
                fh.write('{"torn": \n')
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                records = ledger.records()
            self.assertEqual([r.record_id for r in records], [kept.record_id])
            self.assertTrue(
                any("unreadable ledger line" in str(w.message) for w in caught)
            )

    def test_empty_ledger(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(os.path.join(tmp, "never-created"))
            self.assertEqual(ledger.records(), [])
            self.assertIsNone(ledger.latest())

    def test_append_is_single_json_line(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            ledger = RunLedger(tmp)
            record = ledger.append(make_record(folded={"a;f": 1.0}))
            with open(ledger.path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            self.assertEqual(len(lines), 1)
            self.assertEqual(
                json.loads(lines[0])["record_id"], record.record_id
            )


class CompareTest(unittest.TestCase):
    def test_rows_cover_union_of_phases(self):
        baseline = make_record()
        current = make_record(
            phases={"model": 0.200, "rank": 0.010}, total_s=0.210
        )
        rows = compare_records(baseline, current)
        by_phase = {row["phase"]: row for row in rows}
        self.assertAlmostEqual(by_phase["model"]["delta_pct"], 100.0)
        self.assertIsNone(by_phase["rank"]["baseline_s"])
        self.assertIsNone(by_phase["rank"]["delta_pct"])
        self.assertIsNone(by_phase["diff"]["current_s"])
        self.assertIn("(total)", by_phase)
        self.assertIn("delta", render_compare_table(rows))

    def test_records_table_renders(self):
        table = render_records_table([make_record()])
        self.assertIn("record", table)
        self.assertEqual(render_records_table([]), "(empty ledger)")


class GateTest(unittest.TestCase):
    def test_identical_records_pass(self):
        record = make_record()
        result = gate_records(record, record, tolerance_pct=25.0)
        self.assertTrue(result.ok)
        self.assertEqual(result.regressions, [])
        self.assertIn("PASSED", result.render())

    def test_two_x_slowdown_fails(self):
        baseline = make_record(noise_floor_pct=5.0)
        slowed = make_record(
            phases={k: v * 2.0 for k, v in baseline.phases.items()},
            total_s=baseline.total_s * 2.0,
            noise_floor_pct=5.0,
        )
        result = gate_records(slowed, baseline, tolerance_pct=25.0)
        self.assertFalse(result.ok)
        regressed = {row["phase"] for row in result.regressions}
        self.assertIn("model", regressed)
        self.assertIn("(total)", regressed)
        self.assertIn("FAILED", result.render())

    def test_noise_floor_raises_tolerance(self):
        baseline = make_record(noise_floor_pct=80.0)
        slowed = make_record(
            phases={k: v * 1.5 for k, v in baseline.phases.items()},
            total_s=baseline.total_s * 1.5,
        )
        result = gate_records(slowed, baseline, tolerance_pct=25.0)
        self.assertTrue(result.ok)
        self.assertEqual(result.tolerance_pct, 80.0)

    def test_absolute_floor_shields_fast_phases(self):
        baseline = make_record(
            phases={"rank": 0.0001}, total_s=0.0001, noise_floor_pct=0.0
        )
        slowed = make_record(
            phases={"rank": 0.0004}, total_s=0.0004, noise_floor_pct=0.0
        )
        result = gate_records(slowed, baseline, tolerance_pct=25.0, floor_s=0.005)
        self.assertTrue(result.ok)
        # 4x on a 0.1ms phase never even enters the checked set.
        self.assertEqual(result.checked, [])

    def test_phase_only_on_one_side_never_fails(self):
        baseline = make_record()
        renamed = make_record(
            phases={"modeling": 0.5}, total_s=baseline.total_s
        )
        result = gate_records(renamed, baseline, tolerance_pct=25.0)
        self.assertTrue(result.ok)

    def test_to_dict_shape(self):
        result = gate_records(make_record(), make_record())
        payload = result.to_dict()
        self.assertIn("ok", payload)
        self.assertIn("regressions", payload)
        self.assertIn("tolerance_pct", payload)


class MetricsTest(unittest.TestCase):
    def test_ledger_counters(self):
        import tempfile

        from repro.obs.metrics import MetricsRegistry

        with tempfile.TemporaryDirectory() as tmp:
            registry = MetricsRegistry()
            ledger = RunLedger(tmp, metrics=registry)
            ledger.append(make_record())
            with open(ledger.path, "a", encoding="utf-8") as fh:
                fh.write("not json\n")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ledger.records()
            appended = registry.counter("runs_records_total", status="append")
            skipped = registry.counter("runs_records_total", status="skipped")
            self.assertEqual(appended.value, 1)
            self.assertEqual(skipped.value, 1)


if __name__ == "__main__":
    unittest.main()
