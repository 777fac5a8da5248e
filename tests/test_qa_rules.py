"""Good/bad fixture pairs for every flowlint domain rule.

Each rule gets a conforming fixture (no findings) and a violating one
(the expected finding), plus a pragma-suppression case where it matters.
The final self-check runs the full default rule set over the real source
tree — the repository must lint clean.
"""

import os
import textwrap

from repro.qa import LintEngine, default_rules
from repro.qa.framework import ModuleFile, Project
from repro.qa.rules import (
    DeterminismRule,
    HotLoopAllocRule,
    MetricNamesRule,
    OpenEncodingRule,
    SignatureContractRule,
    SimClockRule,
)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def module(source, name="repro.netsim.fake", path=None):
    path = path or "src/" + name.replace(".", "/") + ".py"
    return ModuleFile(path, textwrap.dedent(source), module=name)


def run(rule, mod):
    return LintEngine([rule]).run(Project([mod]))


class TestSimClock:
    def test_engine_clock_is_clean(self):
        mod = module(
            """\
            def handle(sim, pkt):
                return sim.now + 0.5
            """
        )
        assert run(SimClockRule(), mod).ok

    def test_wall_clock_read_is_flagged(self):
        mod = module(
            """\
            import time

            def handle(pkt):
                return time.time()
            """
        )
        result = run(SimClockRule(), mod)
        assert [f.rule for f in result.findings] == ["sim-clock"]
        assert "time.time" in result.findings[0].message

    def test_aliased_import_is_still_caught(self):
        mod = module(
            """\
            from time import perf_counter as pc

            def handle(pkt):
                return pc()
            """
        )
        assert not run(SimClockRule(), mod).ok

    def test_outside_sim_packages_wall_clock_is_fine(self):
        mod = module(
            """\
            import time

            def now():
                return time.time()
            """,
            name="repro.obs.metrics2",
        )
        assert run(SimClockRule(), mod).ok

    def test_justified_pragma_suppresses(self):
        mod = module(
            """\
            import time

            def handle(pkt):
                return time.perf_counter()  # flowlint: disable=sim-clock -- host-cost telemetry
            """
        )
        result = run(SimClockRule(), mod)
        assert result.ok
        assert result.suppressed == 1

    def test_monitor_package_is_covered(self):
        # core.monitor diffs stream-time windows; a wall-clock read there
        # would skew latency accounting against stream timestamps.
        mod = module(
            """\
            import time

            def observe(entry):
                return time.monotonic()
            """,
            name="repro.core.monitor",
        )
        assert not run(SimClockRule(), mod).ok

    def test_service_package_is_covered(self):
        # The streaming daemon reasons in stream time; only the sanctioned
        # wall_now() (and time.sleep for polling) are allowed.
        mod = module(
            """\
            import time

            def close_window(win):
                return time.perf_counter()
            """,
            name="repro.service.faketenant",
        )
        assert not run(SimClockRule(), mod).ok

    def test_sleep_is_allowed_in_service(self):
        mod = module(
            """\
            import time

            def poll(interval):
                time.sleep(interval)
            """,
            name="repro.service.faketail",
        )
        assert run(SimClockRule(), mod).ok


class TestDeterminism:
    def test_seeded_instance_is_clean(self):
        mod = module(
            """\
            import random

            def make(seed):
                rng = random.Random(seed)
                return rng.choice([1, 2, 3])
            """
        )
        assert run(DeterminismRule(), mod).ok

    def test_global_rng_call_is_flagged(self):
        mod = module(
            """\
            import random

            def jitter():
                return random.random()
            """
        )
        result = run(DeterminismRule(), mod)
        assert [f.rule for f in result.findings] == ["determinism"]

    def test_unseeded_random_instance_is_flagged(self):
        mod = module(
            """\
            import random

            def make():
                return random.Random()
            """
        )
        assert not run(DeterminismRule(), mod).ok

    def test_outside_determinism_packages_is_fine(self):
        mod = module(
            """\
            import random

            def shuffle(xs):
                random.shuffle(xs)
            """,
            name="repro.analysis.sampling",
        )
        assert run(DeterminismRule(), mod).ok


class TestOpenEncoding:
    def test_encoding_kwarg_is_clean(self):
        mod = module(
            """\
            def read(path):
                with open(path, encoding="utf-8") as fh:
                    return fh.read()
            """
        )
        assert run(OpenEncodingRule(), mod).ok

    def test_binary_mode_is_clean(self):
        mod = module(
            """\
            def read(path):
                with open(path, "rb") as fh:
                    return fh.read()
            """
        )
        assert run(OpenEncodingRule(), mod).ok

    def test_text_open_without_encoding_is_flagged(self):
        mod = module(
            """\
            def read(path):
                with open(path) as fh:
                    return fh.read()
            """
        )
        result = run(OpenEncodingRule(), mod)
        assert [f.rule for f in result.findings] == ["open-encoding"]

    def test_mode_keyword_binary_is_clean(self):
        mod = module(
            """\
            def write(path, data):
                with open(path, mode="wb") as fh:
                    fh.write(data)
            """
        )
        assert run(OpenEncodingRule(), mod).ok


SIGNATURE_OK = """\
    from repro.core.signatures.base import Signature

    class Good(Signature):
        def diff(self, other):
            return ()

        def to_dict(self):
            return {}

        @classmethod
        def from_dict(cls, data):
            return cls()
    """


class TestSignatureContract:
    def test_complete_subclass_is_clean(self):
        mod = module(SIGNATURE_OK, name="repro.core.signatures.fake")
        assert run(SignatureContractRule(), mod).ok

    def test_missing_methods_are_flagged(self):
        mod = module(
            """\
            from repro.core.signatures.base import Signature

            class Incomplete(Signature):
                def to_dict(self):
                    return {}
            """,
            name="repro.core.signatures.fake",
        )
        result = run(SignatureContractRule(), mod)
        (finding,) = result.findings
        assert finding.rule == "signature-contract"
        assert "diff" in finding.message
        assert "from_dict" in finding.message

    def test_signature_shaped_class_without_base_is_flagged(self):
        mod = module(
            """\
            class Sneaky:
                def diff(self, other):
                    return ()

                def to_dict(self):
                    return {}
            """,
            name="repro.core.signatures.fake",
        )
        result = run(SignatureContractRule(), mod)
        (finding,) = result.findings
        assert "does not subclass Signature" in finding.message

    def test_merge_diff_outside_signatures_package_is_fine(self):
        mod = module(
            """\
            class Intervals:
                def diff(self, other):
                    return ()

                def to_dict(self):
                    return {}
            """,
            name="repro.analysis.intervals",
        )
        assert run(SignatureContractRule(), mod).ok


class TestMetricNames:
    def test_known_metric_and_label_are_clean(self):
        mod = module(
            """\
            def instrument(metrics):
                return metrics.counter("sim_events_total", kind="packet_in")
            """,
            name="repro.core.fakemetrics",
        )
        assert run(MetricNamesRule(), mod).ok

    def test_invalid_grammar_is_flagged(self):
        mod = module(
            """\
            def instrument(metrics):
                return metrics.counter("sim-events-total")
            """,
            name="repro.core.fakemetrics",
        )
        result = run(MetricNamesRule(), mod)
        (finding,) = result.findings
        assert "not a valid Prometheus metric name" in finding.message

    def test_undeclared_metric_is_flagged(self):
        mod = module(
            """\
            def instrument(metrics):
                return metrics.gauge("totally_new_metric")
            """,
            name="repro.core.fakemetrics",
        )
        result = run(MetricNamesRule(), mod)
        (finding,) = result.findings
        assert "KNOWN_METRICS" in finding.message

    def test_undeclared_label_is_flagged(self):
        mod = module(
            """\
            def instrument(metrics):
                return metrics.counter("sim_events_total", color="red")
            """,
            name="repro.core.fakemetrics",
        )
        result = run(MetricNamesRule(), mod)
        (finding,) = result.findings
        assert "KNOWN_LABELS" in finding.message

    def test_service_family_is_declared(self):
        # ``service_*`` membership is grammatical, like the telemetry
        # family: the streaming service mints tenant-labeled instruments
        # freely.
        mod = module(
            """\
            def instrument(metrics):
                metrics.counter("service_windows_total", tenant="prod")
                return metrics.counter(
                    "service_dropped_total", tenant="prod", reason="late"
                )
            """,
            name="repro.core.fakemetrics",
        )
        assert run(MetricNamesRule(), mod).ok

    def test_service_family_grammar_is_enforced(self):
        # The family regex requires lowercase snake after the prefix —
        # a malformed member is still an undeclared metric.
        mod = module(
            """\
            def instrument(metrics):
                return metrics.counter("service_BadName")
            """,
            name="repro.core.fakemetrics",
        )
        result = run(MetricNamesRule(), mod)
        (finding,) = result.findings
        assert "KNOWN_METRICS" in finding.message

    def test_dynamic_name_outside_obs_is_flagged(self):
        mod = module(
            """\
            def instrument(metrics, name):
                return metrics.counter(name)
            """,
            name="repro.core.fakemetrics",
        )
        assert not run(MetricNamesRule(), mod).ok

    def test_dynamic_name_inside_obs_is_allowed(self):
        mod = module(
            """\
            def rebuild(metrics, name):
                return metrics.counter(name)
            """,
            name="repro.obs.fakeexport",
        )
        assert run(MetricNamesRule(), mod).ok


class TestHotLoopAlloc:
    def test_hoisted_containers_are_clean(self):
        mod = module(
            """\
            def drain(queue, out):
                scratch = []
                while queue:
                    item = queue.pop()
                    scratch.append(item)
                    out[item.key] = item
            """,
            name="repro.netsim.fakeengine",
        )
        assert run(HotLoopAllocRule(), mod).ok

    def test_per_iteration_display_is_flagged(self):
        mod = module(
            """\
            def drain(queue):
                while queue:
                    msg = queue.pop()
                    fields = [msg.src, msg.dst]
                    handle(fields)
            """,
            name="repro.netsim.fakeengine",
        )
        result = run(HotLoopAllocRule(), mod)
        assert [f.rule for f in result.findings] == ["hot-loop-alloc"]
        assert "list display" in result.findings[0].message

    def test_dict_call_and_comprehension_in_for_are_flagged(self):
        mod = module(
            """\
            def deliver(messages):
                for msg in messages:
                    meta = dict(src=msg.src)
                    sizes = [p.size for p in msg.packets]
                    emit(meta, sizes)
            """,
            name="repro.openflow.fakeswitch",
        )
        result = run(HotLoopAllocRule(), mod)
        assert len(result.findings) == 2

    def test_for_iterable_and_orelse_run_once(self):
        # The iterable expression and the else block evaluate once per
        # loop, not per message — neither is churn.
        mod = module(
            """\
            def deliver(switch):
                for msg in list(switch.pending):
                    handle(msg)
                else:
                    switch.done = [1]
            """,
            name="repro.openflow.fakeswitch",
        )
        assert run(HotLoopAllocRule(), mod).ok

    def test_nested_loop_reports_once(self):
        mod = module(
            """\
            def drain(queue):
                while queue:
                    for msg in queue.pop():
                        handle({msg.src: msg.dst})
            """,
            name="repro.netsim.fakeengine",
        )
        result = run(HotLoopAllocRule(), mod)
        assert len(result.findings) == 1
        assert "dict display" in result.findings[0].message

    def test_setup_time_modules_are_exempt(self):
        mod = module(
            """\
            def build(graph):
                for node in graph:
                    ports = {}
                    wire(node, ports)
            """,
            name="repro.netsim.topology",
        )
        assert run(HotLoopAllocRule(), mod).ok

    def test_outside_data_plane_is_fine(self):
        mod = module(
            """\
            def fold(rows):
                for row in rows:
                    yield [row.a, row.b]
            """,
            name="repro.analysis.fakefold",
        )
        assert run(HotLoopAllocRule(), mod).ok

    def test_justified_pragma_suppresses(self):
        mod = module(
            """\
            def rebalance(switch):
                while switch.dirty:
                    snapshot = list(switch.table)  # flowlint: disable=hot-loop-alloc -- cold path, runs per rebalance
                    apply(snapshot)
            """,
            name="repro.openflow.fakeswitch",
        )
        result = run(HotLoopAllocRule(), mod)
        assert result.ok
        assert result.suppressed == 1


class TestSelfCheck:
    def test_repository_lints_clean(self):
        """The shipped source tree passes its own lint — the CI gate."""
        project = Project.load([REPO_SRC])
        result = LintEngine(default_rules()).run(project)
        assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)

    def test_repo_pragma_budget(self):
        """<= 5 pragmas repo-wide, all justified, none in repro.qa."""
        project = Project.load([REPO_SRC])
        result = LintEngine(default_rules()).run(project)
        assert len(result.pragmas) <= 5
        for pragma in result.pragmas:
            assert pragma.justification, f"unjustified pragma at {pragma.path}"
            assert os.sep + "qa" + os.sep not in pragma.path
