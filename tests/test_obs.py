"""Unit tests for the observability layer (:mod:`repro.obs`)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.metrics import Histogram, Metrics, NoopMetrics
from repro.obs.sinks import (
    JsonlSink,
    jsonable,
    read_jsonl,
    render_metric_tables,
    render_span_tree,
)
from repro.obs.trace import NoopTracer, Tracer


def ticking_clock(step=1.0):
    """A deterministic clock advancing by ``step`` per call."""
    state = {"now": 0.0}

    def clock():
        now = state["now"]
        state["now"] = now + step
        return now

    return clock


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer") as outer:
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2") as inner:
                inner.annotate(key="value")
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in outer.children] == [
            "inner-1", "inner-2"
        ]
        assert outer.children[1].attributes == {"key": "value"}

    def test_durations_from_injected_clock(self):
        # Clock ticks once on enter and once on exit of each span:
        # the inner span lasts 1 tick, the outer one 3.
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        assert outer.children[0].duration == 1.0
        assert outer.duration == 3.0

    def test_current_span_tracks_the_stack(self):
        tracer = Tracer(clock=ticking_clock())
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_sibling_roots(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_walk_yields_depths(self):
        tracer = Tracer(clock=ticking_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
        depths = {span.name: depth for span, depth in tracer.walk()}
        assert depths == {"outer": 0, "inner": 1, "leaf": 2}

    def test_span_closed_even_on_exception(self):
        tracer = Tracer(clock=ticking_clock())
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert tracer.current is None
        assert tracer.roots[0].duration is not None


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        histogram = Histogram("t")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(95) == 95
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(1) == 1

    def test_percentile_of_unsorted_observations(self):
        histogram = Histogram("t")
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            histogram.observe(value)
        assert histogram.percentile(50) == 3.0
        assert histogram.percentile(95) == 5.0

    def test_single_observation(self):
        histogram = Histogram("t")
        histogram.observe(7)
        assert histogram.percentile(50) == 7.0
        assert histogram.mean == 7.0
        summary = histogram.summary()
        assert summary["min"] == summary["max"] == 7.0

    def test_empty_histogram_raises(self):
        histogram = Histogram("t")
        with pytest.raises(ObservabilityError):
            histogram.percentile(50)
        with pytest.raises(ObservabilityError):
            _ = histogram.mean
        assert histogram.summary() == {"count": 0}

    def test_percentile_bounds_checked(self):
        histogram = Histogram("t")
        histogram.observe(1)
        with pytest.raises(ObservabilityError):
            histogram.percentile(0)
        with pytest.raises(ObservabilityError):
            histogram.percentile(101)


class TestMetrics:
    def test_counter_accumulates(self):
        metrics = Metrics()
        metrics.counter("a").inc()
        metrics.counter("a").inc(4)
        assert metrics.counter("a").value == 5

    def test_counter_rejects_decrease(self):
        metrics = Metrics()
        with pytest.raises(ObservabilityError):
            metrics.counter("a").inc(-1)

    def test_gauge_last_write_wins(self):
        metrics = Metrics()
        metrics.gauge("g").set(3)
        metrics.gauge("g").set(9)
        assert metrics.gauge("g").value == 9

    def test_name_bound_to_one_kind(self):
        metrics = Metrics()
        metrics.counter("x")
        with pytest.raises(ObservabilityError):
            metrics.histogram("x")

    def test_snapshot_shape(self):
        metrics = Metrics()
        metrics.counter("c").inc(2)
        metrics.gauge("g").set(1.5)
        metrics.histogram("h").observe(3)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1


class TestNoopRegistry:
    def test_default_registry_is_noop(self):
        assert not obs.enabled()
        assert isinstance(obs.get_registry().metrics, NoopMetrics)
        assert isinstance(obs.get_registry().tracer, NoopTracer)

    def test_noop_helpers_record_nothing(self):
        registry = obs.get_registry()
        obs.incr("some.counter", 10)
        obs.gauge("some.gauge", 1)
        obs.observe("some.histogram", 2)
        with obs.span("some.span", key="value") as span:
            span.annotate(more="attrs")
        assert obs.get_registry() is registry
        assert registry.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_noop_span_is_shared_and_reentrant(self):
        with obs.span("a") as first:
            with obs.span("b") as second:
                assert first is second

    def test_recording_installs_and_restores(self):
        assert not obs.enabled()
        with obs.recording() as registry:
            assert obs.enabled()
            assert obs.get_registry() is registry
            obs.incr("counter", 3)
        assert not obs.enabled()
        assert registry.metrics.counter("counter").value == 3

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert not obs.enabled()

    def test_nested_recordings(self):
        with obs.recording() as outer:
            obs.incr("c")
            with obs.recording() as inner:
                obs.incr("c")
            obs.incr("c")
        assert outer.metrics.counter("c").value == 2
        assert inner.metrics.counter("c").value == 1


class TestJsonlRoundTrip:
    def test_spans_and_metrics_round_trip(self, tmp_path):
        with obs.recording(clock=ticking_clock()) as registry:
            with obs.span("outer", n=3):
                with obs.span("inner"):
                    obs.incr("counter", 2)
                    obs.gauge("gauge", 1.5)
                    obs.observe("histogram", 4.0)
        path = tmp_path / "run.jsonl"
        written = JsonlSink(path).write_run(
            registry, reports=[{"kind": "smoke", "ok": True}]
        )
        records = read_jsonl(path)
        assert len(records) == written == 6
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        spans = by_type["span"]
        assert [span["name"] for span in spans] == ["outer", "inner"]
        assert spans[0]["parent"] is None
        assert spans[1]["parent"] == spans[0]["id"]
        assert spans[0]["attributes"] == {"n": 3}
        assert by_type["counter"][0] == {
            "type": "counter", "name": "counter", "value": 2
        }
        assert by_type["gauge"][0]["value"] == 1.5
        assert by_type["histogram"][0]["summary"]["count"] == 1
        assert by_type["report"][0]["kind"] == "smoke"

    def test_every_line_is_valid_json(self, tmp_path):
        with obs.recording() as registry:
            with obs.span("s", state=object()):
                obs.incr("c")
        path = tmp_path / "run.jsonl"
        JsonlSink(path).write_run(registry)
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_append_semantics(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        sink.write([{"type": "counter", "name": "a", "value": 1}])
        sink.write([{"type": "counter", "name": "b", "value": 2}])
        assert [record["name"] for record in read_jsonl(path)] == ["a", "b"]

    def test_jsonable_coercions(self):
        from fractions import Fraction

        assert jsonable(Fraction(1, 8)) == "1/8"
        assert jsonable((1, "two", Fraction(3, 4))) == [1, "two", "3/4"]
        assert jsonable({1: Fraction(1, 2)}) == {"1": "1/2"}
        assert jsonable(None) is None
        assert isinstance(jsonable(object()), str)


class TestRendering:
    def test_span_tree_rendering(self):
        with obs.recording(clock=ticking_clock()) as registry:
            with obs.span("outer", n=3):
                with obs.span("inner"):
                    pass
        text = render_span_tree(registry.tracer)
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert "n=3" in lines[0]
        assert lines[1].startswith("  inner")

    def test_metric_tables_rendering(self):
        with obs.recording() as registry:
            obs.incr("counter.one", 5)
            obs.gauge("gauge.one", 2)
            for value in [1.0, 2.0, 3.0]:
                obs.observe("histogram.one", value)
        text = render_metric_tables(registry.metrics)
        assert "counter.one" in text and "5" in text
        assert "gauge.one" in text
        assert "histogram.one" in text and "p95" in text

    def test_empty_rendering(self):
        registry = obs.recording_registry()
        assert render_span_tree(registry.tracer) == "(no spans recorded)"
        assert render_metric_tables(registry.metrics) == \
            "(no metrics recorded)"


class TestInstrumentedCallSites:
    def test_sampler_records_samples_and_steps(self):
        import random

        from repro.algorithms.coins import (
            FLIP_P,
            both_flip_adversary,
            p_heads,
            two_coin_automaton,
        )
        from repro.automaton.execution import ExecutionFragment
        from repro.events.first import FirstOccurrence
        from repro.execution.sampler import sample_event

        automaton = two_coin_automaton()
        schema = FirstOccurrence(FLIP_P, p_heads)
        start = ExecutionFragment.initial((None, None))
        with obs.recording() as registry:
            for _ in range(10):
                sample_event(
                    automaton, both_flip_adversary(), start, schema,
                    random.Random(0), max_steps=10,
                )
        counters = registry.metrics.snapshot()["counters"]
        assert counters["sampler.samples"] == 10
        assert counters["fragment.extensions"] >= counters["sampler.steps"]
        assert registry.metrics.histogram(
            "sampler.steps_per_sample"
        ).count == 10

    def test_ledger_counts_rule_applications(self):
        from repro.algorithms import lehmann_rabin as lr

        with obs.recording() as registry:
            lr.lehmann_rabin_proof()
        counters = registry.metrics.snapshot()["counters"]
        assert counters["ledger.rule.assume"] == 5
        assert counters["ledger.rule.compose"] == 4
        assert counters["ledger.applications"] >= 12

    def test_value_iteration_records_residuals(self):
        from fractions import Fraction

        from repro.automaton.automaton import ExplicitAutomaton
        from repro.automaton.signature import ActionSignature
        from repro.automaton.transition import Transition
        from repro.mdp.value_iteration import unbounded_reachability
        from repro.probability.space import FiniteDistribution

        # A two-state chain flipping to an absorbing goal w.p. 1/2.
        signature = ActionSignature(external=frozenset({"flip"}))
        transition = Transition(
            "s", "flip",
            FiniteDistribution({"s": Fraction(1, 2), "goal": Fraction(1, 2)}),
        )
        automaton = ExplicitAutomaton(
            states=("s", "goal"),
            start_states=("s",),
            signature=signature,
            steps=(transition,),
        )
        with obs.recording() as registry:
            value = unbounded_reachability(
                automaton, lambda state: state == "goal", "s"
            )
        assert value == pytest.approx(1.0)
        assert registry.metrics.counter("mdp.value_iteration.sweeps").value > 0
        assert registry.metrics.histogram(
            "mdp.value_iteration.residual"
        ).count > 0
        names = [span.name for span, _ in registry.tracer.walk()]
        assert "mdp.value_iteration" in names


class TestMetricCatalog:
    """The declared-names catalog and its documentation stay in sync."""

    def test_every_name_declares_a_kind_and_description(self):
        from repro.obs import names

        kinds = {"counter", "gauge", "histogram"}
        for name, (kind, description) in names.METRICS.items():
            assert kind in kinds, name
            assert description, name
        for prefix, (kind, description) in names.DYNAMIC_PREFIXES.items():
            assert prefix.endswith("."), prefix
            assert kind in kinds and description, prefix

    def test_declared_matches_exact_names_and_prefixes(self, tmp_path):
        """The lint's catalog check accepts exact names and extensions
        of a dynamic prefix, and nothing else."""
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "repro_lint", root / "tools" / "lint.py"
        )
        lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lint)
        source = tmp_path / "mod.py"
        source.write_text(
            'obs.incr("verifier.samples")\n'
            'obs.incr("ledger.rule.anything")\n'
            'obs.incr("verifier.samplez")\n'
            'obs.incr("ledger.rule")\n'
        )
        findings = lint.undeclared_metric_sites(source, *lint.metric_catalog())
        assert [line for line, _ in findings] == [3, 4]

    def test_docs_embed_the_generated_catalog(self):
        from pathlib import Path

        from repro.obs import names

        doc = Path(__file__).parent.parent / "docs" / "observability.md"
        text = doc.read_text()
        begin = "<!-- metric-catalog:begin -->"
        end = "<!-- metric-catalog:end -->"
        assert begin in text and end in text
        embedded = text.split(begin, 1)[1].split(end, 1)[0].strip()
        assert embedded == names.catalog_markdown().strip(), (
            "docs/observability.md catalog is stale — regenerate with "
            "python -m repro.obs.names"
        )
