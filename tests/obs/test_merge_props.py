"""Property suite for the cross-process registry merge.

:meth:`MetricsRegistry.merge` is the fold behind ``/v1/metrics`` and
must behave like a commutative monoid — associative, commutative,
identity ``MetricsRegistry()`` — that leaves its operands untouched, and
merged histogram quantiles must equal the quantiles of a single registry
fed the concatenated observation stream.  Observations are drawn as
dyadic rationals (k/8) so float addition stays exact and the algebraic
laws can be asserted with ``==``, not a tolerance.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry

#: dyadic rationals: exact under float addition at these magnitudes
dyadic = st.integers(min_value=1, max_value=8 * 10**6).map(lambda v: v / 8)

counter_names = st.sampled_from(
    ["serve.admitted", "serve.retry.attempts", "serve.slo.good"]
)
gauge_names = st.sampled_from(["serve.queue_depth", "serve.degrade.level"])
hist_names = st.sampled_from(
    ["serve.wall_ms", "serve.tenant.acme.wall_ms", "serve.worker.wall_ms"]
)


@st.composite
def observation_streams(draw):
    """A stream of registry operations (the pre-image of one registry)."""
    counters = draw(st.lists(st.tuples(counter_names, dyadic), max_size=12))
    gauges = draw(st.lists(st.tuples(gauge_names, dyadic), max_size=6))
    hists = draw(st.lists(st.tuples(hist_names, dyadic), max_size=25))
    return counters, gauges, hists


def feed(registry: MetricsRegistry, stream) -> MetricsRegistry:
    counters, gauges, hists = stream
    for name, v in counters:
        registry.counter(name).inc(v)
    for name, v in gauges:
        registry.gauge(name).set(v)
    for name, v in hists:
        registry.histogram(name).observe(v)
    return registry


def registry_of(stream) -> MetricsRegistry:
    return feed(MetricsRegistry(), stream)


def canon(registry: MetricsRegistry) -> str:
    return json.dumps(registry.to_dict(), sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(observation_streams(), observation_streams(), observation_streams())
def test_merge_is_associative(sa, sb, sc):
    a, b, c = registry_of(sa), registry_of(sb), registry_of(sc)
    assert canon(a.merge(b).merge(c)) == canon(a.merge(b.merge(c)))


@settings(max_examples=60, deadline=None)
@given(observation_streams(), observation_streams())
def test_merge_is_commutative(sa, sb):
    a, b = registry_of(sa), registry_of(sb)
    assert canon(a.merge(b)) == canon(b.merge(a))


@settings(max_examples=60, deadline=None)
@given(observation_streams())
def test_empty_registry_is_the_identity(sa):
    a = registry_of(sa)
    empty = MetricsRegistry()
    assert canon(a.merge(empty)) == canon(a)
    assert canon(empty.merge(a)) == canon(a)
    # and the identity is inert on itself
    assert canon(empty.merge(empty)) == canon(empty)


@settings(max_examples=60, deadline=None)
@given(observation_streams(), observation_streams())
def test_merged_quantiles_equal_single_registry_quantiles(sa, sb):
    """merge(A, B) answers quantiles exactly like one registry that
    observed A ++ B."""
    merged = registry_of(sa).merge(registry_of(sb))
    combined = MetricsRegistry()
    feed(combined, sa)
    feed(combined, sb)
    merged_doc = merged.to_dict()["histograms"]
    for name, summary in combined.to_dict()["histograms"].items():
        assert merged_doc[name] == summary
        m, hist = merged.histogram(name), combined.histogram(name)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert m.quantile(q) == hist.quantile(q)
        assert (m.count, m.total, m.min, m.max) == (
            hist.count, hist.total, hist.min, hist.max
        )


@settings(max_examples=40, deadline=None)
@given(observation_streams(), observation_streams())
def test_merge_does_not_mutate_its_inputs(sa, sb):
    a, b = registry_of(sa), registry_of(sb)
    a0, b0 = canon(a), canon(b)
    a.merge(b)
    assert canon(a) == a0
    assert canon(b) == b0
