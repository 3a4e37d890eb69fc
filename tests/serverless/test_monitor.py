"""Tests for the monitoring engine and watch service."""

import pytest

from repro.net import Network
from repro.serverless import (
    Gateway,
    MetricsRegistry,
    MonitoringEngine,
    TimeSeries,
    WatchService,
)
from repro.sim import Environment


def test_time_series_rate():
    series = TimeSeries()
    for t, v in [(0, 0), (1, 100), (2, 200), (3, 300)]:
        series.append(float(t), float(v))
    assert series.rate(window_seconds=10, now=3.0) == pytest.approx(100.0)
    assert series.rate(window_seconds=1.5, now=3.0) == pytest.approx(100.0)
    assert series.latest().value == 300


def test_time_series_rate_needs_two_samples():
    series = TimeSeries()
    series.append(0.0, 5.0)
    assert series.rate(10, now=1.0) == 0.0
    assert TimeSeries().rate(10, now=1.0) == 0.0


def test_time_series_counter_reset_clamped():
    series = TimeSeries()
    series.append(0.0, 100.0)
    series.append(1.0, 10.0)  # counter reset
    assert series.rate(10, now=1.0) == 0.0


def test_time_series_bounded():
    series = TimeSeries(max_samples=10)
    for index in range(50):
        series.append(float(index), float(index))
    assert len(series.samples) == 10
    assert series.samples[0].at == 40.0


def test_monitoring_engine_scrapes_counters():
    env = Environment()
    registry = MetricsRegistry()
    requests = registry.counter("requests")
    engine = MonitoringEngine(env, registry, scrape_interval=1.0)

    def load(env):
        for _ in range(5):
            requests.inc(100, labels={"workload": "web"})
            yield env.timeout(1.0)
        engine.stop()

    engine.start()
    env.process(load(env))
    env.run(until=10.0)
    assert engine.scrapes >= 4
    rate = engine.rate("requests", labels={"workload": "web"},
                       window_seconds=10.0)
    assert 50 < rate < 200  # ~100/s


def test_monitoring_engine_validates_interval():
    env = Environment()
    with pytest.raises(ValueError):
        MonitoringEngine(env, MetricsRegistry(), scrape_interval=0)


def make_gateway(env):
    network = Network(env)
    gateway = Gateway(env, network.add_node("gw"),
                      metrics=MetricsRegistry())
    gateway.set_route("web", wid=1, targets=["w1"])
    return gateway


def test_watch_service_raises_alert_on_failures():
    env = Environment()
    gateway = make_gateway(env)
    watch = WatchService(env, gateway, check_interval=1.0)
    watch.check()  # baseline
    gateway.failures_total.inc(3, labels={"workload": "web"})
    raised = watch.check()
    assert len(raised) == 1
    assert raised[0].workload == "web"
    assert watch.unhealthy() == ["web"]


def test_watch_service_clears_alert_on_recovery():
    env = Environment()
    gateway = make_gateway(env)
    watch = WatchService(env, gateway)
    watch.check()
    gateway.failures_total.inc(1, labels={"workload": "web"})
    watch.check()
    assert watch.unhealthy() == ["web"]
    gateway.requests_total.inc(5, labels={"workload": "web"})
    watch.check()
    assert watch.unhealthy() == []
    assert watch.alerts[0].cleared_at is not None


def test_watch_service_quiet_when_healthy():
    env = Environment()
    gateway = make_gateway(env)
    watch = WatchService(env, gateway)
    watch.check()
    gateway.requests_total.inc(10, labels={"workload": "web"})
    assert watch.check() == []
    assert watch.unhealthy() == []


def test_watch_service_loop_runs():
    env = Environment()
    gateway = make_gateway(env)
    watch = WatchService(env, gateway, check_interval=0.5)

    def fail_then_stop(env):
        yield env.timeout(0.6)
        gateway.failures_total.inc(1, labels={"workload": "web"})
        yield env.timeout(1.0)
        watch.stop()

    watch.start()
    env.process(fail_then_stop(env))
    env.run(until=3.0)
    assert watch.alerts


def test_stopped_loops_do_not_act_at_their_pending_tick():
    """A loop stopped mid-interval ends at its next tick without a last
    scrape or check."""
    env = Environment()
    registry = MetricsRegistry()
    registry.counter("requests").inc(1)
    engine = MonitoringEngine(env, registry, scrape_interval=1.0)
    watch = WatchService(env, make_gateway(env), check_interval=1.0)
    checks = []
    check = watch.check
    watch.check = lambda: checks.append(env.now) or check()
    engine_loop, watch_loop = engine.start(), watch.start()
    env.run(until=1.5)
    assert engine.scrapes == 1 and checks == [1.0]
    engine.stop()
    watch.stop()
    env.run(until=3.0)
    assert engine.scrapes == 1 and checks == [1.0]
    assert not engine_loop.is_alive and not watch_loop.is_alive
    assert len(engine.counter_series("requests").samples) == 1
