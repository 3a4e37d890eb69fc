"""Tests for NPU cores, schedulers, and NIC memory accounting."""

import pytest

from repro.hw import (
    NPUCore,
    NicMemory,
    NicMemoryError,
    ShortestQueueScheduler,
    UniformRandomScheduler,
)
from repro.isa import Region
from repro.sim import Environment, RngRegistry


def test_core_executes_for_cycle_time():
    env = Environment()
    core = NPUCore(env, 0, 0, threads=2, clock_hz=1e6)
    durations = []
    core.execute(1000, durations.append)
    env.run()
    assert durations == [pytest.approx(1e-3)]
    assert core.stats.requests == 1
    assert core.stats.cycles == 1000


def test_core_threads_limit_concurrency():
    env = Environment()
    core = NPUCore(env, 0, 0, threads=2, clock_hz=1e6)
    finish_times = []
    for _ in range(4):
        core.execute(1000, lambda _elapsed: finish_times.append(env.now))
    env.run()
    # Two run immediately, two wait for a free thread.
    assert finish_times == pytest.approx([1e-3, 1e-3, 2e-3, 2e-3])


def test_core_validates_threads():
    env = Environment()
    with pytest.raises(ValueError):
        NPUCore(env, 0, 0, threads=0)


def make_cores(env, n=4, threads=1):
    return [NPUCore(env, i, 0, threads=threads) for i in range(n)]


def test_uniform_scheduler_spreads_load():
    env = Environment()
    cores = make_cores(env, n=8)
    rng = RngRegistry(seed=3).stream("sched")
    scheduler = UniformRandomScheduler(rng)
    picks = [scheduler.pick_core(cores, "web").core_id for _ in range(800)]
    counts = {cid: picks.count(cid) for cid in range(8)}
    assert all(count > 50 for count in counts.values())


def test_shortest_queue_prefers_idle_core():
    env = Environment()
    cores = make_cores(env, n=3)
    # Occupy core 0.
    cores[0].execute(10_000, lambda _elapsed: None)
    env.run(until=1e-9)
    scheduler = ShortestQueueScheduler()
    assert scheduler.pick_core(cores, "web").core_id == 1


def test_wfq_orders_by_virtual_time():
    """JSQ ranks cores by running plus queued work; ties go to the
    lowest core id."""
    env = Environment()
    cores = make_cores(env, n=3)
    for _ in range(3):
        cores[0].execute(10_000, lambda _elapsed: None)
    cores[1].execute(10_000, lambda _elapsed: None)
    for _ in range(2):
        cores[2].execute(10_000, lambda _elapsed: None)
    env.run(until=1e-9)
    assert [(c.busy_threads, c.queue_depth) for c in cores] == \
        [(1, 2), (1, 0), (1, 1)]
    scheduler = ShortestQueueScheduler()
    assert scheduler.pick_core(cores, "web").core_id == 1
    cores[1].execute(10_000, lambda _elapsed: None)
    # Cores 1 and 2 now both hold two requests; core 0 holds three.
    assert scheduler.pick_core(cores, "web").core_id == 1


def test_wfq_weights_scale_service():
    """JSQ has no per-lambda weights: a burst spreads round-robin over
    equal cores whatever lambda each request belongs to."""
    scheduler = ShortestQueueScheduler()
    env = Environment()
    cores = make_cores(env, n=4)
    picks = []
    for index in range(8):
        core = scheduler.pick_core(cores, "big" if index % 3 else "small")
        core.execute(10_000, lambda _elapsed: None)
        picks.append(core.core_id)
    assert picks == [0, 1, 2, 3, 0, 1, 2, 3]


def test_nic_memory_allocation_and_overflow():
    memory = NicMemory(capacities={Region.CTM: 100, Region.EMEM: 1000})
    memory.allocate(Region.CTM, 60)
    assert memory.used[Region.CTM] == 60
    with pytest.raises(NicMemoryError):
        memory.allocate(Region.CTM, 50)
    memory.free(Region.CTM, 30)
    memory.allocate(Region.CTM, 50)
    assert memory.used[Region.CTM] == 80


def test_nic_memory_flat_maps_to_emem():
    memory = NicMemory(capacities={Region.EMEM: 100})
    memory.allocate(Region.FLAT, 40)
    assert memory.used[Region.EMEM] == 40


def test_nic_memory_utilization_and_reset():
    memory = NicMemory(capacities={Region.EMEM: 200})
    memory.allocate(Region.EMEM, 50)
    assert memory.utilization(Region.EMEM) == pytest.approx(0.25)
    assert memory.total_used_bytes == 50
    memory.reset()
    assert memory.total_used_bytes == 0


def test_nic_memory_rejects_negative():
    memory = NicMemory(capacities={Region.EMEM: 100})
    with pytest.raises(ValueError):
        memory.allocate(Region.EMEM, -1)
