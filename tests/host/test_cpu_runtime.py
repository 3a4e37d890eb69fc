"""Tests for the host CPU model and the runtimes."""

import pytest

from repro.host import (
    BareMetalRuntime,
    ContainerRuntime,
    CpuParams,
    HostCPU,
    HostMemory,
    MIB,
    Runtime,
)
from repro.sim import Environment


def test_cpu_executes_work():
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=2, context_switch_seconds=0.0))
    done = []

    def work(env, cpu):
        cost = yield cpu.execute("web", 1e-3)
        done.append((env.now, cost))

    env.process(work(env, cpu))
    env.run()
    assert done[0][0] == pytest.approx(1e-3)
    assert cpu.stats.busy_seconds == pytest.approx(1e-3)


def test_cpu_thread_limit_queues_work():
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=1, context_switch_seconds=0.0))
    finishes = []

    def work(env, cpu):
        yield cpu.execute("web", 1e-3)
        finishes.append(env.now)

    env.process(work(env, cpu))
    env.process(work(env, cpu))
    env.run()
    assert finishes == pytest.approx([1e-3, 2e-3])


def test_same_task_keeps_thread_warm():
    """A single lambda in a closed loop pays one context switch total."""
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=4, context_switch_seconds=10e-6))

    def loop(env, cpu):
        for _ in range(10):
            yield cpu.execute("web", 1e-4)

    env.process(loop(env, cpu))
    env.run()
    assert cpu.stats.context_switches == 1


def test_distinct_tasks_context_switch_every_time():
    """Round-robin lambdas on one thread switch on every request."""
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=1, context_switch_seconds=10e-6))

    def loop(env, cpu):
        for index in range(9):
            yield cpu.execute(f"lambda{index % 3}", 1e-4)

    env.process(loop(env, cpu))
    env.run()
    assert cpu.stats.context_switches == 9


def test_context_switch_adds_latency():
    env = Environment()
    switching = HostCPU(env, CpuParams(n_threads=1, context_switch_seconds=50e-6))
    durations = []

    def work(env, cpu):
        cost = yield cpu.execute("a", 1e-4)
        durations.append(cost)
        cost = yield cpu.execute("b", 1e-4)
        durations.append(cost)
        cost = yield cpu.execute("b", 1e-4)
        durations.append(cost)

    env.process(work(env, switching))
    env.run()
    assert durations[0] == pytest.approx(1e-4 + 50e-6)  # cold thread
    assert durations[1] == pytest.approx(1e-4 + 50e-6)  # a -> b switch
    assert durations[2] == pytest.approx(1e-4)          # warm b


def test_cpu_utilization_and_task_attribution():
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=2, context_switch_seconds=0.0))

    def work(env, cpu):
        yield cpu.execute("img", 5e-3)

    env.process(work(env, cpu))
    env.run(until=10e-3)
    assert cpu.stats.utilization(10e-3, 2) == pytest.approx(0.25)
    assert cpu.stats.task_utilization("img", 10e-3, 2) == pytest.approx(0.25)
    assert cpu.stats.task_utilization("other", 10e-3, 2) == 0.0


def test_cpu_account_without_thread():
    env = Environment()
    cpu = HostCPU(env, CpuParams(n_threads=2))
    cpu.account("kernel", 1e-3)
    assert cpu.stats.per_task_busy["kernel"] == pytest.approx(1e-3)


def test_cpu_validates_threads():
    env = Environment()
    with pytest.raises(ValueError):
        HostCPU(env, n_threads=0)


def test_runtime_package_sizes_match_table4_shape():
    bare = BareMetalRuntime()
    container = ContainerRuntime()
    code = 1 * MIB
    assert bare.package_bytes(code) == pytest.approx(17 * MIB, rel=0.1)
    assert container.package_bytes(code) == pytest.approx(153 * MIB, rel=0.1)
    # Container image is an order of magnitude bigger.
    assert container.package_bytes(code) > 8 * bare.package_bytes(code)


def test_runtime_startup_ordering():
    """Container startup must exceed bare-metal (Table 4: 31.7 vs 5 s)."""
    bare = BareMetalRuntime()
    container = ContainerRuntime()
    code = 1 * MIB
    bare_start = bare.startup_seconds(bare.package_bytes(code))
    container_start = container.startup_seconds(container.package_bytes(code))
    assert container_start > 4 * bare_start
    assert 3 < bare_start < 8
    assert 25 < container_start < 40


def test_container_memory_overhead_larger():
    assert ContainerRuntime().memory_overhead_bytes > \
        3 * BareMetalRuntime().memory_overhead_bytes


def test_base_runtime_is_free():
    runtime = Runtime()
    assert runtime.dispatch_seconds == 0.0
    assert runtime.memory_overhead_bytes == 0
    assert runtime.startup_seconds(runtime.package_bytes(100)) == 0.0


def test_host_memory_accounting():
    memory = HostMemory(capacity_bytes=100)
    memory.allocate(60)
    with pytest.raises(MemoryError):
        memory.allocate(50)
    memory.free(30)
    memory.allocate(50)
    assert memory.used_bytes == 80
    with pytest.raises(ValueError):
        memory.allocate(-1)
