"""A workload's set-up and its timed window leave no cyclic garbage.

Set-up compiles, verifies and installs firmware. Everything it builds
and drops must be freed by reference counting: an object held in a
reference cycle waits for the cyclic collector, so the memory of the
programs a compile builds and drops would stay resident until the next
collection. Each NIC workload's set-up runs with the collector
disabled; afterwards a collection must find nothing to free.

The window holds to the same rule for what each request builds and
drops (an RDMA message and the segments made from it, a response, a
DMA into lambda memory): every workload's window, from a collected
heap, runs with the collector disabled and leaves nothing to collect.
"""

import gc

import pytest

from bench.workloads import WORKLOADS

WINDOW_WORKLOADS = sorted(WORKLOADS)
NIC_WORKLOADS = sorted(name for name, workload in WORKLOADS.items()
                       if workload.backend == "lambda-nic")


@pytest.mark.parametrize("name", NIC_WORKLOADS)
def test_setup_leaves_nothing_for_the_cyclic_collector(name):
    gc.collect()
    gc.disable()
    try:
        testbed = WORKLOADS[name].setup(42)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert testbed.nics


@pytest.mark.parametrize("name", WINDOW_WORKLOADS)
def test_window_leaves_nothing_for_the_cyclic_collector(name):
    workload = WORKLOADS[name]
    testbed = workload.setup(42)
    workload.warm_up(testbed, smoke=True)
    window = workload.start(testbed, smoke=True)
    gc.collect()
    gc.disable()
    try:
        outcomes = window()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert outcomes.issued == workload.size(smoke=True)
