"""A workload's set-up leaves no cyclic garbage.

Set-up compiles, verifies and installs firmware. Everything it builds
and drops must be freed by reference counting: an object held in a
reference cycle waits for the cyclic collector, so the memory of the
programs a compile builds and drops would stay resident until the next
collection. Each NIC workload's set-up runs with the collector
disabled; afterwards a collection must find nothing to free.
"""

import gc

import pytest

from bench.workloads import WORKLOADS

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
