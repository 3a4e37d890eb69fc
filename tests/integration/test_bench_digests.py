"""The benchmark's simulated results, pinned.

``bench.repeat.run_repeat`` hashes each workload's window (sorted
latencies, failures by cause, kernel events and per-direction link
counters) into ``digest``. A change that is meant only to make the
simulator faster must leave all four digests as they are. A change
that alters simulated behaviour or kernel event counts on purpose
updates the pins and says why.

The second pin separates the two: ``RESULTS`` hashes the window's
simulated results alone (sorted latencies, failures by cause and
per-direction ``LinkStats``), and ``EVENTS`` is the window's kernel
event count. A change to how the simulator schedules its work may move
``EVENTS`` and ``PINNED``; it must leave ``RESULTS`` byte-identical.
"""

import hashlib
import json

import pytest

from bench.repeat import run_repeat
from bench.workloads import WORKLOADS

#: Seed-42 smoke-size digests (``run_repeat(name, 42, smoke=True)``).
PINNED = {
    "web_nic":
        "09d7e26013399ed7e7993459782deb603eeddfe78d796720cb71f22ab9bf9650",
    "image_rdma":
        "b80a149779d87dc059801a2e35cbd7fa1932539f1df7ae63324964031cbc29a1",
    "web_host":
        "d8dcb2dd916d9e6267110730f7b879752c8e46ccf192e6f1f45f9438599ad9fe",
    "storm_mixed":
        "431e0e8020515406ed205082dca15570e9c3498e31a9e2827b91daa976f36985",
}

#: Seed-42 smoke-window simulated results (``smoke_window(name, 42)``).
RESULTS = {
    "web_nic":
        "1c2d6026f256b7f61be4cc078c254dd3b6a7371df8fa2eeebc8d0d5ecabf81d4",
    "image_rdma":
        "2f13b66ae510de820ab21ceecf6af4fc952143921a8d0da49c08a3a3ffe5b8de",
    "web_host":
        "a8264dd3473fd0d3da3ac07a4dcda0ade27762ecaf88d02021e5db08a0e4ac7e",
    "storm_mixed":
        "807aacd582da0350937496064a2ec28c8138a0dd966a9c79996aaa50c7af1231",
}

#: Kernel events in the same seed-42 smoke windows.
EVENTS = {
    "web_nic": 813,
    "image_rdma": 24,
    "web_host": 1053,
    "storm_mixed": 1387,
}


def link_counters(tb) -> dict:
    """Every direction's ``LinkStats``, keyed ``src>dst``."""
    network = tb.network
    switch = network.switch.name
    counters = {}
    for name in network.nodes:
        link = network.link(name)
        for src, dst in ((name, switch), (switch, name)):
            counters[f"{src}>{dst}"] = vars(link.stats(src)).copy()
    return counters


def smoke_window(name: str, seed: int) -> tuple:
    """(results digest, kernel events) of one workload's smoke window."""
    workload = WORKLOADS[name]
    tb = workload.setup(seed)
    workload.warm_up(tb, smoke=True)
    window = workload.start(tb, smoke=True)
    links_before, events_before = link_counters(tb), tb.env._eid
    outcomes = window()
    events = tb.env._eid - events_before
    links = {key: {field: value - links_before[key][field]
                   for field, value in counters.items()}
             for key, counters in link_counters(tb).items()}
    payload = {
        "latencies": [x.hex() for x in sorted(outcomes.latencies)],
        "failures": sorted(outcomes.failures.items()),
        "links": sorted(links.items()),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest, events


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_digest_is_pinned(name):
    assert run_repeat(name, 42, smoke=True)["digest"] == PINNED[name]


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_smoke_results_and_events_are_pinned(name):
    assert smoke_window(name, 42) == (RESULTS[name], EVENTS[name])
