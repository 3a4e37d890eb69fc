"""Where the benchmark's kernel events come from, layer by layer.

Every ``Environment.schedule`` call in a workload's seed-42 smoke
window is charged to the first caller outside ``repro/sim/``: the
component that asked for the event, not the kernel plumbing that
placed it. The net layer is an analytic FIFO server per link direction
and one for the switch pipeline, each scheduling one event per packet.
So, with no faults, its events are exactly the packets the links
delivered plus the packets the switch forwarded: three per one-way
packet. Run with ``-s`` to see the per-layer table.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS
from tests.integration.test_bench_digests import link_counters

SIM = os.path.join("repro", "sim", "")
REPRO = os.path.join("repro", "")


def caller(frame) -> str:
    """``layer/module.py:function`` of the first frame outside repro/sim."""
    while frame is not None and SIM in frame.f_code.co_filename:
        frame = frame.f_back
    if frame is None:
        return "?"
    filename = frame.f_code.co_filename
    where = filename.split(REPRO, 1)[1] if REPRO in filename \
        else Path(filename).name
    return f"{where}:{frame.f_code.co_name}"


def census(name: str, seed: int = 42) -> tuple:
    """(events by caller, link packets delivered, switch packets
    forwarded, requests) over one workload's smoke window."""
    workload = WORKLOADS[name]
    tb = workload.setup(seed)
    workload.warm_up(tb, smoke=True)
    window = workload.start(tb, smoke=True)
    env, switch = tb.env, tb.network.switch
    schedule = env.schedule
    events = Counter()

    def counted(event, *args, **kwargs):
        events[caller(sys._getframe(1))] += 1
        schedule(event, *args, **kwargs)

    links_before = link_counters(tb)
    forwarded_before = switch.stats.packets_forwarded
    env.schedule = counted
    try:
        window()
    finally:
        del env.schedule
    delivered = sum(counters["packets_sent"] - links_before[key]["packets_sent"]
                    for key, counters in link_counters(tb).items())
    forwarded = switch.stats.packets_forwarded - forwarded_before
    return events, delivered, forwarded, workload.size(smoke=True)


def by_layer(events: Counter) -> Counter:
    layers = Counter()
    for where, count in events.items():
        layers[where.split("/", 1)[0] if "/" in where else "other"] += count
    return layers


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_net_layer_schedules_one_event_per_packet_per_server(name):
    events, delivered, forwarded, requests = census(name)
    layers = by_layer(events)
    total = sum(events.values())
    print(f"\n{name}: {total / requests:.1f} events per request over "
          f"{requests} requests")
    for layer, count in layers.most_common():
        print(f"  {layer:<12} {count / requests:>9.1f}  "
              f"{count / total:>6.1%}")
    for where, count in events.most_common(5):
        print(f"    {where:<40} {count / requests:>9.1f}")
    assert layers["net"] == delivered + forwarded
    assert sorted(where for where in events if where.startswith("net/")) \
        == ["net/link.py:send", "net/switch.py:_receive"]
