"""Where the benchmark's kernel events come from, layer by layer.

Every ``Environment.schedule`` or ``timeout_at`` call in a workload's
seed-42 window is charged to the first caller outside ``repro/sim/``:
the component that asked for the event, not the kernel plumbing that
placed it. The net layer is an analytic FIFO server per link direction
and one for the switch pipeline, each scheduling one event per train:
a hand-over per train on a link, a routing timeout per batch in the
switch, and a check per cut. An event a split or a take-back withdraws
is cancelled and never fires. So its events are exactly the trains
handed over, the cut checks and the batches routed, plus the events
cancelled. Run with ``-s`` to see the per-layer table.
"""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from bench.workloads import WORKLOADS
from repro.net import Packet
from repro.net import switch as switch_module
from repro.net.link import _Direction
from repro.net.switch import Switch
from repro.sim.core import Timeout
from repro.sim.process import Process

SIM = os.path.join("repro", "sim", "")
REPRO = os.path.join("repro", "")
NET = os.path.join("repro", "net", "")


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


class NetCounts:
    """Counts, while active, the net layer's events as they fire or are
    cancelled, and the switch's splits."""

    #: (owner, attribute, count) for each wrapped callable.
    WRAPPED = ((_Direction, "_handed", "trains"),
               (_Direction, "_check", "checks"),
               (Switch, "_switched", "batches"),
               (switch_module, "_merge", "splits"))

    def __init__(self) -> None:
        self.counts = Counter()

    def __enter__(self) -> Counter:
        counts = self.counts
        self.saved = [(owner, attribute, getattr(owner, attribute))
                      for owner, attribute, _ in self.WRAPPED]
        for (owner, attribute, count), (_, _, wrapped) in zip(
                self.WRAPPED, self.saved):
            def counted(*args, wrapped=wrapped, count=count):
                counts[count] += 1
                return wrapped(*args)
            setattr(owner, attribute, counted)
        cancel = Timeout.cancel

        def cancelled(event):
            if not event.cancelled and NET in \
                    sys._getframe(1).f_code.co_filename:
                counts["cancelled"] += 1
            cancel(event)
        self.saved.append((Timeout, "cancel", cancel))
        Timeout.cancel = cancelled
        return counts

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in self.saved:
            setattr(owner, attribute, original)


def census(name: str, seed: int = 42, smoke: bool = True) -> tuple:
    """(events by caller, net counts, requests) over one workload's
    window."""
    workload = WORKLOADS[name]
    tb = workload.setup(seed)
    workload.warm_up(tb, smoke=smoke)
    window = workload.start(tb, smoke=smoke)
    env = tb.env
    schedule, timeout_at = env.schedule, env.timeout_at
    events = Counter()

    def counted(event, *args, **kwargs):
        events[caller(sys._getframe(1))] += 1
        schedule(event, *args, **kwargs)

    def counted_at(at, value=None, callback=None):
        events[caller(sys._getframe(1))] += 1
        return timeout_at(at, value, callback)

    env.schedule, env.timeout_at = counted, counted_at
    try:
        with NetCounts() as net:
            window()
    finally:
        del env.schedule, env.timeout_at
    return events, net, workload.size(smoke=smoke)


def net_events(net: Counter) -> int:
    """The net events a window's counts account for."""
    return net["trains"] + net["checks"] + net["batches"] + net["cancelled"]


def by_layer(events: Counter) -> Counter:
    layers = Counter()
    for where, count in events.items():
        layers[where.split("/", 1)[0] if "/" in where else "other"] += count
    return layers


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_net_layer_schedules_one_event_per_packet_per_server(name):
    """One event per train per server: a lone packet's train is the
    packet, and an RDMA message's train is all of its segments."""
    events, net, requests = census(name)
    layers = by_layer(events)
    total = sum(events.values())
    print(f"\n{name}: {total / requests:.1f} events per request over "
          f"{requests} requests; net {dict(net)}")
    for layer, count in layers.most_common():
        print(f"  {layer:<12} {count / requests:>9.1f}  "
              f"{count / total:>6.1%}")
    for where, count in events.most_common(5):
        print(f"    {where:<40} {count / requests:>9.1f}")
    assert layers["net"] == net_events(net)
    assert sorted(where for where in events if where.startswith("net/")) \
        == ["net/link.py:send", "net/switch.py:_accept"]


def test_image_rdma_full_window_is_at_most_60_events_per_request():
    """256 RDMA segments plus a response per request: one train per
    server instead of one event per segment per server. At full size
    the NIC's responses cross the switch while the next image is still
    arriving, so the switch splits trains, and the identity above still
    holds."""
    events, net, requests = census("image_rdma", smoke=False)
    per_request = sum(events.values()) / requests
    print(f"\nimage_rdma: {per_request:.1f} events per request; "
          f"net {dict(net)}")
    assert per_request <= 60
    assert net["splits"] > 0
    assert by_layer(events)["net"] == net_events(net)


def test_image_rdma_full_window_builds_a_few_packets_per_request():
    """An RDMA message is one object on the wire. Its segments become
    packets only where a packet identity is needed: the completing
    segment, which the lambda is served from, and, at a split, the
    segments the switch takes back. With the NIC's response that is a
    few packets per request, where one per segment made 257."""
    workload = WORKLOADS["image_rdma"]
    tb = workload.setup(42)
    workload.warm_up(tb)
    window = workload.start(tb)
    built = Counter()
    init = Packet.__init__

    def counted(packet, *args, **kwargs):
        built[type(packet).__name__] += 1
        init(packet, *args, **kwargs)

    Packet.__init__ = counted
    try:
        window()
    finally:
        Packet.__init__ = init
    per_request = sum(built.values()) / workload.size()
    print(f"\nimage_rdma: {per_request:.2f} packets built per request; "
          f"{dict(built)}")
    assert per_request <= 8


@pytest.mark.parametrize("name, limit", [("web_nic", 14), ("web_host", 13)])
def test_single_packet_full_window_event_budget(name, limit):
    """Each request stage is a timeout plus a callback: the gateway's
    proxy delay, its attempt timer and the caller's event, the NPU's
    busy time or the host's kernel rx, dispatch, CPU and kernel tx
    stages, and the net layer's three events per one-way packet. The
    host's handler runs with no process and no event of its own. The
    count is compared at the 0.1 it prints: the window also holds a
    few events of the loops' last, unfinished requests."""
    events, net, requests = census(name, smoke=False)
    per_request = sum(events.values()) / requests
    print(f"\n{name}: {per_request:.1f} events per request; "
          f"by layer {dict(by_layer(events))}")
    assert round(per_request, 1) <= limit
    assert by_layer(events)["net"] == net_events(net)


def test_web_host_window_builds_no_process_per_request():
    """The host runs a request's stages and its handler generator with
    no process: the window's processes are the load harness's own, as
    many however many requests it serves, and none is a handler's."""
    workload = WORKLOADS["web_host"]
    tb = workload.setup(42)
    workload.warm_up(tb, smoke=True)
    window = workload.start(tb, smoke=True)
    built = []
    init = Process.__init__

    def counted(process, env, generator):
        built.append(generator.gi_code.co_filename)
        init(process, env, generator)

    Process.__init__ = counted
    try:
        window()
    finally:
        Process.__init__ = init
    requests = workload.size(smoke=True)
    print(f"\nweb_host: {len(built)} processes over {requests} requests")
    assert not [where for where in built
                if os.path.join("repro", "host", "") in where
                or os.path.join("repro", "workloads", "") in where]
    assert len(built) < requests / 10
