"""The benchmark's simulated results, pinned.

``bench.repeat.run_repeat`` hashes each workload's window (sorted
latencies, failures by cause, kernel events and per-direction link
counters) into ``digest``. A change that is meant only to make the
simulator faster must leave all four digests as they are. A change
that alters simulated behaviour or kernel event counts on purpose
updates the pins and says why.
"""

import pytest

from bench.repeat import run_repeat

#: Seed-42 smoke-size digests (``run_repeat(name, 42, smoke=True)``).
PINNED = {
    "web_nic":
        "2cfe27da4929440f75b1baf520267d89d7c2cf9bf48a32ab4c6dd2ae334ecc3f",
    "image_rdma":
        "3ebf5974968979007838687c462b319cc4541fe5ac35ad5bf5b0182d8799905a",
    "web_host":
        "f945ff6be7cb2bbdd4a1919c5bf07a89f19c89b9008435fb4e98e8db43fb19bb",
    "storm_mixed":
        "3e0a75d62b0733a14dd4d6d6083b6fdccbd6b2166cfc61fdbff732d870ed5d25",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_digest_is_pinned(name):
    assert run_repeat(name, 42, smoke=True)["digest"] == PINNED[name]
