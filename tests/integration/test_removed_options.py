"""Options that no caller set are gone: each keyword is refused.

Every value below was a parameter or field with a default that no
driver, test or example changed (or that only a test changed, selecting
a path nothing else took). It is now a module constant or deleted with
its path, so passing it is a ``TypeError`` at the call, raised before
the callee runs (which is why placeholder arguments suffice).
"""

import pytest

from repro.compiler.codegen import check_resources
from repro.core import LambdaNicRuntime
from repro.hw import SmartNIC
from repro.hw.npu import Island
from repro.isa.verify import RangeSeeds, VerifyOptions, interval_states
from repro.raft import EtcdCluster, RaftNode
from repro.serverless import (
    AdmissionPolicy,
    BareMetalBackend,
    CoDelShedder,
    ContainerBackend,
    HealthMonitor,
    Migration,
    MigrationController,
    ObjectStorage,
    OverloadConfig,
    RetryBudget,
)
from repro.serverless.backends import HostBackend
from repro.workloads import (
    image_transformer_host,
    kv_client_host,
    web_server_host,
)

#: owner -> (callee with placeholders for its required arguments, the
#: deleted keywords, a value they used to take).
REMOVED = {
    "VerifyOptions": (VerifyOptions, (
        "entry", "scratch", "check_uninitialized", "check_dead_stores",
        "check_memory", "check_wcet", "meta_ranges"), None),
    "RangeSeeds": (RangeSeeds, ("meta_ranges", "clobbered_meta"), None),
    "RangeSeeds.for_program": (
        lambda **kw: RangeSeeds.for_program(None, **kw),
        ("meta_ranges", "trust_declared"), None),
    "interval_states": (lambda **kw: interval_states(None, **kw),
                        ("meta_ranges", "trust_declared"), None),
    "check_resources": (lambda **kw: check_resources(None, **kw),
                        ("strict",), False),
    "AdmissionPolicy": (AdmissionPolicy, (
        "clock_hz", "nic_backend_kinds", "host_fallback_order",
        "verify_options"), None),
    "HealthMonitor": (lambda **kw: HealthMonitor(None, None, None, **kw),
                      ("probe_timeout", "probe_ejected"), 0.5),
    "EtcdCluster": (lambda **kw: EtcdCluster(None, None, **kw),
                    ("name_prefix",), "kv"),
    "RaftNode": (lambda **kw: RaftNode(None, None, [], None, None, **kw),
                 ("election_timeout_min", "election_timeout_max",
                  "heartbeat_interval"), 0.1),
    "Island": (lambda **kw: Island(0, **kw), ("ctm_bytes",), 1024),
    "ObjectStorage": (lambda **kw: ObjectStorage(None, **kw),
                      ("base_latency_seconds",), 0.0),
    "OverloadConfig": (OverloadConfig,
                       ("retry_budget_cap", "shed_max_probability"), 0.5),
    "RetryBudget": (lambda **kw: RetryBudget(0.1, **kw), ("cap",), 5.0),
    "CoDelShedder": (lambda **kw: CoDelShedder(0.01, **kw),
                     ("max_probability",), 0.5),
    "HostBackend": (lambda **kw: HostBackend(None, [None], None, **kw),
                    ("memcached_server",), "cache"),
    "ContainerBackend": (lambda **kw: ContainerBackend(None, [None], **kw),
                         ("memcached_server",), "cache"),
    "BareMetalBackend": (lambda **kw: BareMetalBackend(None, [None], **kw),
                         ("memcached_server",), "cache"),
    "SmartNIC.bind_rdma": (
        lambda **kw: SmartNIC.bind_rdma(None, 1, "img", "img.image", **kw),
        ("buffer_pool",), 4),
    "SmartNIC.load_firmware": (
        lambda **kw: SmartNIC.load_firmware(None, None, **kw),
        ("swap", "hitless"), True),
    "LambdaNicRuntime.deploy": (
        lambda **kw: LambdaNicRuntime.deploy(None, **kw), ("swap",), True),
    "Migration": (lambda **kw: Migration("w", "a", "b", "manual", 0.0, **kw),
                  ("drain_mode",), "dual"),
    "MigrationController.migrate": (
        lambda **kw: MigrationController.migrate(None, "w", **kw),
        ("drain_mode",), "dual"),
    "web_server_host": (web_server_host,
                        ("page_bytes", "cpu_seconds", "sigma"), 1),
    "kv_client_host": (kv_client_host, (
        "server", "keys", "cpu_seconds", "value_bytes", "sigma"), 1),
    "image_transformer_host": (image_transformer_host,
                               ("seconds_per_pixel", "sigma"), 1),
}


@pytest.mark.parametrize("callee, name, value", [
    pytest.param(callee, name, value, id=f"{owner}.{name}")
    for owner, (callee, names, value) in REMOVED.items() for name in names
])
def test_removed_option_is_refused(callee, name, value):
    with pytest.raises(TypeError, match=f"'{name}'"):
        callee(**{name: value})
