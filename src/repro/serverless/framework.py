"""The testbed (Figure 5): a master and four workers on a 10 G switch.

:class:`Testbed` assembles the full system — network, master node with
gateway/storage/memcached (and optionally an etcd cluster), plus worker
machines that can host any of the three backends — and exposes the
workload manager as the entry point, mirroring the paper's evaluation
setup.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import LambdaNicRuntime
from ..faults import FaultInjector, FaultPlan
from ..host import HostServer
from ..hw import SmartNIC
from ..kvcache import MemcachedServer
from ..net import Network
from ..obs import Tracer
from ..obs.metrics import MetricsRegistry
from ..raft import EtcdClient, EtcdCluster
from ..sim import Environment, RngRegistry
from .backends import BareMetalBackend, ContainerBackend, LambdaNicBackend
from .gateway import Gateway
from .manager import WorkloadManager
from .migration import MigrationController
from .monitor import HealthMonitor
from .overload import CoDelShedder, OverloadConfig
from .storage import ObjectStorage

#: Names mirroring the paper's testbed machines.
MASTER = "m1"
WORKERS = ["m2", "m3", "m4", "m5"]


class Testbed:
    """A fully wired evaluation cluster."""

    __test__ = False  # Not a pytest test class despite the T-name.

    def __init__(
        self,
        seed: int = 0,
        n_workers: int = 4,
        with_etcd: bool = False,
        with_failover: bool = False,
        with_tracing: bool = False,
        with_migration: bool = False,
        gateway_kwargs: Optional[dict] = None,
        nic_kwargs: Optional[dict] = None,
        manager_kwargs: Optional[dict] = None,
        failover_kwargs: Optional[dict] = None,
        migration_kwargs: Optional[dict] = None,
        overload: Optional[OverloadConfig] = None,
    ) -> None:
        if not 1 <= n_workers <= len(WORKERS):
            raise ValueError(f"n_workers must be in [1, {len(WORKERS)}]")
        self.env = Environment()
        self.rng = RngRegistry(seed=seed)
        self.network = Network(self.env)
        self.metrics = MetricsRegistry()
        #: Span tracer (None unless ``with_tracing``). Tracing never
        #: schedules events or consumes randomness, so a traced run is
        #: behaviourally identical to an untraced one.
        self.tracer: Optional[Tracer] = None
        if with_tracing:
            self.tracer = Tracer(self.env)
            self.env.set_tracer(self.tracer)
        self.worker_names = WORKERS[:n_workers]
        self.nic_kwargs = dict(nic_kwargs or {})
        #: End-to-end overload control (Issue 8). When None, no
        #: shedders exist, no extra rng streams are created, and every
        #: request path is byte-identical to an overload-less build.
        self.overload = overload

        # Master node: gateway + storage + memcached (+ etcd).
        gw_kwargs = dict(gateway_kwargs or {})
        gw_kwargs.setdefault("rng", self.rng.stream("gateway"))
        if overload is not None:
            gw_kwargs.setdefault("overload", overload)
            gw_kwargs.setdefault("overload_rng",
                                 self.rng.stream("overload:gateway"))
        self.gateway = Gateway(
            self.env,
            self.network.add_node(MASTER),
            metrics=self.metrics,
            **gw_kwargs,
        )
        self.storage = ObjectStorage(self.env)
        self.memcached = MemcachedServer(
            self.env, self.network.add_node("memcached")
        )
        self.etcd_cluster: Optional[EtcdCluster] = None
        etcd_client = None
        if with_etcd:
            self.etcd_cluster = EtcdCluster(
                self.env, self.network, n_nodes=3, rng=self.rng
            )
            etcd_client = EtcdClient(
                self.env,
                self.network.add_node("etcd-client"),
                self.etcd_cluster.names,
            )
        self.manager = WorkloadManager(
            self.env, self.gateway, self.storage, etcd=etcd_client,
            metrics=self.metrics, **(manager_kwargs or {}),
        )
        # Live migration: the controller runs the PLANNED → ... →
        # CUTOVER state machine for callers that name a target, and for
        # the failover driver's forced migrations.
        self.migrator: Optional[MigrationController] = None
        if with_migration:
            self.migrator = MigrationController(
                self.env, self.manager, self.gateway,
                etcd=etcd_client, metrics=self.metrics,
                **(migration_kwargs or {}),
            )
        # Failover driver (health-checked routes + degradation). With
        # migration enabled, degrade/restore run as forced migrations.
        self.health: Optional[HealthMonitor] = None
        if with_failover:
            self.health = HealthMonitor(
                self.env, self.gateway, self.manager,
                migrator=self.migrator,
                **(failover_kwargs or {}),
            )
            self.health.start()
        self.injector: Optional[FaultInjector] = None

        # Worker substrates are created lazily per backend kind.
        self._host_servers: Dict[str, List[HostServer]] = {}
        self._nics: List[SmartNIC] = []
        self.nic_runtime: Optional[LambdaNicRuntime] = None

    # -- backend construction -------------------------------------------------

    def _backend_shedder(self, name: str) -> Optional[CoDelShedder]:
        """A per-backend-instance shedder, or None when disabled."""
        ov = self.overload
        if ov is None or ov.backend_shed_target_seconds is None:
            return None
        return CoDelShedder(
            ov.backend_shed_target_seconds,
            interval_seconds=ov.shed_interval_seconds,
            rng=self.rng.stream(f"overload:{name}"),
        )

    def _make_host_servers(self, suffix: str) -> List[HostServer]:
        servers = []
        for name in self.worker_names:
            node = self.network.add_node(f"{name}-{suffix}")
            servers.append(HostServer(
                self.env, node, metrics=self.metrics,
                shedder=self._backend_shedder(f"{name}-{suffix}"),
            ))
        return servers

    def add_container_backend(self) -> ContainerBackend:
        servers = self._make_host_servers("ctr")
        self._host_servers["container"] = servers
        backend = ContainerBackend(
            self.env, servers, rng=self.rng.stream("container"),
        )
        self.manager.add_backend(backend)
        return backend

    def add_bare_metal_backend(self) -> BareMetalBackend:
        servers = self._make_host_servers("bm")
        self._host_servers["bare-metal"] = servers
        backend = BareMetalBackend(
            self.env, servers, rng=self.rng.stream("bare-metal"),
        )
        self.manager.add_backend(backend)
        return backend

    def add_lambda_nic_backend(self, optimize: bool = True) -> LambdaNicBackend:
        for name in self.worker_names:
            node = self.network.add_node(f"{name}-nic")
            self._nics.append(SmartNIC(
                self.env, node,
                rng=self.rng.stream(f"nic:{name}"),
                metrics=self.metrics,
                shedder=self._backend_shedder(f"{name}-nic"),
                **self.nic_kwargs,
            ))
        self.nic_runtime = LambdaNicRuntime(self.env, self._nics,
                                            optimize=optimize)
        backend = LambdaNicBackend(self.env, self.nic_runtime)
        self.manager.add_backend(backend)
        return backend

    def add_backend(self, kind: str):
        """Create a backend by kind name."""
        if kind == "container":
            return self.add_container_backend()
        if kind == "bare-metal":
            return self.add_bare_metal_backend()
        if kind == "lambda-nic":
            return self.add_lambda_nic_backend()
        raise ValueError(f"unknown backend kind {kind!r}")

    # -- fault injection ---------------------------------------------------------

    def add_fault_injector(self, plan: FaultPlan,
                           start: bool = True) -> FaultInjector:
        """Attach (and by default start) a fault injector for ``plan``."""
        self.injector = FaultInjector(self.env, self, plan,
                                      metrics=self.metrics)
        if start:
            self.injector.start()
        return self.injector

    # -- accessors ---------------------------------------------------------------

    def host_servers(self, kind: str) -> List[HostServer]:
        return self._host_servers[kind]

    def host_server(self, name: str) -> HostServer:
        """Find one host worker by node name, across all backends."""
        for servers in self._host_servers.values():
            for server in servers:
                if server.name == name:
                    return server
        raise KeyError(f"no host server {name!r}")

    def nic(self, name: str) -> SmartNIC:
        for nic in self._nics:
            if nic.name == name:
                return nic
        raise KeyError(f"no SmartNIC {name!r}")

    @property
    def nics(self) -> List[SmartNIC]:
        return list(self._nics)

    def run(self, until=None):
        return self.env.run(until=until)
