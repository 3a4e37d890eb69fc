"""Serverless backends: container, bare-metal, and λ-NIC.

A backend owns the worker-side resources for one execution substrate
and knows how to deploy a :class:`~repro.workloads.registry.WorkloadSpec`
onto them. The workload manager drives deployments; the gateway routes
to whatever targets the backend reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import LambdaNicRuntime, MatchLambdaWorkload, RdmaBinding
from ..host import BareMetalRuntime, ContainerRuntime, HostServer, Runtime
from ..isa import Region
from ..sim import Environment
from ..workloads import WorkloadSpec

#: Staging buffers reserved per RDMA-bound workload (≈ one per
#: concurrently served multi-packet request; the testbed CPU serves 56).
RDMA_BUFFER_POOL = 56


@dataclass
class DeployResult:
    """What the manager needs to finish wiring a deployment."""

    workload: str
    wid: int
    targets: List[str]
    rdma_qp: Optional[int] = None
    package_bytes: int = 0
    startup_seconds: float = 0.0


@dataclass
class StateSnapshot:
    """A lambda's exported persistent state, pinned to an epoch.

    ``epoch`` is the source's state version at export time; the
    migration controller re-reads the source epoch after shipping the
    bytes and re-exports if they diverged (the epoch fence).
    """

    workload: str
    source: str
    epoch: int
    objects: Dict[str, bytes] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return sum(len(blob) for blob in self.objects.values())


class Backend:
    """Interface all backends implement."""

    kind = "abstract"

    def deploy(self, spec: WorkloadSpec, wid: int):
        """Process: deploy and start ``spec``; returns DeployResult."""
        raise NotImplementedError

    def undeploy(self, name: str):
        """Process: remove a deployed workload."""
        raise NotImplementedError

    def package_bytes(self, spec: WorkloadSpec) -> int:
        """Size of the deployable artifact for this backend."""
        raise NotImplementedError

    @property
    def targets(self) -> List[str]:
        raise NotImplementedError

    def healthy_targets(self) -> List[str]:
        """Targets currently able to serve (control-plane liveness).

        This is the kubelet-heartbeat view: which workers/NICs does the
        substrate believe are up right now. The gateway's circuit
        breakers provide the complementary data-plane view.
        """
        return self.targets

    # -- live migration hooks ----------------------------------------------

    def export_state(self, workload: str,
                     target: Optional[str] = None) -> Optional[StateSnapshot]:
        """Snapshot ``workload``'s persistent state, or ``None``.

        ``None`` means "nothing to ship": either this substrate keeps
        no migratable persistent state (host runtimes rebuild theirs on
        start) or the source is dark and unreadable. The controller
        treats both as a state-less cutover.
        """
        return None

    def import_state(self, workload: str, snapshot: StateSnapshot,
                     target: Optional[str] = None) -> int:
        """Install an exported snapshot; returns bytes written."""
        return 0

    def state_epoch(self, workload: str,
                    target: Optional[str] = None) -> Optional[int]:
        """Current state version at the source, for the epoch fence."""
        return None


class HostBackend(Backend):
    """Shared logic for the container and bare-metal backends."""

    def __init__(self, env: Environment, servers: List[HostServer],
                 runtime_factory, rng=None,
                 memcached_server: str = "memcached") -> None:
        if not servers:
            raise ValueError("backend needs at least one worker server")
        self.env = env
        self.servers = list(servers)
        self.runtime_factory = runtime_factory
        self.rng = rng
        self.memcached_server = memcached_server

    @property
    def targets(self) -> List[str]:
        return [server.name for server in self.servers]

    def healthy_targets(self) -> List[str]:
        return [server.name for server in self.servers if server.online]

    def runtime(self) -> Runtime:
        return self.runtime_factory()

    def package_bytes(self, spec: WorkloadSpec) -> int:
        return self.runtime().package_bytes(spec.code_bytes)

    def deploy(self, spec: WorkloadSpec, wid: int,
               max_workers: Optional[int] = None):
        def deployer():
            runtime = self.runtime()
            workers = max_workers if max_workers is not None \
                else spec.max_workers_for(self.kind)
            package = runtime.package_bytes(spec.code_bytes)
            startup = runtime.startup_seconds(package)
            for server in self.servers:
                kwargs = dict(spec.host_kwargs)
                if self.rng is not None:
                    kwargs.setdefault("rng", self.rng)
                if spec.kind == "kv":
                    kwargs.setdefault("server", self.memcached_server)
                handler = spec.host_factory(**kwargs)
                server.deploy(
                    spec.name, wid=wid, handler=handler,
                    runtime=self.runtime(), code_bytes=spec.code_bytes,
                    max_workers=workers, warm=False,
                )
            starts = [server.start(spec.name) for server in self.servers]
            yield self.env.all_of(starts)
            return DeployResult(
                workload=spec.name, wid=wid, targets=self.targets,
                package_bytes=package, startup_seconds=startup,
            )

        return self.env.process(deployer())

    def undeploy(self, name: str):
        def undeployer():
            for server in self.servers:
                server.undeploy(name)
            yield self.env.timeout(0.5)  # container/process teardown
            return None

        return self.env.process(undeployer())


class ContainerBackend(HostBackend):
    """Docker/Kubernetes workers (the OpenFaaS default)."""

    kind = "container"

    def __init__(self, env: Environment, servers: List[HostServer],
                 rng=None, memcached_server: str = "memcached") -> None:
        super().__init__(env, servers, ContainerRuntime, rng, memcached_server)


class BareMetalBackend(HostBackend):
    """Isolate-style bare-metal Python service workers."""

    kind = "bare-metal"

    def __init__(self, env: Environment, servers: List[HostServer],
                 rng=None, memcached_server: str = "memcached") -> None:
        super().__init__(env, servers, BareMetalRuntime, rng, memcached_server)


class LambdaNicBackend(Backend):
    """λ-NIC: workloads run on the workers' SmartNICs."""

    kind = "lambda-nic"

    #: Firmware build time for the NIC toolchain; dominates λ-NIC's
    #: startup (Table 4: 19.8 s total with download + flash).
    compile_seconds = 17.7

    def __init__(self, env: Environment, runtime: LambdaNicRuntime) -> None:
        self.env = env
        self.runtime = runtime
        self._qps = itertools.count(1)

    @property
    def targets(self) -> List[str]:
        return [nic.name for nic in self.runtime.nics]

    def healthy_targets(self) -> List[str]:
        return [nic.name for nic in self.runtime.nics if nic.serving]

    def _nic(self, target: str):
        for nic in self.runtime.nics:
            if nic.name == target:
                return nic
        raise KeyError(f"lambda-nic backend has no NIC {target!r}")

    def _source_nics(self, target: Optional[str]) -> List:
        if target is not None:
            return [self._nic(target)]
        return [nic for nic in self.runtime.nics if nic.serving]

    def export_state(self, workload: str,
                     target: Optional[str] = None) -> Optional[StateSnapshot]:
        for nic in self._source_nics(target):
            exported = nic.export_lambda_state(workload)
            if exported is not None:
                epoch, objects = exported
                return StateSnapshot(workload, nic.name, epoch, objects)
        return None

    def import_state(self, workload: str, snapshot: StateSnapshot,
                     target: Optional[str] = None) -> int:
        written = 0
        for nic in self._source_nics(target):
            written += nic.import_lambda_state(workload, snapshot.objects)
        return written

    def state_epoch(self, workload: str,
                    target: Optional[str] = None) -> Optional[int]:
        for nic in self._source_nics(target):
            if nic.export_lambda_state(workload) is not None:
                return nic.state_epoch
        return None

    def package_bytes(self, spec: WorkloadSpec) -> int:
        if self.runtime.firmware is not None:
            return self.runtime.firmware.binary_size_bytes
        return spec.code_bytes

    def deploy(self, spec: WorkloadSpec, wid: int):
        def deployer():
            program = spec.nic_program()
            rdma = None
            if spec.uses_rdma:
                rdma = RdmaBinding(object_name="image", qp=next(self._qps))
            workload = MatchLambdaWorkload(program=program, wid=wid, rdma=rdma)
            self.runtime.register(workload)
            # Firmware (re)build: the slow NIC toolchain.
            yield self.env.timeout(self.compile_seconds)
            firmware = yield self.runtime.deploy(swap=True)
            if rdma is not None:
                qualified = f"{workload.name}.{rdma.object_name}"
                for nic in self.runtime.nics:
                    # Extra staging buffers beyond the one deploy() bound.
                    size = len(nic.lambda_memory(qualified))
                    nic.memory.allocate(
                        Region.EMEM, (RDMA_BUFFER_POOL - 1) * size
                    )
            startup = self.compile_seconds + sum(
                nic.firmware_swap_seconds for nic in self.runtime.nics[:1]
            )
            return DeployResult(
                workload=spec.name, wid=wid, targets=self.targets,
                rdma_qp=rdma.qp if rdma else None,
                package_bytes=firmware.binary_size_bytes,
                startup_seconds=startup,
            )

        return self.env.process(deployer())

    def undeploy(self, name: str):
        """Process: drop the lambda and reflash the fleet without it."""
        return self.runtime.unregister(name)
