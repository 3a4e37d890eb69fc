"""The λ-NIC runtime: compile and deploy across a NIC fleet.

This is the framework half of the paper's contribution: given a set of
:class:`~repro.core.matchlambda.MatchLambdaWorkload` objects, the
runtime assigns workload IDs, compiles them into one optimised firmware
(§5.1), flashes every SmartNIC in the fleet (with swap downtime, §7),
and binds RDMA queue pairs. Which NIC serves a request is the gateway
route's choice.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..compiler import CompilationUnit, Firmware, compile_unit
from ..hw import SmartNIC
from ..sim import Environment
from .matchlambda import MatchLambdaWorkload


class LambdaNicRuntime:
    """Manages the Match+Lambda lifecycle over one or more SmartNICs."""

    def __init__(self, env: Environment, nics: List[SmartNIC],
                 optimize: bool = True) -> None:
        if not nics:
            raise ValueError("runtime needs at least one SmartNIC")
        self.env = env
        self.nics = list(nics)
        self.optimize = optimize
        self.workloads: Dict[str, MatchLambdaWorkload] = {}
        self.firmware: Optional[Firmware] = None
        self._wid_counter = itertools.count(1)

    # -- registration / compilation -------------------------------------

    def register(self, workload: MatchLambdaWorkload) -> int:
        """Add a workload; returns its assigned wid. Call
        :meth:`deploy` (or :meth:`deploy_instant`) afterwards."""
        workload.validate()
        if workload.name in self.workloads:
            raise ValueError(f"workload {workload.name!r} already registered")
        if workload.wid is None:
            workload.wid = next(self._wid_counter)
        self.workloads[workload.name] = workload
        return workload.wid

    def compile(self) -> Firmware:
        """(Re)compile all registered workloads into one firmware."""
        unit = CompilationUnit()
        for workload in self.workloads.values():
            unit.add_lambda(workload.program, wid=workload.wid,
                            route_port=workload.route_port)
        self.firmware = compile_unit(unit, optimize=self.optimize)
        return self.firmware

    # -- deployment --------------------------------------------------------

    def deploy(self):
        """Process: compile and flash all NICs (with swap downtime)."""
        firmware = self.compile()

        def deployer():
            loads = [nic.load_firmware(firmware) for nic in self.nics]
            yield self.env.all_of(loads)
            self._bind_rdma()
            return firmware

        return self.env.process(deployer())

    def deploy_instant(self) -> Firmware:
        """Compile and install with no simulated flash time (tests)."""
        firmware = self.compile()
        for nic in self.nics:
            nic.install_firmware(firmware)
        self._bind_rdma()
        return firmware

    def _bind_rdma(self) -> None:
        for workload in self.workloads.values():
            if workload.rdma is None:
                continue
            qualified = f"{workload.name}.{workload.rdma.object_name}"
            for nic in self.nics:
                nic.bind_rdma(workload.rdma.qp, workload.name, qualified)

    def unregister(self, name: str):
        """Process: remove a workload and reflash the fleet.

        With other workloads remaining, the firmware is rebuilt without
        the removed lambda (swap downtime applies); with none left the
        NICs revert to bare (no firmware) after the swap window.
        """
        if name not in self.workloads:
            raise KeyError(f"unknown workload {name!r}")
        del self.workloads[name]

        def redeployer():
            if self.workloads:
                firmware = yield self.deploy()
                return firmware
            for nic in self.nics:
                yield self.env.timeout(nic.firmware_swap_seconds)
                nic.firmware = None
                nic.memory.reset()
            self.firmware = None
            return None

        return self.env.process(redeployer())
