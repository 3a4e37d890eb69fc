"""Decomposed container network path (the overlay the paper blames).

The container backend's per-request overhead is not one number in
reality: a packet traverses the veth pair, the bridge, iptables/NAT
conntrack, the calico/VXLAN overlay, the docker userspace proxy, and —
in OpenFaaS classic — a watchdog fork per request (§2.1, §6.1.2 [17]).
This module models those components individually so ablations can
remove them (e.g. host networking mode) and so the single
``ContainerParams.dispatch_seconds`` constant is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class OverlayComponent:
    """One hop of the container network path."""

    name: str
    latency_seconds: float
    #: CPU consumed on the host per request by this hop.
    cpu_seconds: float = 0.0
    #: Can this hop be removed by a deployment choice?
    removable: bool = True


#: The default decomposition. The latencies sum to the container
#: runtime's default dispatch cost (3.8 ms pre-multiplier).
DEFAULT_COMPONENTS: Tuple[OverlayComponent, ...] = (
    OverlayComponent("veth_pair", 40e-6, cpu_seconds=5e-6),
    OverlayComponent("bridge", 30e-6, cpu_seconds=5e-6),
    OverlayComponent("iptables_nat", 180e-6, cpu_seconds=40e-6),
    OverlayComponent("overlay_encap", 250e-6, cpu_seconds=50e-6),
    OverlayComponent("docker_proxy", 800e-6, cpu_seconds=80e-6),
    OverlayComponent("watchdog_fork", 2500e-6, cpu_seconds=70e-6),
)


class OverlayPath:
    """An ordered set of network-path components with removal support."""

    def __init__(self, components: Tuple[OverlayComponent, ...]
                 = DEFAULT_COMPONENTS) -> None:
        names = [component.name for component in components]
        if len(set(names)) != len(names):
            raise ValueError("duplicate component names")
        self.components: List[OverlayComponent] = list(components)

    @property
    def dispatch_seconds(self) -> float:
        """Total added latency per request."""
        return sum(component.latency_seconds for component in self.components)

    @property
    def cpu_seconds(self) -> float:
        """Total added host CPU per request."""
        return sum(component.cpu_seconds for component in self.components)

    def without(self, *names: str) -> "OverlayPath":
        """A new path with the named (removable) components removed."""
        known = {component.name for component in self.components}
        unknown = set(names) - known
        if unknown:
            raise KeyError(f"unknown components {sorted(unknown)}")
        for component in self.components:
            if component.name in names and not component.removable:
                raise ValueError(f"{component.name!r} cannot be removed")
        return OverlayPath(tuple(
            component for component in self.components
            if component.name not in names
        ))

    def breakdown(self) -> Dict[str, float]:
        """Per-component latency, for reports."""
        return {component.name: component.latency_seconds
                for component in self.components}

    def __repr__(self) -> str:
        return (f"<OverlayPath {len(self.components)} hops, "
                f"{self.dispatch_seconds * 1e6:.0f} us>")


def host_networking_path() -> OverlayPath:
    """``--net=host``-style deployment: no veth/bridge/overlay/NAT."""
    return OverlayPath(DEFAULT_COMPONENTS).without(
        "veth_pair", "bridge", "iptables_nat", "overlay_encap",
    )
