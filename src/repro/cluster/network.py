"""Network model.

Tuples crossing node boundaries pay a propagation latency plus a
bandwidth-limited transfer time on the *slower* of the two endpoints' NICs.
Intra-node channels are free of network cost (they still pay the engine's
serialization overhead on shuffle edges, which Flink pays too for keyed
exchanges within a task manager when operator chaining is broken).

The paper stresses that "network latency is a significant factor" because
operators may be distributed across CloudLab machines; this model gives the
simulator exactly that term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import Node
from repro.common.errors import ConfigurationError
from repro.common.units import bytes_per_second

__all__ = ["NetworkSpec", "Network"]


@dataclass(frozen=True)
class NetworkSpec:
    """Parameters of the cluster interconnect.

    ``base_latency_s`` is the one-way LAN propagation + switching latency
    between any two distinct nodes (CloudLab machines sit in one datacenter;
    ~100us is typical for its 10/25 Gbps fabric).
    """

    base_latency_s: float = 100e-6
    per_hop_jitter_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.base_latency_s < 0 or self.per_hop_jitter_s < 0:
            raise ConfigurationError("network latencies must be non-negative")


class Network:
    """The links between nodes of a cluster: latency and bandwidth."""

    def __init__(self, nodes: list[Node], spec: NetworkSpec | None = None):
        self._spec = spec or NetworkSpec()
        self._nodes = {node.node_id: node for node in nodes}
        if len(self._nodes) != len(nodes):
            raise ConfigurationError("duplicate node ids in network")

    @property
    def spec(self) -> NetworkSpec:
        """The interconnect parameters."""
        return self._spec

    def link_bandwidth(self, src: int, dst: int) -> float:
        """Effective bandwidth (bytes/s) between two nodes.

        Bounded by the slower NIC of the pair. Same-node transfers return
        ``inf`` (memory-speed hand-off).
        """
        if src == dst:
            return float("inf")
        try:
            src_nic = self._nodes[src].hardware.nic_gbps
            dst_nic = self._nodes[dst].hardware.nic_gbps
        except KeyError as exc:
            raise ConfigurationError(f"unknown node id {exc}") from None
        return bytes_per_second(min(src_nic, dst_nic))
