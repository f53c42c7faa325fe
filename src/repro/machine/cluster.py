"""Cluster specification: homogeneous nodes plus an interconnect."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.machine.network import NetworkSpec
from repro.machine.node import CoreLocation, NodeSpec


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of :class:`NodeSpec` nodes.

    Rank placement follows the paper's setup: consecutive MPI ranks on
    consecutive cores, filling node 0 completely before node 1, etc.
    """

    name: str
    node: NodeSpec
    network: NetworkSpec
    max_nodes: int = 64

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")

    @cached_property
    def digest(self) -> str:
        """:func:`~repro.store.content_key` of
        :func:`canonical_cluster_record` — the machine's identity by
        parameters, not by name (computed once per object)."""
        from repro.store import content_key

        return content_key(canonical_cluster_record(self))

    @property
    def cores_per_node(self) -> int:
        return self.node.cores

    def max_ranks(self) -> int:
        """Largest MPI job this cluster can host."""
        return self.max_nodes * self.node.cores

    def nodes_for(self, nprocs: int) -> int:
        """Number of nodes a compact placement of ``nprocs`` ranks uses."""
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        return -(-nprocs // self.node.cores)

    def place(self, rank: int) -> tuple[int, CoreLocation]:
        """Return ``(node_index, core_location)`` of an MPI rank."""
        if rank < 0:
            raise ValueError("rank must be non-negative")
        node_idx, core = divmod(rank, self.node.cores)
        if node_idx >= self.max_nodes:
            raise ValueError(
                f"rank {rank} exceeds cluster capacity "
                f"({self.max_nodes} nodes x {self.node.cores} cores)"
            )
        return node_idx, self.node.locate(core)

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """True if two ranks are placed on the same node."""
        return self.place(rank_a)[0] == self.place(rank_b)[0]

    def ranks_per_node(self, nprocs: int) -> list[int]:
        """Rank count on each used node for a compact placement."""
        nodes = self.nodes_for(nprocs)
        counts = [self.node.cores] * nodes
        remainder = nprocs - (nodes - 1) * self.node.cores
        counts[-1] = remainder
        return counts

    def describe(self) -> str:
        """Multi-line summary mirroring Table 3 of the paper."""
        cpu = self.node.cpu
        lines = [
            f"Cluster {self.name}",
            f"  Node: {self.node.describe()}",
            f"  CPU:  {cpu.describe()}",
            f"  L1/L2 per core: {cpu.hierarchy.l1.capacity_bytes / 2**10:.0f} KiB / "
            f"{cpu.hierarchy.l2.capacity_bytes / 2**20:.2f} MiB",
            f"  Shared L3: {cpu.hierarchy.l3.capacity_bytes / 2**20:.0f} MiB",
            f"  Network: {self.network.name} ({self.network.topology}), "
            f"{self.network.link_bandwidth * 8 / 1e9:.0f} Gbit/s per link+direction",
        ]
        return "\n".join(lines)


def _hx(value: float) -> str:
    return float(value).hex()


def canonical_cluster_record(cluster: ClusterSpec) -> dict[str, Any]:
    """Every parameter that can move a simulated result, floats
    hex-encoded; pure labels (cluster/CPU names, ISA string, launch
    year, extras, cache-level names) are excluded, so equal machines
    digest equally regardless of what they are called."""
    cpu = cluster.node.cpu
    levels = [
        {
            "capacity": _hx(lvl.capacity_bytes),
            "shared_by_cores": lvl.shared_by_cores,
            "bandwidth_per_core": _hx(lvl.bandwidth_per_core),
            "victim": lvl.victim,
        }
        for lvl in cpu.hierarchy.levels()
    ]
    net = cluster.network
    return {
        "max_nodes": cluster.max_nodes,
        "sockets": cluster.node.sockets,
        "memory_bytes": _hx(cluster.node.memory_bytes),
        "cpu": {
            "base_clock_hz": _hx(cpu.base_clock_hz),
            "nominal_clock_hz": _hx(cpu.nominal_clock_hz),
            "cores": cpu.cores,
            "numa_domains": cpu.numa_domains,
            "simd_width_dp": cpu.simd_width_dp,
            "fma_units": cpu.fma_units,
            "memory_channels": cpu.memory_channels,
            "memory_transfer_rate": _hx(cpu.memory_transfer_rate),
            "memory_bus_bytes": cpu.memory_bus_bytes,
            "sustained_bw_fraction": _hx(cpu.sustained_bw_fraction),
            "single_core_mem_bw": _hx(cpu.single_core_mem_bw),
            "tdp_w": _hx(cpu.tdp_w),
            "idle_power_w": _hx(cpu.idle_power_w),
            "dram_idle_power_w": _hx(cpu.dram_idle_power_w),
            "dram_power_per_gbs": _hx(cpu.dram_power_per_gbs),
            "caches": levels,
        },
        "network": {
            "link_bandwidth": _hx(net.link_bandwidth),
            "efficiency": _hx(net.efficiency),
            "latency": _hx(net.latency),
            "intra_node_bandwidth": _hx(net.intra_node_bandwidth),
            "intra_node_latency": _hx(net.intra_node_latency),
            "eager_threshold": net.eager_threshold,
            "rendezvous_handshake": _hx(net.rendezvous_handshake),
            "per_message_overhead": _hx(net.per_message_overhead),
        },
    }
