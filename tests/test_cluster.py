"""Unit tests for the cluster substrate: hardware, nodes, network, builders."""

import pytest

from repro.cluster import (
    HARDWARE_CATALOG,
    Cluster,
    HardwareSpec,
    Network,
    Node,
    get_hardware,
    heterogeneous_cluster,
    homogeneous_cluster,
    mixed_cluster,
    register_hardware,
)
from repro.common.errors import ConfigurationError


class TestHardwareCatalog:
    """Table 4's published node specs must be encoded exactly."""

    def test_m510_specs(self):
        hw = get_hardware("m510")
        assert (hw.cores, hw.ram_gb, hw.disk_gb) == (8, 64, 256)
        assert hw.clock_ghz == 2.0
        assert hw.nic_gbps == 10.0

    def test_c6525_specs(self):
        hw = get_hardware("c6525_25g")
        assert (hw.cores, hw.ram_gb, hw.disk_gb) == (16, 128, 480)
        assert hw.clock_ghz == 2.2
        assert "AMD" in hw.processor

    def test_c6320_specs(self):
        hw = get_hardware("c6320")
        assert (hw.cores, hw.ram_gb, hw.disk_gb) == (28, 256, 1024)
        assert hw.clock_ghz == 2.0

    def test_speed_factor_ordering(self):
        # AMD EPYC cores fastest, Haswell slowest, m510 the baseline 1.0.
        m510 = get_hardware("m510").speed_factor
        amd = get_hardware("c6525_25g").speed_factor
        haswell = get_hardware("c6320").speed_factor
        assert m510 == 1.0
        assert amd > m510 > haswell

    def test_unknown_hardware(self):
        with pytest.raises(ConfigurationError, match="unknown hardware"):
            get_hardware("p4-gpu")

    def test_register_rejects_duplicate(self):
        spec = HARDWARE_CATALOG["m510"]
        with pytest.raises(ConfigurationError, match="already registered"):
            register_hardware(spec)

    def test_register_new_type(self):
        spec = HardwareSpec(
            name="test-node-xyzzy",
            cores=4,
            ram_gb=16,
            disk_gb=100,
            processor="Test",
            clock_ghz=3.0,
            nic_gbps=1.0,
        )
        try:
            register_hardware(spec)
            assert get_hardware("test-node-xyzzy").cores == 4
            # Default speed factor derives from clock vs the 2 GHz baseline.
            assert spec.speed_factor == pytest.approx(1.5)
        finally:
            HARDWARE_CATALOG.pop("test-node-xyzzy", None)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareSpec("bad", 0, 1, 1, "x", 2.0, 10.0)
        with pytest.raises(ConfigurationError):
            HardwareSpec("bad", 4, 1, 1, "x", -2.0, 10.0)
        with pytest.raises(ConfigurationError):
            HardwareSpec("bad", 4, 1, 1, "x", 2.0, 0.0)


class TestNode:
    def test_one_slot_per_core(self):
        node = Node(node_id=0, hardware=get_hardware("m510"))
        assert node.num_slots == 8
        assert all(slot.node_id == 0 for slot in node.slots)
        assert [s.slot_index for s in node.slots] == list(range(8))

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            Node(node_id=-1, hardware=get_hardware("m510"))


class TestNetwork:
    def _nodes(self):
        return [
            Node(node_id=0, hardware=get_hardware("m510")),
            Node(node_id=1, hardware=get_hardware("c6525_25g")),
        ]

    def test_same_node_free(self):
        net = Network(self._nodes())
        assert net.link_bandwidth(0, 0) == float("inf")

    def test_bandwidth_is_slower_nic(self):
        net = Network(self._nodes())
        # m510 has 10 Gbps, c6525 25 Gbps: the pair is limited to 10.
        assert net.link_bandwidth(0, 1) == pytest.approx(1.25e9)

    def test_rejects_unknown_node(self):
        net = Network(self._nodes())
        with pytest.raises(ConfigurationError):
            net.link_bandwidth(0, 99)


class TestClusterBuilders:
    def test_homogeneous_default_matches_paper(self):
        cluster = homogeneous_cluster()
        assert len(cluster.nodes) == 10
        assert cluster.total_slots == 80
        assert not cluster.is_heterogeneous
        assert cluster.max_cores_per_node == 8

    def test_heterogeneous_alternates(self):
        cluster = heterogeneous_cluster()
        names = [n.hardware.name for n in cluster.nodes]
        assert set(names) == {"c6525_25g", "c6320"}
        assert cluster.is_heterogeneous
        assert cluster.total_slots == 5 * 16 + 5 * 28

    def test_heterogeneous_needs_two_types(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster(("m510",))
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster(("m510", "m510"))

    def test_mixed_cluster_counts(self):
        cluster = mixed_cluster({"m510": 2, "c6320": 3})
        assert len(cluster.nodes) == 5
        counts = {}
        for node in cluster.nodes:
            counts[node.hardware.name] = counts.get(
                node.hardware.name, 0
            ) + 1
        assert counts == {"m510": 2, "c6320": 3}

    def test_mixed_rejects_zero_count(self):
        with pytest.raises(ConfigurationError):
            mixed_cluster({"m510": 0})

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([])
        with pytest.raises(ConfigurationError):
            homogeneous_cluster(num_nodes=0)

    def test_all_slots_grouped_by_node(self):
        cluster = homogeneous_cluster(num_nodes=2)
        slots = cluster.all_slots()
        assert len(slots) == 16
        assert [s.node_id for s in slots] == [0] * 8 + [1] * 8

    def test_describe_mentions_mix(self):
        assert "m510" in homogeneous_cluster().describe()

    def test_node_lookup(self):
        cluster = homogeneous_cluster(num_nodes=2)
        assert cluster.node(1).node_id == 1
        with pytest.raises(ConfigurationError):
            cluster.node(5)
