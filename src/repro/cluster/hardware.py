"""Hardware catalog reproducing Table 4 of the paper.

The paper benchmarks on three CloudLab node types:

========== ===== ======== ========= ========== ========= ========
node       cores RAM (GB) disk (GB) processor  clock GHz NIC Gbps
========== ===== ======== ========= ========== ========= ========
m510       8     64       256       Xeon D     2.0       10
c6525_25g  16    128      480       AMD EPYC   2.2       25
c6320      28    256      1024      Haswell    2.0       10
========== ===== ======== ========= ========== ========= ========

``m510`` builds the homogeneous cluster; ``c6525_25g`` and ``c6320`` build the
heterogeneous ones. The catalog is extensible via :func:`register_hardware`
(the paper's WUI exposes the same knob for other cloud providers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError

__all__ = [
    "HardwareSpec",
    "HARDWARE_CATALOG",
    "get_hardware",
    "register_hardware",
]


@dataclass(frozen=True)
class HardwareSpec:
    """Static description of one node type.

    ``speed_factor`` expresses per-core throughput relative to the m510
    baseline; service times in the simulator are divided by it. It defaults
    to the clock-speed ratio but can encode microarchitectural differences.
    """

    name: str
    cores: int
    ram_gb: int
    disk_gb: int
    processor: str
    clock_ghz: float
    nic_gbps: float
    speed_factor: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigurationError(f"{self.name}: cores must be positive")
        if self.clock_ghz <= 0:
            raise ConfigurationError(f"{self.name}: clock must be positive")
        if self.nic_gbps <= 0:
            raise ConfigurationError(
                f"{self.name}: NIC speed must be positive"
            )
        if self.speed_factor == 0.0:
            # Default: per-core speed scales with clock relative to 2.0 GHz.
            object.__setattr__(self, "speed_factor", self.clock_ghz / 2.0)
        elif self.speed_factor < 0:
            raise ConfigurationError(
                f"{self.name}: speed_factor must be positive"
            )


#: The three CloudLab node types of Table 4. ``speed_factor`` encodes that
#: AMD EPYC (Rome) cores are faster per-clock than the Xeon D baseline and
#: Haswell cores slightly slower, matching the paper's observation that the
#: heterogeneous clusters differ in per-core capability, not just core count.
HARDWARE_CATALOG: dict[str, HardwareSpec] = {
    "m510": HardwareSpec(
        name="m510",
        cores=8,
        ram_gb=64,
        disk_gb=256,
        processor="Intel Xeon D-1548",
        clock_ghz=2.0,
        nic_gbps=10.0,
    ),
    "c6525_25g": HardwareSpec(
        name="c6525_25g",
        cores=16,
        ram_gb=128,
        disk_gb=480,
        processor="AMD EPYC 7302P",
        clock_ghz=2.2,
        nic_gbps=25.0,
        speed_factor=1.25,
    ),
    "c6320": HardwareSpec(
        name="c6320",
        cores=28,
        ram_gb=256,
        disk_gb=1024,
        processor="Intel Haswell E5-2683v3",
        clock_ghz=2.0,
        nic_gbps=10.0,
        speed_factor=0.95,
    ),
}


def get_hardware(name: str) -> HardwareSpec:
    """Look up a node type by catalog name."""
    try:
        return HARDWARE_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(HARDWARE_CATALOG))
        raise ConfigurationError(
            f"unknown hardware type {name!r}; known types: {known}"
        ) from None


def register_hardware(spec: HardwareSpec, *, replace: bool = False) -> None:
    """Add a node type to the catalog (e.g. for another cloud provider)."""
    if spec.name in HARDWARE_CATALOG and not replace:
        raise ConfigurationError(
            f"hardware type {spec.name!r} already registered; "
            "pass replace=True to overwrite"
        )
    HARDWARE_CATALOG[spec.name] = spec
