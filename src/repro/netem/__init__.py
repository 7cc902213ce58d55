"""Network emulation substrate.

A deterministic discrete-event reimplementation of the paper's testbed
router: ``tc`` token-bucket rate limiting, droptail queues, ``netem``
delay/jitter/loss/reordering, plus the topologies of Figs. 1, 4 and 16.
"""

from .capture import (
    CaptureRecord,
    PacketCapture,
    PathCharacteristics,
    characterize_scenario,
)
from .link import BandwidthSchedule, Link, LinkStats, mbps
from .node import Network, Node
from .packet import DEFAULT_MSS, HEADER_BYTES, Packet
from .queues import (
    AQM_NAMES,
    CoDel,
    DropTail,
    FQCoDel,
    QueueDiscipline,
    RED,
    make_queue,
)
from .profiles import (
    CELLULAR_PROFILES,
    BASE_RTT,
    CellularProfile,
    EXTRA_DELAYS_MS,
    EXTRA_LOSS,
    OBJECT_COUNTS,
    OBJECT_SIZES_KB,
    RATE_LIMITS_MBPS,
    Scenario,
    emulated,
    fairness_bottleneck,
    plt_grid,
    reordering_scenario,
    variable_bandwidth_scenario,
)
from .sim import SimulationError, Simulator
from .tracebw import (
    BandwidthTrace,
    TraceDrivenLink,
    lte_like_trace,
    saw_tooth_trace,
)
from .topology import Path, build_bottleneck, build_path, build_proxy_path

__all__ = [
    "CaptureRecord",
    "PacketCapture",
    "PathCharacteristics",
    "characterize_scenario",
    "BandwidthSchedule",
    "Link",
    "LinkStats",
    "mbps",
    "Network",
    "Node",
    "DEFAULT_MSS",
    "HEADER_BYTES",
    "Packet",
    "AQM_NAMES",
    "CoDel",
    "DropTail",
    "FQCoDel",
    "QueueDiscipline",
    "RED",
    "make_queue",
    "CELLULAR_PROFILES",
    "BASE_RTT",
    "CellularProfile",
    "EXTRA_DELAYS_MS",
    "EXTRA_LOSS",
    "OBJECT_COUNTS",
    "OBJECT_SIZES_KB",
    "RATE_LIMITS_MBPS",
    "Scenario",
    "emulated",
    "fairness_bottleneck",
    "plt_grid",
    "reordering_scenario",
    "variable_bandwidth_scenario",
    "SimulationError",
    "Simulator",
    "BandwidthTrace",
    "TraceDrivenLink",
    "lte_like_trace",
    "saw_tooth_trace",
    "Path",
    "build_bottleneck",
    "build_path",
    "build_proxy_path",
]
