"""ICN-over-SDN topology bootstrapping and management, simulated.

Library layers, bottom up: :mod:`icnsim.fid` (Bloom-filter identifiers),
:mod:`icnsim.wire` (bit-exact message codec), :mod:`icnsim.topology` (the
Topology Manager graph), :mod:`icnsim.bootstrap` (handshake state
machines), :mod:`icnsim.fabric` (switch flow tables and the SDN
controller), :mod:`icnsim.simnet` (deterministic event loop),
:mod:`icnsim.deploy` (wired deployments), :mod:`icnsim.topospec` and
:mod:`icnsim.bench` (spec files and experiments), :mod:`icnsim.cli`.
"""

from .fid import (BitVector, Exhausted, Fid, FidParams, LinkId, WidthMismatch,
                  fid_matches, fid_or, lid_fpr, new_lid)
from .topology import (DirectedLink, LinkEvent, LinkEventKind, LinkStatsReport,
                       NodeKind, NodeRecord, ResourceGrant, StatsEntry, TM_NID,
                       TopologyGraph)
from .bootstrap import (BootstrapState, NodeBootstrapFsm, NodeConfig, Timers,
                        TmEngine, apply_update, responder_on_discovery)
from .fabric import Controller, FlowRule, FlowTable, IcnPacket, switch_forward
from .simnet import MeasurementSpan, SimReport, Simulator
from .deploy import Deployment
from .topospec import TopologySpec, generate_random, load_spec, parse_spec

__version__ = "0.1.0"

__all__ = [
    "BitVector", "Exhausted", "Fid", "FidParams", "LinkId", "WidthMismatch",
    "fid_matches", "fid_or", "lid_fpr", "new_lid",
    "DirectedLink", "LinkEvent", "LinkEventKind", "LinkStatsReport", "NodeKind",
    "NodeRecord", "ResourceGrant", "StatsEntry", "TM_NID", "TopologyGraph",
    "BootstrapState", "NodeBootstrapFsm", "NodeConfig", "Timers", "TmEngine",
    "apply_update", "responder_on_discovery",
    "Controller", "FlowRule", "FlowTable", "IcnPacket", "switch_forward",
    "MeasurementSpan", "SimReport", "Simulator",
    "Deployment", "TopologySpec", "generate_random", "load_spec", "parse_spec",
    "__version__",
]
