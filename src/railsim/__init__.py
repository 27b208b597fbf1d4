"""railsim: deterministic simulation and quality models for packet
replication over redundant WAN links.

A sender-side edge device replicates every packet over all configured
paths; the receiver-side device forwards the first copy of each sequence
number, suppresses later copies and can pad early packets to a constant
one-way delay.  The package simulates that datapath over parametric or
trace-driven path models and evaluates the result with network metrics,
a VoIP MOS model and a TCP throughput model.
"""

__version__ = "0.1.0"

from .engine import (PaddingConfig, Scenario, SimResult, TrafficSpec,
                     load_scenario, run_sweep, simulate)
from .errors import (ConfigurationError, DomainError, RailSimError,
                     TraceParseError, ValidationError)
from .metrics import (BurstStats, DelayCdf, ReorderStats, burst_stats,
                      downtime_combine, empirical_cdf, rail_cdf, reorder_stats)
from .pathsim import (DelayModel, LossModel, PathSpec, SharedSegmentSpec,
                      Trace, load_trace)
from .quality import (MosPoint, QualityScore, TcpPath, TcpPathSet,
                      TcpPrediction, effective_loss, mos, mos_curve,
                      optimal_playout, path_mos_curve, rail_loss_independent,
                      rail_loss_shared, rail_mos_curve, tcp_throughput_rail,
                      tcp_throughput_single)

__all__ = [
    # engine
    "PaddingConfig", "Scenario", "SimResult", "TrafficSpec", "load_scenario", "run_sweep",
    "simulate",
    # errors
    "ConfigurationError", "DomainError", "RailSimError", "TraceParseError",
    "ValidationError",
    # metrics
    "BurstStats", "DelayCdf", "ReorderStats", "burst_stats", "downtime_combine",
    "empirical_cdf", "rail_cdf", "reorder_stats",
    # pathsim
    "DelayModel", "LossModel", "PathSpec", "SharedSegmentSpec", "Trace",
    "load_trace",
    # quality
    "MosPoint", "QualityScore", "TcpPath", "TcpPathSet", "TcpPrediction",
    "effective_loss", "mos", "mos_curve", "optimal_playout", "path_mos_curve",
    "rail_loss_independent", "rail_loss_shared", "rail_mos_curve",
    "tcp_throughput_rail", "tcp_throughput_single",
]
