"""The package namespace: what ``from railsim import *`` exports, and the
contract of its value records."""

import dataclasses
import importlib
import types

import pytest

import railsim


def test_all_names_public_objects_not_submodules():
    assert len(set(railsim.__all__)) == len(railsim.__all__)
    for name in railsim.__all__:
        assert not isinstance(getattr(railsim, name), types.ModuleType), name


def test_removed_per_packet_api_is_gone():
    import railsim.engine
    import railsim.errors
    import railsim.pathsim
    import railsim.quality
    import railsim.railedge

    gone = {
        railsim.pathsim: ["Outcome", "LOST", "PathState", "SharedSegmentState",
                          "sample_outcome", "trace_outcome", "PathStream",
                          "LossStream", "_Buffered", "sample_loss", "_clone",
                          "stream_rng", "path_rng", "shared_rng", "_CLONE_SEED"],
        railsim.pathsim.Trace: ["outcome", "replay_window", "replay", "entries"],
        railsim.railedge: ["Decision", "on_wan_arrival", "RailHeader",
                           "encode_packet", "decode_packet", "replicate",
                           "HEADER_SIZE", "padding_release", "DedupState"],
        railsim.engine: ["PathOutcomes"],
        railsim.errors: ["TraceRangeError"],
        railsim.quality: ["EModelParams", "G711", "tcp_fact1_check"],
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    trace = railsim.pathsim.load_trace("1,5")
    assert not hasattr(trace, "_by_seq")
    assert sorted(vars(trace)) == ["delay_ms", "seq"]  # no tuple list, no copies
    # a removed field is checked on an instance
    sim = railsim.simulate(railsim.Scenario(paths=[railsim.PathSpec("a")],
                                            traffic=railsim.TrafficSpec(count=2)))
    assert not hasattr(sim, "per_path_outcomes")
    assert len(railsim.__all__) == 41


# The immutable value records are NamedTuples: field order and defaults are
# part of the API, since a record compares equal to the plain tuple.
RECORD_FIELDS = {
    "metrics.BurstStats": (("lost_in_burst", "num_bursts", "avg_burst", "max_burst"),
                           {"lost_in_burst": 0, "num_bursts": 0, "avg_burst": 0.0,
                            "max_burst": 0}),
    "metrics.ReorderStats": (("out_of_order_count", "gaps"), {}),
    "quality.QualityScore": (("r_factor", "mos"), {}),
    "quality.MosPoint": (("deadline", "one_way", "effective_loss",
                          "representative_delay", "score"), {}),
    "quality.TcpPath": (("loss_rate", "rtt"), {}),
    "quality.TcpPrediction": (("expected_rtt", "throughput"), {}),
    "suite.Gate": (("name", "passed", "detail"), {"detail": ""}),
    "suite.LossSweepPoint": (("rate", "measured_single", "measured_rail", "count"), {}),
    "suite.BurstCell": (("rate", "correlation", "single", "rail"), {}),
    "suite.PaddingResult": (("label", "target", "std_without", "std_with",
                             "delivered_without", "delivered_with"), {}),
    "suite.MosRun": (("label", "deadlines", "mos_rail", "mos_paths"), {}),
    "engine.SimResult": (("scenario", "forwarded_order", "counters", "warnings",
                          "send_ns", "arrival_ns", "rail_delay_ns", "forward_ns",
                          "padding_ns"), {}),
}


def _record(qualname):
    module, name = qualname.split(".")
    return getattr(importlib.import_module(f"railsim.{module}"), name)


@pytest.mark.parametrize("qualname", sorted(RECORD_FIELDS))
def test_value_records_keep_field_order_and_defaults(qualname):
    cls = _record(qualname)
    names, defaults = RECORD_FIELDS[qualname]
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    assert cls._fields == names
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("qualname", sorted(RECORD_FIELDS))
def test_value_records_are_immutable(qualname):
    cls = _record(qualname)
    record = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    with pytest.raises(AttributeError):
        record.extra = -1  # no instance dict either


def test_burst_stats_defaults_and_repr():
    from railsim.metrics import BurstStats
    from railsim.suite import BurstCell, burst_grid_gate

    assert BurstStats() == BurstStats(0, 0, 0.0, 0)
    single = BurstStats(2, 1, 2.0, 2)
    rail = BurstStats(lost_in_burst=3, num_bursts=1, avg_burst=3.0, max_burst=3)
    assert repr(rail) == ("BurstStats(lost_in_burst=3, num_bursts=1, "
                          "avg_burst=3.0, max_burst=3)")
    # the burst-dominance gate's failure detail embeds both reprs
    gate = burst_grid_gate([BurstCell(0.1, 0.2, single, rail)])
    assert not gate.passed
    assert gate.detail == (
        "rate=0.1 corr=0.2: rail BurstStats(lost_in_burst=3, num_bursts=1, "
        "avg_burst=3.0, max_burst=3) vs single BurstStats(lost_in_burst=2, "
        "num_bursts=1, avg_burst=2.0, max_burst=2)")


def test_scenario_types_stay_dataclasses():
    # scenario_sha256 hashes asdict(scenario), which recurses into dataclasses
    # only; validation and sweeps read each field's declared type from
    # fields(), and set_parameter assigns
    from railsim.engine import PaddingConfig, Scenario, TrafficSpec
    from railsim.pathsim import DelayModel, LossModel, PathSpec, SharedSegmentSpec

    for cls in (Scenario, TrafficSpec, PathSpec, SharedSegmentSpec, DelayModel,
                LossModel, PaddingConfig):
        assert dataclasses.is_dataclass(cls), cls.__name__


def test_the_scenario_rules_live_in_engine():
    # pathsim keeps the path models and the sampler, which does not validate
    # again; railedge keeps only the receiver
    import railsim.engine
    import railsim.pathsim
    import railsim.railedge

    moved = {railsim.pathsim: ["validate_loss_model", "validate_delay_model",
                               "fits_clock", "CLOCK_LIMIT_NS"],
             railsim.railedge: ["PaddingConfig", "DEFAULT_DEDUP_WINDOW"]}
    for owner, names in moved.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
            assert hasattr(railsim.engine, name), name
    # the hand-listed type checks that engine.declared_types replaced, and
    # the per-object checks that the one type walk replaced
    for owner, name in ((railsim.pathsim, "is_number"), (railsim.pathsim, "not_numbers"),
                        (railsim.pathsim, "_check"), (railsim.engine, "_is_int"),
                        (railsim.engine, "_specs"), (railsim.engine, "_object_problems")):
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert not any(dataclasses.is_dataclass(v) for v in vars(railsim.railedge).values())
    assert railsim.PaddingConfig is railsim.engine.PaddingConfig
