"""The package namespace: what ``from railsim import *`` exports."""

import types

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
    # dataclass fields are not on the class
    sim = railsim.simulate(railsim.Scenario(paths=[railsim.PathSpec("a")],
                                            traffic=railsim.TrafficSpec(count=2)))
    assert not hasattr(sim, "per_path_outcomes")
    assert len(railsim.__all__) == 41
