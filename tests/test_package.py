"""The package namespace: what ``from railsim import *`` exports."""

import types

import railsim


def test_all_names_public_objects_not_submodules():
    assert len(set(railsim.__all__)) == len(railsim.__all__)
    for name in railsim.__all__:
        assert not isinstance(getattr(railsim, name), types.ModuleType), name


def test_removed_per_packet_api_is_gone():
    import railsim.errors
    import railsim.pathsim
    import railsim.railedge

    gone = {
        railsim.pathsim: ["Outcome", "LOST", "PathState", "SharedSegmentState",
                          "sample_outcome", "trace_outcome"],
        railsim.pathsim.Trace: ["outcome"],
        railsim.railedge: ["Decision", "on_wan_arrival"],
        railsim.railedge.DedupState: ["seen", "highest_forwarded"],
        railsim.errors: ["TraceRangeError"],
    }
    for owner, names in gone.items():
        for name in names:
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    state = railsim.railedge.DedupState(4)
    state.observe(1)
    assert not hasattr(state, "highest_forwarded")
    assert not hasattr(railsim.pathsim.load_trace("1,5"), "_by_seq")
