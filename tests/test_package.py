"""The package namespace: what ``from railsim import *`` exports."""

import types

import railsim


def test_all_names_public_objects_not_submodules():
    assert len(set(railsim.__all__)) == len(railsim.__all__)
    for name in railsim.__all__:
        assert not isinstance(getattr(railsim, name), types.ModuleType), name
