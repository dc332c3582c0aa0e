"""The package root exports exactly the names its __all__ lists."""

import types

import umhs


def test_all_lists_each_name_once_and_every_name_resolves():
    assert len(umhs.__all__) == len(set(umhs.__all__))
    assert [name for name in umhs.__all__ if not hasattr(umhs, name)] == []


def test_no_public_name_outside_all():
    public = {
        name for name, value in vars(umhs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(umhs.__all__)) == []
