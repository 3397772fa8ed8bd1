import types

import ruinpaths


def test_all_lists_exactly_the_public_names():
    for name in ruinpaths.__all__:
        assert hasattr(ruinpaths, name), name
    public = {
        name
        for name, value in vars(ruinpaths).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(ruinpaths.__all__)
