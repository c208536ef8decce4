import types

import rabinowitz


def test_all_lists_resolvable_non_module_names():
    assert len(set(rabinowitz.__all__)) == len(rabinowitz.__all__)
    for name in rabinowitz.__all__:
        assert not isinstance(getattr(rabinowitz, name), types.ModuleType), name
