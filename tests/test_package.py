import dataclasses

import pytest

import coneres


def test_every_exported_name_resolves():
    assert len(coneres.__all__) == len(set(coneres.__all__))
    missing = [name for name in coneres.__all__ if not hasattr(coneres, name)]
    assert missing == []
    namespace = {}
    exec("from coneres import *", namespace)
    assert set(coneres.__all__) <= set(namespace)


@pytest.mark.parametrize("module, name", [
    ("coneres", "TransferMatrix"), ("coneres", "assemble"),
    ("coneres", "char_value"), ("coneres.monodromy", "TransferMatrix"),
    ("coneres.monodromy", "assemble"), ("coneres.monodromy", "char_value"),
])
def test_removed_names_are_gone(module, name):
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})
    assert name not in coneres.__all__


def test_removed_arguments_fail_loudly(two_cone):
    # the dimension knob is gone: setting it must raise, never rescale
    with pytest.raises(TypeError):
        dataclasses.replace(two_cone, dimension=3)
    with pytest.raises(TypeError):
        coneres.LadderModel(n=2, L0=1.0, c_prod=1.0)
