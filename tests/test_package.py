"""The package's public surface: `entpow.__all__` against what `entpow` binds."""

import types

import entpow


def test_all_names_every_public_binding_once():
    public = {name for name, value in vars(entpow).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(entpow.__all__) == len(set(entpow.__all__))
    assert set(entpow.__all__) == public
