"""Every exported name of the package resolves."""

import pytest

import liepoisson
from liepoisson import transform


@pytest.mark.parametrize("module", [liepoisson, transform], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if getattr(module, name, None) is None]
    assert missing == []
