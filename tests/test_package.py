from __future__ import annotations

import chainrank


def test_every_exported_name_resolves():
    missing = [name for name in chainrank.__all__ if not hasattr(chainrank, name)]
    assert not missing, missing
    assert len(set(chainrank.__all__)) == len(chainrank.__all__)
