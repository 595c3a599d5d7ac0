"""The package's public names."""

import eigenflow


def test_every_public_name_resolves():
    missing = [name for name in eigenflow.__all__ if not hasattr(eigenflow, name)]
    assert missing == []
