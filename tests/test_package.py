"""The package's public names."""
import relviews


def test_every_public_name_resolves():
    missing = [name for name in relviews.__all__ if not hasattr(relviews, name)]
    assert missing == []
