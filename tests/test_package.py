import vemaxwell


def test_every_export_resolves():
    missing = [name for name in vemaxwell.__all__ if not hasattr(vemaxwell, name)]
    assert missing == []
