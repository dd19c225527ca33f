import srlb


def test_every_export_resolves():
    assert [name for name in srlb.__all__ if not hasattr(srlb, name)] == []
