import uniplan


def test_all_names_resolve():
    missing = [name for name in uniplan.__all__ if not hasattr(uniplan, name)]
    assert not missing
