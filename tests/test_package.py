import fatpoints


def test_all_names_resolve():
    missing = [name for name in fatpoints.__all__ if not hasattr(fatpoints, name)]
    assert missing == []
    namespace = {}
    exec("from fatpoints import *", namespace)
    assert set(fatpoints.__all__) <= set(namespace)
