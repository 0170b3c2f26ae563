"""The package's public names: every exported name resolves."""

import qameans


def test_every_exported_name_resolves():
    assert len(set(qameans.__all__)) == len(qameans.__all__)
    missing = [name for name in qameans.__all__ if not hasattr(qameans, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qameans import *", namespace)
    assert set(qameans.__all__) <= set(namespace)


def test_removed_inversion_path_is_not_exported():
    for name in ("invert_f", "eval_f", "eval_f1"):
        assert not hasattr(qameans, name)
        assert name not in qameans.__all__
