"""The package's public names: every exported name resolves."""

import importlib

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


def test_removed_second_routes_are_gone():
    """The power mean's handle is QuasiArithmeticMean(PowerGenerator(p)),
    reflection runs on generators, and the interval tests are the domain
    checks of the means layer."""
    means = importlib.import_module("qameans.means")
    for name in ("PowerMeanHandle", "ReflectedMean", "reflect"):
        assert not hasattr(qameans, name) and not hasattr(means, name), name
        assert name not in qameans.__all__
    assert not hasattr(qameans.WorkingInterval, "contains")


def test_no_generator_states_a_direction():
    """f and -f generate one mean with one profile, so no kind states which
    way f runs and nothing negates a generator before reading it."""
    generators = importlib.import_module("qameans.generators")
    for name in ("normalize", "negate_generator"):
        assert not hasattr(qameans, name) and not hasattr(generators, name), name
        assert name not in qameans.__all__
    iv = qameans.WorkingInterval(0.1, 10.0)
    for gen in (qameans.PowerGenerator(-1.0, iv), qameans.LogGenerator(iv),
                qameans.ExpGenerator(iv), qameans.AffineGenerator(-2.0, 3.0, iv),
                qameans.ReflectedGenerator(qameans.ExpGenerator(iv))):
        assert not hasattr(gen, "increasing"), gen


def test_removed_affine_transform_is_gone():
    """a*f + b generates f's mean with f's profile, so no kind wraps f in it."""
    generators = importlib.import_module("qameans.generators")
    for name in ("AffineOfGenerator", "_affine_coefficients"):
        assert not hasattr(qameans, name) and not hasattr(generators, name), name
        assert name not in qameans.__all__
