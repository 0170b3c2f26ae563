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


def test_no_generator_states_a_direction(tmp_path):
    """f and -f generate one mean with one profile, so no kind states which
    way f runs and nothing negates a generator before reading it; a table
    reads its direction from its values."""
    generators = importlib.import_module("qameans.generators")
    for name in ("normalize", "negate_generator"):
        assert not hasattr(qameans, name) and not hasattr(generators, name), name
        assert name not in qameans.__all__
    iv = qameans.WorkingInterval(0.1, 10.0)
    cube = iv.grid() ** 3
    path = tmp_path / "falling.csv"
    path.write_text("x,f\n" + "".join(f"{x!r},{-v!r}\n"
                                      for x, v in zip(iv.grid().tolist(), cube.tolist())))
    for gen in (qameans.PowerGenerator(-1.0, iv), qameans.LogGenerator(iv),
                qameans.ExpGenerator(iv), qameans.AffineGenerator(-2.0, 3.0, iv),
                qameans.ReflectedGenerator(qameans.ExpGenerator(iv)),
                qameans.TabulatedGenerator(iv, cube), qameans.TabulatedGenerator(iv, -cube),
                qameans.load_table(str(path))):
        assert not hasattr(gen, "increasing"), gen


def test_removed_affine_transform_is_gone():
    """a*f + b generates f's mean with f's profile, so no kind wraps f in it."""
    generators = importlib.import_module("qameans.generators")
    for name in ("AffineOfGenerator", "_affine_coefficients"):
        assert not hasattr(qameans, name) and not hasattr(generators, name), name
        assert name not in qameans.__all__


def test_removed_midpoint_jensen_check_is_gone():
    """Jensen's inequality for a mean is ingham_jessen_check with A as one of
    its two means, so the midpoint check and its absolute slack are gone."""
    convexity = importlib.import_module("qameans.convexity")
    for name in ("jensen_midpoint_check", "JENSEN_TOL"):
        assert not hasattr(qameans, name) and not hasattr(convexity, name), name
        assert name not in qameans.__all__


def test_profile_verdicts_live_in_one_function():
    """rho() only samples the profile and refuses a zero or NaN value;
    convexity._profile_tests decides degeneracy and the sign, so the
    exception rho() once raised for an affine generator and the floor it
    read are gone from generators."""
    errors = importlib.import_module("qameans.errors")
    generators = importlib.import_module("qameans.generators")
    convexity = importlib.import_module("qameans.convexity")
    assert not hasattr(qameans, "DegenerateSecondDerivative")
    assert not hasattr(errors, "DegenerateSecondDerivative")
    assert "DegenerateSecondDerivative" not in qameans.__all__
    assert not hasattr(generators, "DEGENERATE_TAU")
    assert convexity.DEGENERATE_TAU == 1e-8


def test_the_mean_kernel_is_bound_only_in_means():
    """envelope's pair witnesses and convexity's sampled test take the QA
    mean through QuasiArithmeticMean.batch, so the kernel's running and
    lengths arguments are known in one module."""
    for modname in ("qameans.envelope", "qameans.convexity"):
        assert not hasattr(importlib.import_module(modname), "_qa_mean_batch"), modname
    assert "_qa_mean_batch" not in qameans.__all__
