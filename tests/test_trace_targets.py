"""The functions the benchmark's tracer wraps all exist, and its attribute
readers accept what they return.

`perfbench/spans.py` names the functions it wraps by module and attribute
and reads counts off their return values; a rename or a return-type change
in the package would otherwise only show up when `perfbench/run.py
--trace 1` fails.  The file is read and executed in a private namespace,
so nothing is imported from or written next to it.
"""

import importlib
from pathlib import Path

import numpy as np

from qameans.envelope import qa_concave_envelope, qa_convex_envelope
from qameans.generators import parse_generator
from qameans.grids import ScalarGrid, WorkingInterval
from qameans.means import MeanHandle, parse_mean

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    ns = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), ns)
    return ns


def test_every_traced_function_resolves():
    functions = _spans_namespace()["FUNCTIONS"]
    assert functions
    for modname, attr, _, _ in functions:
        module = importlib.import_module("qameans." + modname)
        assert callable(getattr(module, attr, None)), f"qameans.{modname}.{attr}"


def test_every_traced_method_resolves():
    """The tracer wraps MeanHandle.__call__, the batch of every MeanHandle
    subclass in qameans.means that defines its own, found by walking the
    module as spans.install does, and WorkingInterval.grid."""
    means = importlib.import_module("qameans.means")
    assert callable(vars(MeanHandle).get("__call__"))
    handles = [cls for cls in vars(means).values()
               if isinstance(cls, type) and issubclass(cls, MeanHandle)
               and "batch" in vars(cls)]
    assert handles
    for cls in handles:
        assert callable(vars(cls)["batch"]), cls.__name__
    assert callable(vars(WorkingInterval).get("grid"))


def _callers(tmp_path):
    """One call on grid-33 inputs per traced (module, function), given the
    function to call."""
    iv = WorkingInterval(0.1, 10.0, 33)
    gen, log = parse_generator("power:3", iv), parse_generator("log", iv)
    arith, logm = parse_mean("arith", iv), parse_mean("log", iv)
    table = tmp_path / "t.csv"
    xs = iv.grid()
    table.write_text("x,f\n" + "".join(f"{x!r},{x * x!r}\n" for x in xs.tolist()))
    profile = ScalarGrid(iv, xs / 2.0)
    env = qa_convex_envelope(gen)
    return {
        ("cli", "run"): lambda fn: fn(["classify", "--gen", "power:3", "--grid", "33"]),
        ("convexity", "classify"): lambda fn: fn(gen),
        ("convexity", "dominates_arithmetic"): lambda fn: fn(gen, 3, 20),
        ("means", "compare"): lambda fn: fn(gen, log),
        ("means", "qa_mean"): lambda fn: fn(gen, [1.0, 2.0]),
        ("generators", "parse_generator"): lambda fn: fn("exp", iv),
        ("generators", "load_table"): lambda fn: fn(str(table)),
        ("generators", "rho"): lambda fn: fn(gen),
        ("generators", "tabulate"): lambda fn: fn(gen),
        ("envelope", "qa_convex_envelope"): lambda fn: fn(gen),
        ("envelope", "qa_concave_envelope"): lambda fn: fn(log),
        ("envelope", "qa_concave_envelope_via_reflection"): lambda fn: fn(log),
        ("envelope", "concave_envelope_1d"): lambda fn: fn(profile),
        ("envelope", "convex_envelope_1d"): lambda fn: fn(profile),
        ("envelope", "reconstruct_generator"): lambda fn: fn(np.asarray(xs / 2.0), iv),
        ("verify", "ingham_jessen_check"): lambda fn: fn(arith, logm, 2, 2, 20),
        ("verify", "ingham_jessen_sweep"): lambda fn: fn(arith, logm, 20, max_dim=3),
        ("verify", "kedlaya_check"): lambda fn: fn(arith, logm, 3, 20),
        ("verify", "maximality_check"): lambda fn: fn(gen, env, 1, 20),
        ("verify", "duality_check"): lambda fn: fn(log, qa_concave_envelope(log), 20),
        ("verify", "symmetry_check"): lambda fn: fn(logm, 20),
    }


def test_every_span_reads_its_return_value(tmp_path, capsys):
    """Each traced function, called once through its wrapper, records its
    span and its attributes without raising."""
    ns = _spans_namespace()
    functions = ns["FUNCTIONS"]
    callers = _callers(tmp_path)
    assert set(callers) == {(m, a) for m, a, _, _ in functions}
    tracer = ns["Tracer"]()
    uninstall = ns["install"](tracer)
    try:
        for modname, attr, _, _ in functions:
            callers[(modname, attr)](getattr(importlib.import_module("qameans." + modname),
                                             attr))
    finally:
        uninstall()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, _, name, _ in functions}
    expected |= {"means.scalar", "means.batch", "grids.grid"}
    assert expected <= recorded, sorted(expected - recorded)
