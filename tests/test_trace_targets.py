"""The functions the benchmark's tracer wraps all exist.

`perfbench/spans.py` names the functions it wraps by module and attribute;
a rename in the package would otherwise only show up when
`perfbench/run.py --trace 1` fails.  The file is read and executed in a
private namespace, so nothing is imported from or written next to it.
"""

import importlib
from pathlib import Path

from qameans.grids import WorkingInterval
from qameans.means import MeanHandle

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
    means = importlib.import_module("qameans.means")
    assert callable(vars(MeanHandle).get("__call__"))
    for name in ("ArithmeticMean", "PowerMeanHandle", "QuasiArithmeticMean",
                 "ReflectedMean"):
        cls = getattr(means, name)
        assert issubclass(cls, MeanHandle) and callable(vars(cls).get("batch")), name
    assert callable(vars(WorkingInterval).get("grid"))
