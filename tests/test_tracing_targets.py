"""The benchmark tracer wraps functions by name and reads some of their
arguments by name, so renaming or moving one breaks the traced benchmark
run.  These tests read ``perfbench/tracing.py`` without importing it and
fail first."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, function) -> the parameters the tracer's hooks read by name
HOOKED_PARAMETERS = {
    ("decohere.numcore.ode", "ode_solve"): ("rhs", "t_grid"),
    ("decohere.numcore.linalg", "matrix_exp"): ("m",),
    ("decohere.gksl", "to_superoperator"): ("gen",),
}


def _targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACING}")


def _resolve(module, attr):
    """The function the tracer wraps: a module's, or one defined on a class."""
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return vars(owner)[name]


@pytest.mark.parametrize("module, attr, span", _targets())
def test_every_traced_target_resolves(module, attr, span):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("target, parameters", HOOKED_PARAMETERS.items(),
                         ids=[attr for _, attr in HOOKED_PARAMETERS])
def test_hooked_parameters_keep_their_names(target, parameters):
    assert target in {(module, attr) for module, attr, _ in _targets()}
    assert set(parameters) <= set(inspect.signature(_resolve(*target)).parameters)
