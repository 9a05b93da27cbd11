"""The benchmark tracer's targets exist in the package and come back intact.

``perfbench/tracer.py`` wraps public callables of fedlab by name for a
traced benchmark pass.  A rename in the package would break that pass; this
test makes it fail here instead, and checks that uninstalling the tracer
puts back every original object.
"""
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_and_restores_every_target():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    assert patches and not tracer._patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
        assert vars(owner)[attr] is original, attr
