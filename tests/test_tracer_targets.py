"""The benchmark's tracer wraps program functions by the names their callers
bind. A refactor that moves or renames one leaves that layer unmeasured, so
every target it names must still resolve."""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    missing = [f"{owner}.{attr}" for owner, attr, _ in tracer.TARGETS
               if not callable(getattr(tracer.resolve(owner), attr, None))]
    assert missing == []
