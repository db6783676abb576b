"""The benchmark tracer (`perfbench/tracer.py`) patches affinelie functions
and methods by name.  Every name it lists must still resolve, or a traced
benchmark run would first fail with a crash."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = load_tracer()
    targets = tracer.SPANS + tracer.COUNTERS
    missing = []
    for name, module, path in targets:
        home = importlib.import_module(f"affinelie.{module}")
        if "." in path:
            # a method is replaced in its class's own namespace
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append(f"{name}: affinelie.{module}.{path}")
    assert len(targets) > 40
    assert missing == []
