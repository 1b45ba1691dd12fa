"""The benchmark's tracer wraps planner functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "planbench" / "tracer.py"


def test_every_traced_name_resolves_in_ehatp():
    spec = importlib.util.spec_from_file_location("planbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for span, module, path, _ in tracer.TARGETS:
        obj = importlib.import_module(f"ehatp.{module}")
        for part in path.split("."):
            assert hasattr(obj, part), f"{span}: ehatp.{module}.{path} does not exist"
            obj = getattr(obj, part)
