"""The benchmark's tracer names functions by string; a rename or deletion in
the package would only surface as an AttributeError under ``--trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod_name, names in tracer.LAYERS.items():
        mod = importlib.import_module(f"mstep.{mod_name}")
        for name in names:
            owner_name, _, method = name.partition(".")
            owner = getattr(mod, owner_name)
            if method or isinstance(owner, type):
                # methods are wrapped through the class's own namespace
                assert (method or "__init__") in vars(owner), f"{mod_name}.{name}"
            else:
                assert callable(owner), f"{mod_name}.{name}"
