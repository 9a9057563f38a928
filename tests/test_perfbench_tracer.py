"""The benchmark's tracer names functions by string; a rename or deletion in
the package would only surface as an AttributeError under ``--trace 1``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_traced_cache_tables_exist():
    # the tracer's cache_entries reads these by name
    from mstep import expressions

    assert type(expressions._RANGE_CACHE) is dict and type(expressions._CONV_CACHE) is dict


@pytest.mark.parametrize("span, argv", [
    ("pattern_search.search", ["search", "--m", "2"]),
    ("closed_form_solver.solve_conv_multi", ["solve", "--factors", "P,F,F9"]),
    ("identity_catalog.load_manifest", ["gfcheck", "--id", "conv_JF"]),
])
def test_tracer_sees_layers_the_command_loads_late(tmp_path, span, argv):
    # The tracer wraps layers that `import mstep` registered but has not run
    # yet: each wrapped function must still record its call.
    out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TRACER), str(out), *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    calls = Counter(doc["names"][index] for index, *_ in doc["spans"])
    assert calls[span] == 1
