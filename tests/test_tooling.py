"""The benchmark tracer's targets still name functions of the package.

``perfbench/tracing.py`` wraps each ``TARGETS`` entry by name.  A class
method that is gone is skipped, but a module-level function that is gone
makes ``Tracer.install`` raise, so every traced run would fail.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = _load_tracing().TARGETS
    assert targets
    for span, mod_name, attr, _ in targets:
        module = importlib.import_module(f"maxplus_ifs.{mod_name}")
        owner = attr.split(".")[0]  # the class of a "Class.method" entry
        assert callable(getattr(module, owner, None)), span
