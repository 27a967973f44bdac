"""Every name the traced benchmark run wraps must still exist.

``perfbench/spans.py`` looks each ``(owner, attr)`` of ``_TARGETS`` up
with ``owner.__dict__[attr]``; a refactor that deletes or moves one of
those names fails here instead of crashing the traced run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = _load_spans()._TARGETS
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if attr not in vars(owner)]
    assert not missing, f"traced names missing from their owners: {missing}"
