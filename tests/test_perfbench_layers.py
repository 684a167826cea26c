"""Every name the benchmark's span tracer patches exists where it looks.

perfbench/spans.py wraps each function of its LAYERS table: a plain name as
a module attribute, a "Class.method" name in the class __dict__.  A rename
or a refactor that moves a method would otherwise break only the traced
benchmark run.  The table is read from the file; nothing there changes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return [(modname, name) for modname, names in mod.LAYERS.values()
            for name in names]


@pytest.mark.parametrize("modname,name", _layers(), ids=lambda v: v)
def test_layer_name_resolves(modname, name):
    mod = importlib.import_module(modname)
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(getattr(mod, cls_name).__dict__.get(meth)), name
    else:
        assert callable(getattr(mod, name, None)), name
