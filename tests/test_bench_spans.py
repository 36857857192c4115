"""Every function the benchmark's tracer wraps is still where it looks.

`bench/tracer.py` names each span's function as (span name, owner,
attribute).  A lower-case owner is the whiledt module of that name, any
other owner the whiledt class of that name.  A refactor that moves or
renames one of them breaks the traced benchmark, so this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import whiledt

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("name, owner, attr", tracer_spans(), ids=str)
def test_traced_function_resolves_to_a_callable(name, owner, attr):
    if owner.islower():
        holder = importlib.import_module(f"whiledt.{owner}")
    else:
        holder = getattr(whiledt, owner)
        assert isinstance(holder, type)
    assert callable(getattr(holder, attr, None))
