"""The names the bench tracer wraps at run time still exist in the library.

bench/tracer.py replaces library functions by (module, attribute), reads
the default of eigen_spectrum's tol and forwards its compute_vectors and
warm_start keywords by name; a rename or a dropped import would otherwise
break traced bench runs without any failing test.  The tracer source is
executed from its file, so no bytecode is written under bench/.
"""

import importlib
import inspect
import types
from pathlib import Path

from ep_atlas import secular

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    assert tracer.TARGETS
    for modname, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)


def test_eigen_spectrum_keeps_a_tol_default():
    tol = inspect.signature(secular.eigen_spectrum).parameters["tol"]
    assert isinstance(tol.default, float)


def test_eigen_spectrum_keeps_the_keywords_the_tracer_forwards():
    params = inspect.signature(secular.eigen_spectrum).parameters
    for name in ("compute_vectors", "warm_start"):
        assert params[name].kind in (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD), name
