"""Shape of the public API: solver settings are fixed where they are used,
so no public callable forwards keyword arguments it does not name."""

import inspect

import hkflow
from hkflow.hk import hk_distance_squared


def test_no_keyword_catch_all():
    forwarding = [name for name in hkflow.__all__
                  if callable(getattr(hkflow, name))
                  and any(p.kind is inspect.Parameter.VAR_KEYWORD
                          for p in inspect.signature(
                              getattr(hkflow, name)).parameters.values())]
    assert forwarding == []


def test_distance_solve_keeps_its_named_settings():
    # the benchmark tracer binds these by name to label each solve
    params = inspect.signature(hk_distance_squared).parameters
    for name in ("max_iter", "tol", "warm_start"):
        assert params[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
