"""Shape of the public API: solver settings are fixed where they are used,
so no public callable forwards keyword arguments it does not name."""

import importlib
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


# leaf settings that no caller varied, now constants of their functions
REMOVED = {"tol", "kkt_tol", "max_newton", "slack", "dt", "cfl_safety",
           "search_hi", "n_restarts", "seed", "rho_grid", "gamma_grid",
           "n_samples"}
REMOVED_FROM = {"find_c_low": {"n"}, "spherical_reaction_ode": {"n_checkpoints"}}
# settings callers do set: the benchmark tracer binds the distance solve's,
# and tests loosen the density-bound check's slack
KEPT = {("hk_distance_squared", "tol"), ("hk_distance_squared", "max_iter"),
        ("check_density_bounds", "slack")}


def _library_callables():
    """Public functions and classes of the library modules, with the
    public methods of each class."""
    for mod in ("config", "entropy", "evi", "geometry", "hk", "mdelta",
                "measures", "mm", "pde"):
        module = importlib.import_module(f"hkflow.{mod}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            yield name, obj
            for meth in vars(obj) if inspect.isclass(obj) else ():
                if not meth.startswith("_") and callable(getattr(obj, meth)):
                    yield f"{name}.{meth}", getattr(obj, meth)


def test_removed_settings_stay_removed():
    back = [(name, p) for name, fn in _library_callables()
            for p in inspect.signature(fn).parameters
            if (p in REMOVED or p in REMOVED_FROM.get(name, ()))
            and (name, p) not in KEPT]
    assert back == []
