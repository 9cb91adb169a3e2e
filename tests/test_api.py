"""Shape of the public API: solver settings are fixed where they are used,
so no public callable forwards keyword arguments it does not name."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import hkflow
from hkflow.cli import VERBS
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
REMOVED_FROM = {"find_c_low": {"n"}, "spherical_reaction_ode": {"n_checkpoints"},
                # a trajectory carries its metric and energy; the checks
                # read them from it
                "evi_check": {"E", "metric"}, "error_budget": {"metric"},
                "contraction_check": {"metric"},
                "check_density_bounds": {"E", "metric"},
                "MMTrajectory.energy": {"E"}, "MMTrajectory": {"objectives"},
                # fields and settings that nothing read
                "EntropySpec": {"family", "params", "convexity_modulus"},
                "table_entropy": {"convexity_modulus"},
                # every implicit step is the dual step or a closed form; the
                # cap and the slope the L-BFGS-B step read are gone
                "mm_step": {"density_cap", "x0"},
                "mm_trajectory": {"density_cap"},
                # the last eps is a constant, DEFAULT_EPS_SCHEDULE[-1]
                "HKResult": {"target_slope", "eps_final"},
                # the dual step's cold seed is mu0's node masses
                "shk_mm_step": {"x0"},
                # parameters that their functions never read
                "euclidean_box": {"dim"}, "cone_distance": {"x0", "x1"},
                "scalar_step_monotonicity": {"tau"},
                "plan_density_violation": {"mu0"},
                "scalar_shk_mm_step": {"E"}, "GridDomain.from_dict": {"path"},
                # a budget variant that no caller read, and inputs that the
                # reports only echoed
                "ErrorBudget": {"deltas_zero_gap", "tau", "lam", "kappa"},
                "EVIReport": {"observers", "tau", "lam"},
                "ContractionReport": {"times"},
                # a probe space's name, which nothing read
                "ProbeSpace": {"name"}}
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


def package_trees():
    """The parsed source of each module of the package, by file name."""
    return {path.name: ast.parse(path.read_text())
            for path in sorted(Path(hkflow.__file__).parent.glob("*.py"))}


def test_no_unused_imports():
    # each library module uses every name it imports; the package's own
    # imports are its exports
    unused = []
    for name, tree in package_trees().items():
        if name == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{name}: {n}" for n in imported - used]
    assert sorted(unused) == []


def test_no_unused_private_helpers():
    # every private function or class defined in the package is referenced
    # in it, by name or as an attribute: a refactor leaves no dead helper
    nodes = [node for tree in package_trees().values()
             for node in ast.walk(tree)]
    private = {node.name for node in nodes
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.endswith("__")}
    used = {getattr(node, "id", getattr(node, "attr", None))
            for node in nodes if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(private - used) == []


def test_import_leaves_heavy_scipy_packages_out():
    # a fresh process, as this one has SciPy's optimize loaded already;
    # building a table energy loads none of them either
    src = str(Path(hkflow.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import json, sys\n"
        "import hkflow, hkflow.cli\n"
        "heavy = ('scipy.interpolate', 'scipy.special', 'scipy.optimize',\n"
        "         'scipy.sparse', 'scipy.sparse.linalg')\n"
        "E = hkflow.table_entropy([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 2.0, 6.0],"
        " recession_slope=float('inf'))\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps([loaded, float(E(2.0))]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded, value = json.loads(out)
    assert loaded == []
    assert value == 2.0


# exports that nothing called: the step restart check, a second measure
# format beside the CLI's configs and outputs, and two one-line helpers
REMOVED_EXPORTS = {"restart_agreement", "total_mass", "restrict",
                   # readers that config.one_of replaced
                   "metric_name", "text"}
REMOVED_METHODS = {"DiscreteMeasure": {"to_dict", "from_dict", "to_json",
                                       "from_json", "write_csv"},
                   "GridDomain": {"to_dict"}}


def test_removed_exports_stay_removed():
    modules = [hkflow] + [importlib.import_module(f"hkflow.{path[:-3]}")
                          for path in package_trees() if path != "__init__.py"]
    back = [f"{module.__name__}.{name}" for module in modules
            for name in sorted(REMOVED_EXPORTS) if hasattr(module, name)]
    back += [f"{cls}.{meth}" for cls, meths in REMOVED_METHODS.items()
             for meth in sorted(meths) if hasattr(getattr(hkflow, cls), meth)]
    assert back == []


# parameters that a shared signature imposes: every CLI verb is called with
# (cfg, out, seed), and every config reader with (value, path)
UNREAD_ALLOWED = ({(f"cli.{verb.__name__}", "seed") for verb in VERBS.values()}
                  | {("config.raw", "path")})


def test_every_parameter_is_read():
    # each parameter of a public function or public method (or __init__) of
    # the package is read in its body
    unread = []
    for path, tree in package_trees().items():
        defs = [("", node) for node in tree.body]
        defs += [(f"{node.name}.", item) for node in tree.body
                 if isinstance(node, ast.ClassDef)
                 and not node.name.startswith("_") for item in node.body]
        for prefix, fn in defs:
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name.startswith("_") and fn.name != "__init__"):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg]
                      if a is not None and a.arg not in ("self", "cls")]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            name = f"{path[:-3]}.{prefix}{fn.name}"
            unread += [(name, p) for p in params
                       if p not in read and (name, p) not in UNREAD_ALLOWED]
    assert sorted(unread) == []
