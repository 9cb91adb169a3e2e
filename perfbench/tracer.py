"""Spans and counts at hkflow's layer boundaries, taken from outside.

The tracer replaces public functions of hkflow, in every module that
imported them, with wrappers that record a span (name, start, end,
parent) and a few attributes of the call and its result.  Spans are kept
in memory; the per-layer metrics are derived from them afterwards.
Nothing inside hkflow is edited.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


def patch_everywhere(module, name: str, make_wrapper):
    """Replace ``module.name`` in every loaded hkflow module holding the same
    object; return a function that puts the originals back."""
    original = getattr(module, name)
    wrapper = make_wrapper(original)
    holders = [m for key, m in list(sys.modules.items())
               if (key == "hkflow" or key.startswith("hkflow."))
               and getattr(m, name, None) is original]
    for m in holders:
        setattr(m, name, wrapper)

    def undo():
        for m in holders:
            setattr(m, name, original)
    return undo


def _hk_attrs(fn, args, kw, res) -> dict:
    bound = inspect.signature(fn).bind(*args, **kw)
    bound.apply_defaults()
    a = bound.arguments
    scale = max(1.0, a["mu0"].mass + a["mu1"].mass)
    return {"warm": a["warm_start"] is not None,
            "iterations": int(res.iterations),
            "converged": bool(res.converged),
            "slack": bool(res.converged
                          and res.marginal_error > a["tol"] * scale),
            "max_iter": int(a["max_iter"])}


def _step_attrs(fn, args, kw, res) -> dict:
    return {"iterations": int(res.iterations)}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.own_s = 0.0  # time spent in the wrappers' own bookkeeping

    def _wrap(self, name, attrs=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kw):
                entered = time.perf_counter()
                span = {"id": len(self.spans), "name": name,
                        "parent": self._stack[-1] if self._stack else None}
                self.spans.append(span)
                self._stack.append(span["id"])
                span["start"] = time.perf_counter()
                try:
                    res = fn(*args, **kw)
                finally:
                    span["end"] = time.perf_counter()
                    self._stack.pop()
                if attrs is not None:
                    span.update(attrs(fn, args, kw, res))
                self.own_s += (span["start"] - entered
                               + time.perf_counter() - span["end"])
                return res
            return wrapper
        return make

    def install(self):
        """Wrap every traced entry point; return the undo function."""
        import hkflow.cli as cli
        import hkflow.evi as evi
        import hkflow.hk as hk
        import hkflow.mm as mm

        targets = [
            (hk, "hk_distance_squared", "hk.solve", _hk_attrs),
            (mm, "mm_step", "mm.step", _step_attrs),
            (mm, "shk_mm_step", "mm.step", _step_attrs),
            (mm, "mm_trajectory", "traj", None),
            (evi, "evi_check", "evi.check", None),
            (evi, "error_budget", "evi.budget", None),
            (evi, "convergence_study", "evi.study", None),
            (cli, "main", "cli.main", None),
            (cli, "write_csv", "cli.io", None),
            (cli, "write_json", "cli.io", None),
        ]
        undos = [patch_everywhere(mod, fname, self._wrap(span, attrs))
                 for mod, fname, span, attrs in targets]
        verbs = dict(cli.VERBS)
        for key, fn in verbs.items():
            cli.VERBS[key] = self._wrap("cli.verb")(fn)

        def undo():
            cli.VERBS.update(verbs)
            for u in reversed(undos):
                u()
        return undo


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round's spans

UNITS = {
    "hk.solves": "count", "hk.cold_solves": "count",
    "hk.warm_solves": "count", "hk.newton_iters": "count",
    "hk.iters_per_cold_solve": "ratio", "hk.iters_per_warm_solve": "ratio",
    "hk.solve_s": "s", "hk.ms_per_iter": "ms",
    "hk.slack_converged": "count", "hk.warm_fallbacks": "count",
    "hk.unconverged": "count",
    "mm.steps": "count", "mm.lbfgs_iters": "count",
    "mm.solves_per_step": "ratio", "mm.step_s": "s", "mm.self_s": "s",
    "traj.built": "count", "traj.s": "s",
    "evi.check_s": "s", "evi.budget_s": "s", "evi.study_self_s": "s",
    "evi.solves": "count", "evi.newton_iters": "count",
    "cli.verb_s": "s", "cli.io_s": "s", "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def is_timing(name: str) -> bool:
    return UNITS[name] in ("s", "ms", "%")


_VERIFICATION = ("evi.check", "evi.budget", "evi.study")


def layer_metrics(spans: list) -> dict:
    """Counts, ratios and busy times of each layer for one traced round."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s["name"]

    def under(s, *names):
        return not set(ancestors(s)).isdisjoint(names)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def self_time(s, excluded):
        return dur(s) - sum(dur(c) for c in children.get(s["id"], ())
                            if c["name"] in excluded)

    solves = named("hk.solve")
    cold = [s for s in solves if not s["warm"]]
    warm = [s for s in solves if s["warm"]]
    steps = named("mm.step")
    step_solves = [s for s in solves if under(s, "mm.step")]
    verif = [s for s in solves
             if under(s, *_VERIFICATION) and not under(s, "traj")]
    newton = sum(s["iterations"] for s in solves)
    solve_s = sum(dur(s) for s in solves)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "hk.solves": len(solves),
        "hk.cold_solves": len(cold),
        "hk.warm_solves": len(warm),
        "hk.newton_iters": newton,
        "hk.iters_per_cold_solve": ratio(sum(s["iterations"] for s in cold),
                                         len(cold)),
        "hk.iters_per_warm_solve": ratio(sum(s["iterations"] for s in warm),
                                         len(warm)),
        "hk.solve_s": solve_s,
        "hk.ms_per_iter": ratio(1e3 * solve_s, newton),
        "hk.slack_converged": sum(s["slack"] for s in solves),
        "hk.warm_fallbacks": sum(s["iterations"] > s["max_iter"]
                                 for s in warm),
        "hk.unconverged": sum(not s["converged"] for s in solves),
        "mm.steps": len(steps),
        "mm.lbfgs_iters": sum(s["iterations"] for s in steps),
        "mm.solves_per_step": ratio(len(step_solves), len(steps)),
        "mm.step_s": sum(dur(s) for s in steps),
        "mm.self_s": sum(self_time(s, ("hk.solve",)) for s in steps),
        "traj.built": len(named("traj")),
        "traj.s": sum(dur(s) for s in named("traj")),
        "evi.check_s": sum(dur(s) for s in named("evi.check")),
        "evi.budget_s": sum(dur(s) for s in named("evi.budget")),
        "evi.study_self_s": sum(self_time(s, ("traj",))
                                for s in named("evi.study")),
        "evi.solves": len(verif),
        "evi.newton_iters": sum(s["iterations"] for s in verif),
        "cli.verb_s": sum(dur(s) for s in named("cli.verb")),
        "cli.io_s": sum(dur(s) for s in named("cli.io")),
        "cli.self_s": sum(self_time(s, ("traj", "hk.solve") + _VERIFICATION)
                          for s in named("cli.verb")),
    }


def combine_rounds(per_round: list) -> dict:
    """Counts and ratios from the first traced round (they repeat exactly
    round to round), times as the median over the traced rounds."""
    return {key: statistics.median(r[key] for r in per_round)
            if is_timing(key) else value
            for key, value in per_round[0].items()}
