"""Run one benchmark workload in this (fresh) process.

Started by ``run.py`` with hkflow's ``src`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread counts pinned to one.  Everything before the first call
into hkflow is set-up: interpreter start, ``import hkflow`` (numpy, scipy)
and building the inputs.  With ``--setup-only`` the process stops there.

Otherwise it runs ``workloads.rounds(workload, seconds)`` whole rounds of
the workload, a number fixed by ``--seconds`` alone (with ``--trace 1`` at
least two: one untraced, then traced ones).  A round runs from the first
call into hkflow to the last output written and checked.  The result goes
to ``<out>/result.json``, the spans of traced rounds to
``<out>/spans.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import hkflow
import hkflow.cli as cli
import hkflow.hk as hk
import hkflow.mm as mm
from hkflow.measures import DiscreteMeasure, GridDomain

import tracer
import workloads as wl


def build_inputs(workload: str, out: Path):
    if workload == "distance-2d":
        dom = GridDomain((0.0, 0.0), (1.0, 1.0), (wl.GRID_2D, wl.GRID_2D))
        return [(kind, DiscreteMeasure(dom, a), DiscreteMeasure(dom, b), info)
                for kind, a, b, info in wl.distance_pairs()]
    cfg = wl.evi_config() if workload == "hk-evi-1d" \
        else wl.convergence_config()
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def distance_round(pairs) -> tuple:
    w = wl.trapezoid_weights(wl.GRID_2D, 2)
    failed, errors = 0, []
    for kind, mu0, mu1, info in pairs:
        res = hk.hk_distance_squared(mu0, mu1)
        if kind == "dirac":
            errs = wl.check_two_dirac(res.hk_squared, info["mass0"],
                                      info["mass1"], info["distance"])
        else:
            errs = wl.check_hk_bounds(res.hk_squared, mu0.density * w,
                                      mu1.density * w)
        failed += bool(errs) or not res.converged
        errors += errs
    return len(pairs), failed, errors


def cli_round(workload: str, config: Path, out: Path, seed: int,
              captured: list, unconverged: list) -> tuple:
    """One verb invocation.  It fails on a nonzero exit, on a failed check
    (which also makes the run incorrect) or if any distance solve made
    inside it comes back unconverged."""
    captured.clear()
    solves_before = len(unconverged)
    verb = "evi-check" if workload == "hk-evi-1d" else "convergence-study"
    status = cli.main([verb, "--config", str(config), "--out", str(out),
                       "--seed", str(seed)])
    if status != 0:
        return 1, 1, []
    w = wl.trapezoid_weights(wl.GRID_1D, 1)
    errors = []
    for traj in captured:
        dens = [m.density for m in traj.measures]
        errors += wl.check_descent(dens, traj.distances_squared, traj.tau, w)
        if workload == "shk-convergence-1d":
            errors += wl.check_unit_mass(dens, w)
    if workload == "hk-evi-1d":
        summary = json.loads((out / "evi_summary.json").read_text())
        rows = wl.read_csv(out / "evi_residuals.csv")
        errors += wl.check_evi(summary, rows, wl.EVI_TAU,
                               captured[0].distances_squared[0])
    else:
        errors += wl.check_convergence(
            wl.read_csv(out / "convergence_study.csv"))
        if len(captured) < len(wl.SHK_TAUS):
            errors.append(f"only {len(captured)} trajectories built")
    return 1, int(bool(errors) or len(unconverged) > solves_before), errors


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    inputs = build_inputs(args.workload, args.out)
    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return

    # keep every trajectory the CLI builds, for the descent and mass checks,
    # and every distance solve that comes back unconverged
    captured, unconverged = [], []

    def capture(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            traj = fn(*a, **kw)
            captured.append(traj)
            return traj
        return wrapper

    def watch(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            res = fn(*a, **kw)
            if not res.converged:
                unconverged.append(res)
            return res
        return wrapper

    tracer.patch_everywhere(mm, "mm_trajectory", capture)
    tracer.patch_everywhere(hk, "hk_distance_squared", watch)
    round_out = args.out / "round"

    def run_round():
        if args.workload == "distance-2d":
            return distance_round(inputs)
        return cli_round(args.workload, inputs, round_out, args.seed,
                         captured, unconverged)

    n_rounds = wl.rounds(args.workload, args.seconds)
    if args.trace:
        n_rounds = max(n_rounds, 2)
    plain, traced, layers, spans, own = [], [], [], [], []
    attempted = failed = 0
    errors = []
    for i in range(n_rounds):
        trace_this = bool(args.trace) and i > 0
        tr = tracer.Tracer()
        undo = tr.install() if trace_this else None
        t0 = time.perf_counter()
        try:
            n, f, errs = run_round()
        finally:
            t1 = time.perf_counter()
            if undo is not None:
                undo()
        attempted += n
        failed += f
        errors += errs
        if trace_this:
            traced.append(t1 - t0)
            own.append(tr.own_s)
            layers.append(tracer.layer_metrics(tr.spans))
            spans.append([dict(s, start=s["start"] - t0, end=s["end"] - t0)
                          for s in tr.spans])
        else:
            plain.append(t1 - t0)

    result = {
        "first_call": first_call,
        "round_s": plain,
        "traced_round_s": traced,
        "attempted": attempted,
        "failed": failed,
        "unconverged_solves": len(unconverged),
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"hkflow": hkflow.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if layers:
        counts = [{k: v for k, v in r.items() if not tracer.is_timing(k)}
                  for r in layers]
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["layers"] = tracer.combine_rounds(layers)
        result["layers"]["trace.overhead_pct"] = (
            100.0 * statistics.median(own) / max(plain))
        (args.out / "spans.json").write_text(json.dumps(spans))
    (args.out / "result.json").write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
