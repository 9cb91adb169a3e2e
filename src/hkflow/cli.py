"""Command-line experiment runner.

Verbs cover the library surface: distance evaluation, minimizing-movement
runs, EVI residual checks, MM-vs-PDE comparisons, metric-geometry probes,
interpolation-estimate sweeps, and step-size convergence studies.  Every
run writes a manifest (config hash, package versions, wall time) next to
its outputs; identical config and seed reproduce identical files.

Exit codes: 0 success, 1 an asserted inequality failed beyond tolerance,
2 malformed configuration, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import (REQUIRED, ConfigError, integer, listed, nested, number,
                     one_of, positive, raw, read_fields, read_tagged)
from .entropy import entropy_from_json
from .evi import convergence_study, error_budget, evi_check, step_counts
from .geometry import (check_angle_sum, check_cauchy_schwarz_transfer,
                       check_transfer_estimates, cone_over_segment,
                       euclidean_box, transfer_ratio_minimum,
                       two_dirac_space)
from .hk import (METRICS, NEWTON_SLACK, NEWTON_TOL, has_unit_mass,
                 hk_distance_squared, hk_two_diracs, is_spherical,
                 shk_from_hk_squared)
from .measures import DiscreteMeasure, GridDomain
from .mm import mm_trajectory
from .pde import hk_flow_pde, shk_flow_pde

log = logging.getLogger("hkflow")

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# gaps below the marginal mass error a converged solve may leave are noise
GAP_FLOOR = NEWTON_SLACK * NEWTON_TOL


def _setup_logging() -> None:
    # HKFLOW_LOG=debug adds one line per distance solve and per dual step
    level = {"error": logging.ERROR, "debug": logging.DEBUG}.get(
        os.environ.get("HKFLOW_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_csv(path: Path, header: list, rows: list) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# fields of each measure kind; a list of node densities is a measure too
MEASURE_KINDS = {
    "uniform": {"value": (number, REQUIRED)},
    "sinusoid": {"base": (number, 1.0), "amplitude": (number, 0.1),
                 "frequency": (number, 1.0)},
    "diracs": {"nodes": (listed(integer(0)), REQUIRED),
               "masses": (listed(number), REQUIRED)},
}
# fields of every flow verb, to which each adds its own
FLOW_FIELDS = {"domain": (raw, REQUIRED), "initial": (raw, REQUIRED),
               "entropy": (raw, REQUIRED), "metric": (one_of(METRICS), "hk")}


def _density(cfg, domain: GridDomain, path: str) -> np.ndarray:
    if isinstance(cfg, list):
        return np.asarray(listed(number)(cfg, path))
    kind, v = read_tagged(cfg, path, "kind", MEASURE_KINDS)
    if kind == "uniform":
        return np.full(domain.n_nodes, v["value"])
    if kind == "sinusoid":
        return v["base"] + v["amplitude"] * np.sin(
            2.0 * math.pi * v["frequency"] * domain.coordinates[:, 0])
    nodes, masses = v["nodes"], v["masses"]
    if len(masses) != len(nodes):
        raise ConfigError(f"{path}.masses: expected {len(nodes)} masses, "
                          f"one per node, got {len(masses)}")
    rho = np.zeros(domain.n_nodes)
    w = domain.weights
    for i, (node, mass) in enumerate(zip(nodes, masses)):
        if node >= domain.n_nodes:
            raise ConfigError(f"{path}.nodes[{i}]: node {node} outside the "
                              f"{domain.n_nodes} grid nodes")
        rho[node] += mass / w[node]
    return rho


def measure_from_config(cfg, domain: GridDomain, path: str) -> DiscreteMeasure:
    """The measure of the config field at path: a list of node densities or
    an object of a kind in MEASURE_KINDS."""
    rho = _density(cfg, domain, path)
    try:
        return DiscreteMeasure(domain, rho)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _shrinking(gaps: list) -> int:
    """EXIT_OK unless a gap exceeds both the one before it by over 1e-9
    relative and GAP_FLOOR."""
    grew = any(g1 > max(g0 * (1.0 + 1e-9), GAP_FLOOR)
               for g0, g1 in zip(gaps, gaps[1:]))
    return EXIT_ASSERTION if grew else EXIT_OK


def flow_from_config(cfg: dict, fields: dict):
    """Initial measure, entropy and metric of a flow verb, and the values
    of its fields, FLOW_FIELDS and the verb's own fields; a spherical flow
    starts from the unit-mass rescaling."""
    v = read_fields(cfg, "", {**FLOW_FIELDS, **fields})
    dom = GridDomain.from_dict(v["domain"])
    mu0 = measure_from_config(v["initial"], dom, "initial")
    E = entropy_from_json(v["entropy"])
    if is_spherical(v["metric"]):
        mu0 = DiscreteMeasure(dom, mu0.density / mu0.mass)
    return mu0, E, v["metric"], v


# ---------------------------------------------------------------------------
# verbs


def run_distance(cfg: dict, out: Path, seed: int) -> int:
    v = read_fields(cfg, "", {
        "domain": (raw, REQUIRED), "measure0": (raw, REQUIRED),
        "measure1": (raw, REQUIRED), "metric": (one_of(METRICS), "hk"),
        "check_two_dirac": (nested({"mass0": (number, REQUIRED),
                                    "mass1": (number, REQUIRED),
                                    "distance": (number, REQUIRED)}), None)})
    dom = GridDomain.from_dict(v["domain"])
    mu0 = measure_from_config(v["measure0"], dom, "measure0")
    mu1 = measure_from_config(v["measure1"], dom, "measure1")
    spherical = is_spherical(v["metric"])
    if spherical and not (has_unit_mass(mu0) and has_unit_mass(mu1)):
        raise ConfigError("spherical distance requires unit total mass")
    res = hk_distance_squared(mu0, mu1)
    result = {"hk_squared": res.hk_squared, "hk": res.hk,
              "iterations": res.iterations, "converged": res.converged}
    if spherical:
        result["shk"] = shk_from_hk_squared(res.hk_squared)
    status = EXIT_OK
    if v["check_two_dirac"] is not None:
        closed = hk_two_diracs(*v["check_two_dirac"].values())
        result["closed_form"] = closed
        gap = abs(res.hk_squared - closed)
        result["closed_form_gap"] = gap
        if gap > 1e-5 * (1.0 + closed):
            status = EXIT_ASSERTION
    write_json(out / "distance.json", result)
    return status if res.converged else EXIT_SOLVER


def run_mm(cfg: dict, out: Path, seed: int) -> int:
    mu0, E, metric, v = flow_from_config(cfg, {
        "tau": (positive, REQUIRED), "n_steps": (integer(1), REQUIRED)})
    traj = mm_trajectory(mu0, v["tau"], v["n_steps"], E, metric=metric)
    energies = traj.energy()
    rows = []
    for k, m in enumerate(traj.measures):
        rows.append([k, k * traj.tau, m.mass, float(np.min(m.density)),
                     float(np.max(m.density)), energies[k],
                     traj.distances_squared[k - 1] if k else 0.0])
    write_csv(out / "mm_run.csv",
              ["step", "time", "mass", "min_density", "max_density",
               "energy", "step_distance_squared"], rows)
    if any(e1 > e0 + 1e-9 for e0, e1 in zip(energies, energies[1:])):
        return EXIT_ASSERTION
    return EXIT_OK


def run_evi(cfg: dict, out: Path, seed: int) -> int:
    mu0, E, metric, v = flow_from_config(cfg, {
        "tau": (positive, REQUIRED), "n_steps": (integer(1), REQUIRED),
        "lambda": (number, REQUIRED), "kappa": (number, 0.0)})
    tau, lam, kappa = v["tau"], v["lambda"], v["kappa"]
    traj = mm_trajectory(mu0, tau, v["n_steps"], E, metric=metric)
    # the budget rejects 1 + lambda tau <= 0 before any file is written
    bud = error_budget(traj, kappa, lam)
    rep = evi_check(traj, lam)
    rows = []
    for k, (Rs, Rl) in enumerate(zip(rep.residuals_lambda_star,
                                     rep.residuals_lambda)):
        n = Rs.shape[0]
        for i in range(n):
            for j in range(i, n):
                rows.append([rep.times[i], rep.times[j], k,
                             Rs[i, j], Rl[i, j]])
    write_csv(out / "evi_residuals.csv",
              ["s", "t", "observer_id", "residual_lambda_star",
               "residual_lambda"], rows)
    write_json(out / "evi_summary.json", {
        "worst_residual_lambda_star": rep.worst_residual,
        "worst_residual_lambda": rep.worst_residual_lambda,
        "budget_l1": bud.weighted_l1,
        "budget_bound": bud.l1_bound,
        "budget_bound_holds": bud.bound_holds,
        "slope_surrogate": bud.slope_surrogate,
    })
    tol = math.sqrt(tau) * 4.0
    if rep.worst_residual > tol or not bud.bound_holds:
        return EXIT_ASSERTION
    return EXIT_OK


def run_pde_compare(cfg: dict, out: Path, seed: int) -> int:
    mu0, E, metric, v = flow_from_config(cfg, {
        "t_final": (positive, REQUIRED),
        "tau_list": (listed(positive, 1), REQUIRED)})
    T, taus = v["t_final"], v["tau_list"]
    pde_solver = shk_flow_pde if is_spherical(metric) else hk_flow_pde
    w = mu0.domain.weights
    # the final time is shared by every tau, so one reference density there
    # compares like with like across the sweep
    ref = pde_solver(mu0, E, T, n_checkpoints=2).densities[-1]
    rows = []
    for tau, n in zip(taus, step_counts(T, taus)):
        traj = mm_trajectory(mu0, tau, n, E, metric=metric)
        rows.append([tau, float(w @ np.abs(traj.measures[-1].density - ref))])
    write_csv(out / "pde_compare.csv", ["tau", "l1_gap"], rows)
    return _shrinking([r[1] for r in rows])


# each space of geometry-probe, with its sampler of a point from an rng
PROBE_SPACES = {
    "euclidean": (euclidean_box(),
                  lambda rng: tuple(rng.uniform(0.0, 1.0, 2))),
    "cone": (cone_over_segment(2.0),
             lambda rng: (float(rng.uniform(0.05, 1.95)),
                          float(rng.uniform(0.2, 2.0)))),
    "point_masses": (two_dirac_space(),
                     lambda rng: (float(rng.uniform(0.0, 1.2)),
                                  float(rng.uniform(0.2, 3.0)))),
}


def run_geometry(cfg: dict, out: Path, seed: int) -> int:
    v = read_fields(cfg, "", {"space": (one_of(PROBE_SPACES), "cone"),
                              "n_probes": (integer(1), 100)})
    name, n = v["space"], v["n_probes"]
    space, sample = PROBE_SPACES[name]
    rng = np.random.default_rng(seed)
    worst_cs = math.inf
    worst_sum = -math.inf
    for _ in range(n):
        x, o, y, z = sample(rng), sample(rng), sample(rng), sample(rng)
        cs = check_cauchy_schwarz_transfer(space, x, o, y, z)
        worst_cs = min(worst_cs, cs["lhs"] - cs["rhs"])
        worst_sum = max(worst_sum, check_angle_sum(space, x, y, z)["sum"])
    report = {"space": name, "n_probes": n,
              "worst_cs_residual": worst_cs,
              "worst_angle_sum": worst_sum}
    write_json(out / "geometry_probe.json", report)
    if worst_cs < -1e-6 or worst_sum > 2.0 * math.pi + 1e-6:
        return EXIT_ASSERTION
    return EXIT_OK


def run_appendix(cfg: dict, out: Path, seed: int) -> int:
    v = read_fields(cfg, "", {"p": (number, 0.5), "grid": (integer(1), 200)})
    p, n = v["p"], v["grid"]
    est = check_transfer_estimates(p, n_t=n, n_delta=n)
    report = {"p": p, "estimates_hold": est["ok"],
              "worst_margin": est["worst_margin"],
              "witness_t": est["witness"][0],
              "witness_delta": est["witness"][1]}
    if not est["ok"]:
        qmin = transfer_ratio_minimum(p)
        report["ratio_min"] = qmin["min"]
        report["ratio_witness_t"] = qmin["witness"][0]
        report["ratio_witness_delta"] = qmin["witness"][1]
    write_json(out / "appendix_check.json", report)
    return EXIT_OK if est["ok"] else EXIT_ASSERTION


def run_convergence(cfg: dict, out: Path, seed: int) -> int:
    mu0, E, metric, v = flow_from_config(cfg, {
        "tau_list": (listed(positive, 2), REQUIRED),
        "t_final": (positive, REQUIRED), "lambda": (number, 0.0)})
    taus, T, lam = v["tau_list"], v["t_final"], v["lambda"]
    rows = []
    for row in convergence_study(mu0, E, metric, taus, T):
        rep = evi_check(row["trajectory"], lam)
        rows.append([row["tau"], row["sup_gap"], rep.worst_residual])
    write_csv(out / "convergence_study.csv",
              ["tau", "sup_gap", "evi_worst_residual"], rows)
    return _shrinking([r[1] for r in rows])


VERBS = {
    "distance": run_distance,
    "mm-run": run_mm,
    "evi-check": run_evi,
    "pde-compare": run_pde_compare,
    "geometry-probe": run_geometry,
    "appendix-check": run_appendix,
    "convergence-study": run_convergence,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hkflow",
        description="Transport-growth distances and gradient-flow "
                    "verification experiments")
    ap.add_argument("verb", choices=sorted(VERBS))
    ap.add_argument("--config", required=True, help="JSON config path")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    try:
        text = Path(args.config).read_text()
        cfg = json.loads(text)
        if not isinstance(cfg, dict) or not cfg:
            raise ConfigError("config must be a non-empty JSON object")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        log.error("bad config: %s", exc)
        return EXIT_CONFIG
    try:
        status = VERBS[args.verb](cfg, out, args.seed)
    except ValueError as exc:  # a ConfigError, or a value a solver rejects
        log.error("bad config: %s", exc)
        return EXIT_CONFIG
    except (RuntimeError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        log.error("solver failure: %s", exc)
        return EXIT_SOLVER
    manifest = {
        "verb": args.verb,
        "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": args.seed,
        "versions": {"hkflow": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_seconds": round(time.time() - t0, 3),
        "exit_status": status,
    }
    write_json(out / "manifest.json", manifest)
    return status


if __name__ == "__main__":
    sys.exit(main())
