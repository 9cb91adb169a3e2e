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
from .entropy import entropy_from_json, eval_functional
from .evi import convergence_study, error_budget, evi_check
from .geometry import (check_angle_sum, check_cauchy_schwarz_transfer,
                       check_transfer_estimates, cone_over_segment,
                       euclidean_box, transfer_ratio_minimum,
                       two_dirac_space)
from .hk import (has_unit_mass, hk_distance_squared, hk_two_diracs,
                 is_spherical, shk_from_hk_squared)
from .measures import DiscreteMeasure, GridDomain
from .mm import mm_trajectory
from .pde import hk_flow_pde, shk_flow_pde

log = logging.getLogger("hkflow")

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
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


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config field {key!r}")
    return cfg[key]


def _check_fields(cfg: dict, allowed: set) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")


def domain_from_config(cfg: dict) -> GridDomain:
    _check_fields(cfg, {"lower", "upper", "nodes"})
    return GridDomain(tuple(_require(cfg, "lower")),
                      tuple(_require(cfg, "upper")),
                      tuple(_require(cfg, "nodes")))


def measure_from_config(cfg: dict, domain: GridDomain) -> DiscreteMeasure:
    if isinstance(cfg, list):
        return DiscreteMeasure(domain, np.asarray(cfg, dtype=float))
    kind = _require(cfg, "kind")
    x = domain.coordinates
    if kind == "uniform":
        return DiscreteMeasure(domain,
                               np.full(domain.n_nodes, float(cfg["value"])))
    if kind == "sinusoid":
        rho = (float(cfg.get("base", 1.0))
               + float(cfg.get("amplitude", 0.1))
               * np.sin(2.0 * math.pi * float(cfg.get("frequency", 1.0))
                        * x[:, 0]))
        return DiscreteMeasure(domain, rho)
    if kind == "diracs":
        rho = np.zeros(domain.n_nodes)
        w = domain.weights
        for node, mass in zip(cfg["nodes"], cfg["masses"]):
            rho[int(node)] += float(mass) / w[int(node)]
        return DiscreteMeasure(domain, rho)
    raise ConfigError(f"unknown measure kind {kind!r}")


def flow_from_config(cfg: dict, fields: set):
    """Initial measure, entropy and metric of a flow verb whose own fields
    are fields; a spherical flow starts from the unit-mass rescaling."""
    _check_fields(cfg, {"domain", "initial", "entropy", "metric"} | fields)
    dom = domain_from_config(_require(cfg, "domain"))
    mu0 = measure_from_config(_require(cfg, "initial"), dom)
    E = entropy_from_json(_require(cfg, "entropy"))
    metric = cfg.get("metric", "hk")
    if is_spherical(metric):
        mu0 = DiscreteMeasure(dom, mu0.density / mu0.mass)
    return mu0, E, metric


# ---------------------------------------------------------------------------
# verbs


def run_distance(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    _check_fields(cfg, {"domain", "measure0", "measure1", "metric",
                        "check_two_dirac"})
    dom = domain_from_config(_require(cfg, "domain"))
    mu0 = measure_from_config(_require(cfg, "measure0"), dom)
    mu1 = measure_from_config(_require(cfg, "measure1"), dom)
    spherical = is_spherical(cfg.get("metric", "hk"))
    if spherical and not (has_unit_mass(mu0) and has_unit_mass(mu1)):
        raise ConfigError("spherical distance requires unit total mass")
    res = hk_distance_squared(mu0, mu1)
    result = {"hk_squared": res.hk_squared, "hk": res.hk,
              "iterations": res.iterations, "converged": res.converged}
    if spherical:
        result["shk"] = shk_from_hk_squared(res.hk_squared)
    status = EXIT_OK
    if cfg.get("check_two_dirac"):
        spec = cfg["check_two_dirac"]
        closed = hk_two_diracs(float(spec["mass0"]), float(spec["mass1"]),
                               float(spec["distance"]))
        result["closed_form"] = closed
        gap = abs(res.hk_squared - closed)
        result["closed_form_gap"] = gap
        if gap > 1e-5 * tol_scale * (1.0 + closed):
            status = EXIT_ASSERTION
    write_json(out / "distance.json", result)
    return status if res.converged else EXIT_SOLVER


def run_mm(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    mu0, E, metric = flow_from_config(cfg, {"tau", "n_steps"})
    traj = mm_trajectory(mu0, float(_require(cfg, "tau")),
                         int(_require(cfg, "n_steps")), E, metric=metric)
    rows = []
    for k, m in enumerate(traj.measures):
        rows.append([k, k * traj.tau, m.mass, float(np.min(m.density)),
                     float(np.max(m.density)), eval_functional(E, m),
                     traj.distances_squared[k - 1] if k else 0.0])
    write_csv(out / "mm_run.csv",
              ["step", "time", "mass", "min_density", "max_density",
               "energy", "step_distance_squared"], rows)
    energies = [r[5] for r in rows]
    if any(e1 > e0 + 1e-9 * tol_scale for e0, e1 in zip(energies,
                                                        energies[1:])):
        return EXIT_ASSERTION
    return EXIT_OK


def run_evi(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    mu0, E, metric = flow_from_config(cfg, {"tau", "n_steps", "lambda",
                                            "kappa"})
    lam = float(_require(cfg, "lambda"))
    kappa = float(cfg.get("kappa", 0.0))
    tau = float(_require(cfg, "tau"))
    traj = mm_trajectory(mu0, tau, int(_require(cfg, "n_steps")), E,
                         metric=metric)
    rep = evi_check(traj, E, lam, metric=metric)
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
    bud = error_budget(traj, kappa, lam, metric=metric)
    write_json(out / "evi_summary.json", {
        "worst_residual_lambda_star": rep.worst_residual,
        "worst_residual_lambda": rep.worst_residual_lambda,
        "budget_l1": bud.weighted_l1,
        "budget_bound": bud.l1_bound,
        "budget_bound_holds": bud.bound_holds,
        "slope_surrogate": bud.slope_surrogate,
    })
    tol = math.sqrt(tau) * 4.0 * tol_scale
    if rep.worst_residual > tol or not bud.bound_holds:
        return EXIT_ASSERTION
    return EXIT_OK


def run_pde_compare(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    mu0, E, metric = flow_from_config(cfg, {"t_final", "tau_list"})
    T = float(_require(cfg, "t_final"))
    taus = [float(t) for t in _require(cfg, "tau_list")]
    pde_solver = shk_flow_pde if is_spherical(metric) else hk_flow_pde
    w = mu0.domain.weights
    rows = []
    gaps = []
    for tau in taus:
        n = int(round(T / tau))
        traj = mm_trajectory(mu0, tau, n, E, metric=metric)
        ref = pde_solver(mu0, E, T, n_checkpoints=n + 1)
        # the final time is shared by every tau, so the gap there compares
        # like with like across the sweep
        gap = float(w @ np.abs(traj.measures[-1].density
                               - ref.densities[-1]))
        rows.append([tau, gap])
        gaps.append(gap)
    write_csv(out / "pde_compare.csv", ["tau", "l1_gap"], rows)
    if any(g1 > g0 * (1.0 + 1e-9) for g0, g1 in zip(gaps, gaps[1:])):
        return EXIT_ASSERTION
    return EXIT_OK


def run_geometry(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    _check_fields(cfg, {"space", "n_probes"})
    name = cfg.get("space", "cone")
    n = int(cfg.get("n_probes", 100))
    rng = np.random.default_rng(seed)
    if name == "euclidean":
        space = euclidean_box()
        sample = lambda: tuple(rng.uniform(0.0, 1.0, 2))
    elif name == "cone":
        space = cone_over_segment(2.0)
        sample = lambda: (float(rng.uniform(0.05, 1.95)),
                          float(rng.uniform(0.2, 2.0)))
    elif name == "point_masses":
        space = two_dirac_space()
        sample = lambda: (float(rng.uniform(0.0, 1.2)),
                          float(rng.uniform(0.2, 3.0)))
    else:
        raise ConfigError(f"unknown probe space {name!r}")
    worst_cs = math.inf
    worst_sum = -math.inf
    for _ in range(n):
        x, o, y, z = sample(), sample(), sample(), sample()
        cs = check_cauchy_schwarz_transfer(space, x, o, y, z)
        worst_cs = min(worst_cs, cs["lhs"] - cs["rhs"])
        worst_sum = max(worst_sum, check_angle_sum(space, x, y, z)["sum"])
    report = {"space": name, "n_probes": n,
              "worst_cs_residual": worst_cs,
              "worst_angle_sum": worst_sum}
    write_json(out / "geometry_probe.json", report)
    tol = 1e-6 * tol_scale
    if worst_cs < -tol or worst_sum > 2.0 * math.pi + tol:
        return EXIT_ASSERTION
    return EXIT_OK


def run_appendix(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    _check_fields(cfg, {"p", "grid"})
    p = float(cfg.get("p", 0.5))
    n = int(cfg.get("grid", 200))
    est = check_transfer_estimates(p, n_t=n, n_delta=n)
    report = {"p": p, "estimates_hold": bool(est["ok"]),
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


def run_convergence(cfg: dict, out: Path, seed: int, tol_scale: float) -> int:
    mu0, E, metric = flow_from_config(cfg, {"tau_list", "t_final",
                                            "lambda"})
    taus = [float(t) for t in _require(cfg, "tau_list")]
    T = float(_require(cfg, "t_final"))
    lam = float(cfg.get("lambda", 0.0))
    rows = []
    gaps = []
    for row in convergence_study(mu0, E, metric, taus, T):
        rep = evi_check(row["trajectory"], E, lam, metric=metric)
        rows.append([row["tau"], row["sup_gap"], rep.worst_residual])
        gaps.append(row["sup_gap"])
    write_csv(out / "convergence_study.csv",
              ["tau", "sup_gap", "evi_worst_residual"], rows)
    if any(g1 > g0 * (1.0 + 1e-9) for g0, g1 in zip(gaps, gaps[1:])):
        return EXIT_ASSERTION
    return EXIT_OK


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
    ap.add_argument("--tol-scale", type=float, default=1.0)
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
        status = VERBS[args.verb](cfg, out, args.seed, args.tol_scale)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
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
        "tol_scale": args.tol_scale,
        "versions": {"hkflow": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_seconds": round(time.time() - t0, 3),
        "exit_status": status,
    }
    write_json(out / "manifest.json", manifest)
    return status


if __name__ == "__main__":
    sys.exit(main())
