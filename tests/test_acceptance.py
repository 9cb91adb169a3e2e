"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and emits a single pass/fail line.  Criteria are exercised exactly as
stated: random instances use fixed seeds, and timing claims are measured
with wall clocks inside the test.
"""

import json
import math
import time

import numpy as np
import pytest

from hkflow.entropy import neg_power_entropy, power_mass_entropy
from hkflow.evi import contraction_check, error_budget, evi_check
from hkflow.geometry import (check_angle_sum, check_cauchy_schwarz_transfer,
                             cone_over_segment, direction_gap_squared,
                             euclidean_box, interpolation_weight, lower_angle,
                             radius_ratio, transfer_ratio_minimum,
                             upper_angle, upper_inner_product)
from hkflow.hk import (hk_distance, hk_distance_squared, hk_exact_small,
                       hk_two_diracs, mass_gap_lower_bound,
                       scaling_identity_gap, shk_distance)
from hkflow.measures import (DiscreteMeasure, GridDomain, uniform_measure,
                             unit_interval)
from hkflow.mm import (MMTrajectory, check_density_bounds,
                       iterate_lower_bound, iterate_upper_bound, mm_step,
                       mm_trajectory, scalar_lower_bound, scalar_mm_step,
                       scalar_shk_mm_step, scalar_step_monotonicity,
                       scalar_upper_bound)
from hkflow.pde import (hk_flow_pde, scalar_quadratic_closed_form,
                        scalar_reaction_ode, shk_flow_pde)

from conftest import dirac_measure, sinusoid_measure

EX12 = power_mass_entropy(1.0, 2.0, -1.0)   # E(c) = c^2 - c
EX13 = neg_power_entropy(0.5, 1.0)          # E(c) = -sqrt(c)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[criterion {num:02d}] {name}: {verdict}{suffix}"
    print(line)
    assert ok, line


def _normalized(mu):
    return DiscreteMeasure(mu.domain, mu.density / mu.mass)


def test_criterion_01_distance_oracle_agreement():
    dom = GridDomain((0.0,), (1.0,), (21,))
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        k0 = int(rng.integers(1, 5))
        k1 = int(rng.integers(1, 5))
        n0 = rng.choice(21, size=k0, replace=False)
        n1 = rng.choice(21, size=k1, replace=False)
        mu0 = dirac_measure(dom, n0, rng.uniform(0.1, 2.0, k0))
        mu1 = dirac_measure(dom, n1, rng.uniform(0.1, 2.0, k1))
        fast = hk_distance_squared(mu0, mu1).hk_squared
        exact = hk_exact_small(mu0, mu1).hk_squared
        gap = abs(fast - exact) / (1.0 + exact)
        worst = max(worst, gap)
    elapsed = time.time() - t0
    _report(1, "distance oracle agreement", worst <= 1e-4 and elapsed < 60.0,
            f"worst rel gap {worst:.2e}, {elapsed:.1f}s for 50 pairs")


def test_criterion_02_closed_forms():
    dom = GridDomain((0.0,), (2.0,), (41,))
    h = 0.05
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        i, j = rng.choice(41, size=2, replace=False)
        a, b = rng.uniform(0.1, 2.5, size=2)
        solved = hk_distance_squared(dirac_measure(dom, [i], [a]),
                                     dirac_measure(dom, [j], [b])).hk_squared
        closed = hk_two_diracs(a, b, abs(int(i) - int(j)) * h)
        worst = max(worst, abs(solved - closed))
    dom1 = unit_interval(17)
    mu = sinusoid_measure(dom1, base=0.7, amplitude=0.2)
    zero_gap = abs(hk_distance_squared(uniform_measure(dom1, 0.0),
                                       mu).hk_squared - mu.mass)
    self_d2 = hk_distance_squared(mu, mu).hk_squared
    ok = worst <= 1e-5 and zero_gap <= 1e-8 and self_d2 <= 1e-8
    _report(2, "closed forms", ok,
            f"two-dirac {worst:.2e}, vs-zero {zero_gap:.2e}, "
            f"self {self_d2:.2e}")


def test_criterion_03_scaling_identity():
    rng = np.random.default_rng(11)
    dom = unit_interval(13)
    worst = 0.0
    for _ in range(25):
        mu0 = DiscreteMeasure(dom, rng.uniform(0.1, 1.5, 13))
        mu1 = DiscreteMeasure(dom, rng.uniform(0.1, 1.5, 13))
        t0, t1 = rng.uniform(0.3, 2.0, size=2)
        rep = scaling_identity_gap(mu0, mu1, float(t0), float(t1))
        worst = max(worst, abs(rep["gap"]) / (1.0 + abs(rep["rhs"])))
    _report(3, "scaling identity", worst <= 1e-6,
            f"worst rel residual {worst:.2e} over 25 draws")


def test_criterion_04_metric_axioms():
    dom = unit_interval(7)
    rng = np.random.default_rng(23)
    ok = True
    detail = ""
    for case in range(100):
        raw = [DiscreteMeasure(dom, rng.uniform(0.05, 1.5, 7))
               for _ in range(3)]
        d = [hk_distance(raw[0], raw[1]), hk_distance(raw[1], raw[2]),
             hk_distance(raw[0], raw[2])]
        if d[2] > d[0] + d[1] + 1e-6:
            ok, detail = False, f"HK triangle fails at case {case}"
            break
        if d[2] ** 2 < mass_gap_lower_bound(raw[0], raw[2]) - 1e-8:
            ok, detail = False, f"mass bound fails at case {case}"
            break
        prob = [_normalized(m) for m in raw]
        s = [shk_distance(prob[0], prob[1]), shk_distance(prob[1], prob[2]),
             shk_distance(prob[0], prob[2])]
        if s[2] > s[0] + s[1] + 1e-6:
            ok, detail = False, f"SHK triangle fails at case {case}"
            break
    _report(4, "metric axioms", ok, detail or "100 random triples")


def test_criterion_05_shk_maximum_principle():
    dom = unit_interval(33)
    mu0 = _normalized(sinusoid_measure(dom, base=1.0, amplitude=0.35))
    traj = mm_trajectory(mu0, 0.02, 20, EX13, metric="shk")
    rep = check_density_bounds(traj, slack=1e-6)
    worst = min(min(r["upper"] - r["max"], r["min"] - r["lower"])
                for r in rep["steps"])
    _report(5, "spherical maximum principle", rep["ok"],
            f"20 steps, worst nesting slack {worst:.2e}")


def test_criterion_06_hk_density_bounds():
    dom = unit_interval(33)
    mu0 = sinusoid_measure(dom, base=0.5, amplitude=0.1)  # range [0.4, 0.6]
    tau = 0.02
    traj = mm_trajectory(mu0, tau, 30, EX12, metric="hk")
    assert EX12.c_low == pytest.approx(0.25)
    floor = iterate_lower_bound(float(np.min(mu0.density)), EX12.c_low)
    per_step = check_density_bounds(traj, slack=1e-6)
    rho_max0 = float(np.max(mu0.density))
    ok = per_step["ok"]
    for k, m in enumerate(traj.measures):
        if float(np.min(m.density)) < floor - 1e-6:
            ok = False
        if float(np.max(m.density)) > iterate_upper_bound(
                rho_max0, k, tau, EX12) + 1e-6:
            ok = False
    _report(6, "transport-growth density bounds", ok,
            "30 steps, per-step and iterated envelopes")


def test_criterion_07_scalar_consistency():
    dom = GridDomain((0.0,), (1.0,), (32,))
    tau = 0.05
    c = 0.8
    mu = uniform_measure(dom, c)
    traj = mm_trajectory(mu, tau, 10, EX12, metric="hk")
    worst = 0.0
    for k in range(1, 11):
        c = scalar_mm_step(c, tau, EX12)
        drift = float(np.max(np.abs(traj.measures[k].density - c))) / c
        worst = max(worst, drift)
    prob = uniform_measure(dom, 1.0)
    straj = mm_trajectory(prob, tau, 10, EX12, metric="shk")
    sworst = max(float(np.max(np.abs(m.density
                                     - scalar_shk_mm_step(1.0, tau))))
                 for m in straj.measures)
    ok = worst <= 1e-4 and sworst <= 1e-4
    _report(7, "scalar consistency", ok,
            f"HK drift {worst:.2e}, SHK drift {sworst:.2e} over 10 steps")


def test_criterion_08_scalar_step_bound_suite():
    rng = np.random.default_rng(5)
    ok = True
    detail = "200 randomized (c0, tau, entropy) cases"
    for case in range(200):
        c0 = float(rng.uniform(0.05, 5.0))
        tau = float(rng.uniform(1e-3, 0.2))
        alpha = float(rng.uniform(0.5, 2.0))
        m = float(rng.uniform(1.5, 3.0))
        gamma = float(rng.uniform(-2.0, 2.0))
        E = power_mass_entropy(alpha, m, gamma)
        c1 = scalar_mm_step(c0, tau, E)
        mono = scalar_step_monotonicity(c0, c1, E)
        if not (mono["decreases_iff_derivative_nonneg"]
                and mono["increases_iff_derivative_nonpos"]):
            ok, detail = False, f"monotonicity fails at case {case}"
            break
        if c1 < scalar_lower_bound(c0, tau, E, c0) - 1e-9 \
                or c1 > scalar_upper_bound(c0, tau, E, c0) + 1e-9:
            ok, detail = False, f"envelope fails at case {case}"
            break
    _report(8, "scalar step bound suite", ok, detail)


def test_criterion_09_mm_converges_to_pde():
    dom = GridDomain((0.0,), (1.0,), (64,))
    w = dom.weights
    taus = [0.02, 0.01, 0.005, 0.0025]
    T = 0.1
    details = []
    ok = True
    for metric in ("hk", "shk"):
        # gentle spatial variation keeps the per-step transport activation
        # threshold of the fixed-grid scheme out of play at every tau, so
        # the time-discretization error dominates the comparison
        if metric == "shk":
            mu0 = _normalized(sinusoid_measure(dom, base=1.0,
                                               amplitude=0.02))
            solver = shk_flow_pde
        else:
            mu0 = sinusoid_measure(dom, base=0.8, amplitude=0.01)
            solver = hk_flow_pde
        t0 = time.time()
        gaps = []
        for tau in taus:
            n = int(round(T / tau))
            traj = mm_trajectory(mu0, tau, n, EX12, metric=metric)
            ref = solver(mu0, EX12, T, n_checkpoints=n + 1)
            gaps.append(float(w @ np.abs(traj.measures[-1].density
                                         - ref.densities[-1])))
        elapsed = time.time() - t0
        monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
        ok = ok and monotone and elapsed < 300.0
        details.append(f"{metric}: gaps {['%.1e' % g for g in gaps]} "
                       f"in {elapsed:.0f}s")
    _report(9, "scheme converges to the reference equation", ok,
            "; ".join(details))


def test_criterion_10_evi_residuals():
    dom = unit_interval(33)
    mu0 = sinusoid_measure(dom, base=0.8, amplitude=0.5)
    taus = [0.04, 0.02, 0.01, 0.005]
    worsts = []
    ok = True
    for tau in taus:
        n = int(round(0.08 / tau))
        traj = mm_trajectory(mu0, tau, n, EX12, metric="hk")
        rep = evi_check(traj, lam=-2.0)
        if rep.worst_residual > 4.0 * math.sqrt(tau):
            ok = False
        worsts.append(abs(rep.worst_residual))
    ratios = [a / b for a, b in zip(worsts, worsts[1:])]
    if any(r < 1.2 for r in ratios):
        ok = False
    minimizer = uniform_measure(dom, 0.5)
    stat = MMTrajectory(0.02, [minimizer] * 5, [0.0] * 4, "hk", EX12)
    stat_res = evi_check(stat, lam=-2.0,
                         observers=[minimizer]).worst_residual
    ok = ok and abs(stat_res) <= 1e-8
    _report(10, "variational inequality residuals", ok,
            f"halving ratios {['%.1f' % r for r in ratios]}, "
            f"stationary {stat_res:.1e}")


def test_criterion_11_budgeted_contraction():
    dom = unit_interval(33)
    mu_a = _normalized(sinusoid_measure(dom, base=1.0, amplitude=0.3))
    mu_b = _normalized(sinusoid_measure(dom, base=1.0, amplitude=0.25))
    tau, n = 0.02, 5
    traj_a = mm_trajectory(mu_a, tau, n, EX12, metric="shk")
    traj_b = mm_trajectory(mu_b, tau, n, EX12, metric="shk")
    bud_a = error_budget(traj_a, kappa=2.0, lam=-2.0)
    bud_b = error_budget(traj_b, kappa=2.0, lam=-2.0)
    rep = contraction_check(traj_a, traj_b, lam=-2.0, budget_a=bud_a,
                            budget_b=bud_b)
    same = contraction_check(traj_a, traj_a, lam=-2.0, budget_a=bud_a,
                             budget_b=bud_a)
    ok = rep.ok and same.ok and float(np.max(same.distances)) <= 1e-4 \
        and same.rhs >= 0.0
    _report(11, "budgeted non-expansion", ok,
            f"perturbed margin {float(np.min(rep.rhs - rep.lhs)):.2e}, "
            f"identical sup distance {float(np.max(same.distances)):.1e}")


def test_criterion_12_geometry_suite():
    euclid = euclidean_box()
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    z = np.array([0.0, 1.0])
    w = np.array([1.0, 1.0])
    euclid_err = max(
        abs(upper_angle(euclid, x, y, z) - math.pi / 2),
        abs(lower_angle(euclid, x, y, z) - math.pi / 2),
        abs(upper_inner_product(euclid, x, y, z)),
        abs(upper_inner_product(euclid, x, y, w) - 1.0))
    cone = cone_over_segment(2.0)
    rng = np.random.default_rng(17)
    worst_cs = math.inf
    worst_sum = -math.inf
    for _ in range(500):
        pts = [np.array([rng.uniform(0.05, 1.95), rng.uniform(0.2, 2.0)])
               for _ in range(4)]
        cs = check_cauchy_schwarz_transfer(cone, *pts)
        worst_cs = min(worst_cs, cs["lhs"] - cs["rhs"])
        worst_sum = max(worst_sum,
                        check_angle_sum(cone, pts[0], pts[2], pts[3])["sum"])
    p = np.array([0.3, 1.0])
    q = np.array([1.2, 0.8])
    mid = cone.geodesic(p, q, 0.5)
    mid_gap = direction_gap_squared(cone, mid, p, q)
    ok = (euclid_err <= 1e-9 and worst_cs >= -1e-6
          and worst_sum <= 2.0 * math.pi + 1e-6 and abs(mid_gap) <= 1e-8)
    _report(12, "geometry suite", ok,
            f"euclid {euclid_err:.1e}, CS {worst_cs:.2e}, "
            f"angle sum {worst_sum:.4f}, midpoint gap {mid_gap:.1e}")


def test_criterion_13_interpolation_transfer_suite():
    ok = True
    details = []
    for p in (0.5, 0.6, 0.75, 1.0):
        rep = transfer_ratio_minimum(p, n_t=200, n_delta=200)
        if rep["min"] < 1.0 - 1e-9:
            ok = False
        details.append(f"p={p}: min {rep['min']:.6f}")
    witness = transfer_ratio_minimum(0.4, n_t=200, n_delta=200)
    if not (witness["below_one"] and witness["witness"][1] > 3.0):
        ok = False
    details.append(f"p=0.4 witness delta {witness['witness'][1]:.3f}")
    ident = 0.0
    for delta in (0.3, 1.0, 2.3, 3.0):
        ident = max(ident,
                    abs(interpolation_weight(0.0, delta)),
                    abs(interpolation_weight(1.0, delta) - 1.0),
                    abs(radius_ratio(0.0, delta) - 1.0),
                    abs(radius_ratio(1.0, delta) - 1.0))
        for t in (0.2, 0.5, 0.8):
            ident = max(
                ident,
                abs(interpolation_weight(1.0 - t, delta)
                    - (1.0 - interpolation_weight(t, delta))),
                abs(radius_ratio(1.0 - t, delta) - radius_ratio(t, delta)))
    ok = ok and ident <= 1e-12
    _report(13, "interpolation transfer suite", ok,
            "; ".join(details) + f"; identities {ident:.1e}")


def test_criterion_14_pde_oracles():
    dom = unit_interval(33)
    prob = _normalized(sinusoid_measure(dom, base=1.0, amplitude=0.3))
    straj = shk_flow_pde(prob, EX12, t_final=0.1)
    mass_drift = float(np.max(np.abs(straj.masses() - 1.0)))
    mins = [float(np.min(r)) for r in straj.densities]
    maxs = [float(np.max(r)) for r in straj.densities]
    nested = (all(a <= b + 1e-10 for a, b in zip(mins, mins[1:]))
              and all(a >= b - 1e-10 for a, b in zip(maxs, maxs[1:])))
    E2 = power_mass_entropy(1.0, 2.0, 0.0)
    scalar_err = max(
        abs(scalar_reaction_ode(c0, E2, t)
            - scalar_quadratic_closed_form(c0, t))
        for c0 in (0.3, 1.0, 2.5) for t in (0.01, 0.1, 0.5))
    ok = mass_drift <= 1e-10 and nested and scalar_err <= 1e-8
    _report(14, "reference equation oracles", ok,
            f"mass drift {mass_drift:.1e}, scalar error {scalar_err:.1e}")


def test_criterion_15_determinism(tmp_path):
    from hkflow.cli import main
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0], "nodes": [21]},
        "initial": {"kind": "sinusoid", "base": 0.5, "amplitude": 0.1},
        "entropy": {"family": "power_mass", "alpha": 1.0, "m": 2.0,
                    "gamma": -1.0},
        "tau": 0.05,
        "n_steps": 2,
    }
    # and one step of a non-convex table, through the bridges of its hull
    c = [0.1 * k for k in range(31)]
    table = dict(cfg, n_steps=1, entropy={
        "family": "custom_table", "c": c,
        "E": [x * x - x + 0.3 * math.sin(6.0 * x) for x in c],
        "recession_slope": 10.0})
    bodies = []
    for name, run_cfg in (("power", cfg), ("table", table)):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(run_cfg))
        for run in ("one", "two"):
            out = tmp_path / name / run
            status = main(["mm-run", "--config", str(cfg_path),
                           "--out", str(out), "--seed", "3"])
            assert status == 0
            bodies.append((out / "mm_run.csv").read_bytes())
    geo_cfg = tmp_path / "geo.json"
    geo_cfg.write_text(json.dumps({"space": "cone", "n_probes": 50}))
    geo_bodies = []
    for run in ("g1", "g2"):
        out = tmp_path / run
        assert main(["geometry-probe", "--config", str(geo_cfg),
                     "--out", str(out), "--seed", "9"]) == 0
        geo_bodies.append((out / "geometry_probe.json").read_bytes())
    ok = (bodies[0] == bodies[1] and bodies[2] == bodies[3]
          and geo_bodies[0] == geo_bodies[1])
    _report(15, "deterministic reports", ok,
            "bit-identical CSV and JSON across reruns")
