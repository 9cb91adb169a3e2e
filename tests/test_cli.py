import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hkflow.cli
import hkflow.evi
import hkflow.mm
from hkflow.cli import main
from hkflow.hk import hk_two_diracs
from hkflow.measures import DiscreteMeasure
from hkflow.pde import hk_flow_pde

from conftest import unconverged

DOMAIN = {"lower": [0.0], "upper": [1.0], "nodes": [21]}
QUADRATIC = {"family": "power_mass", "alpha": 1.0, "m": 2.0, "gamma": -1.0}


def run_cli(tmp_path, verb, cfg, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    return main([verb, "--config", str(cfg_path), "--out", str(out),
                 *extra]), out


def test_log_level_from_the_environment(tmp_path):
    # HKFLOW_LOG=debug logs one line per distance solve on stderr; by
    # default the run logs nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": DOMAIN,
        "measure0": {"kind": "diracs", "nodes": [4], "masses": [0.8]},
        "measure1": {"kind": "diracs", "nodes": [14], "masses": [1.2]}}))
    src = str(Path(hkflow.cli.__file__).resolve().parents[1])

    def stderr(**level):
        env = {k: v for k, v in os.environ.items() if k != "HKFLOW_LOG"}
        env.update(PYTHONPATH=src, **level)
        return subprocess.run(
            [sys.executable, "-m", "hkflow.cli", "distance", "--config",
             str(cfg), "--out", str(tmp_path / "out")], env=env, check=True,
            capture_output=True, text=True).stderr

    lines = stderr(HKFLOW_LOG="debug").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("DEBUG hkflow.hk: distance solve: ")
    # a cold solve had no warm start to hold
    assert "warm start held False" in lines[0]
    assert stderr() == ""


def test_distance_two_dirac_fixture(tmp_path):
    # the matching closed form passes (exit 0); one of the wrong mass fails
    # the check (exit 1), and its result file still records the gap
    for mass0, status in ((0.8, 0), (0.6, 1)):
        cfg = {
            "domain": DOMAIN,
            "measure0": {"kind": "diracs", "nodes": [4], "masses": [0.8]},
            "measure1": {"kind": "diracs", "nodes": [14], "masses": [1.2]},
            "check_two_dirac": {"mass0": mass0, "mass1": 1.2,
                                "distance": 0.5},
        }
        run = tmp_path / str(mass0)
        run.mkdir()
        assert run_cli(run, "distance", cfg)[0] == status
        result = json.loads((run / "out" / "distance.json").read_text())
        assert result["hk_squared"] == pytest.approx(
            hk_two_diracs(0.8, 1.2, 0.5), abs=1e-6)
        closed = hk_two_diracs(mass0, 1.2, 0.5)
        assert result["closed_form"] == closed
        assert (result["closed_form_gap"]
                > 1e-5 * (1.0 + closed)) == bool(status)
        manifest = json.loads((run / "out" / "manifest.json").read_text())
        assert manifest["verb"] == "distance"
        assert manifest["exit_status"] == status
        assert len(manifest["config_sha256"]) == 64


def test_empty_config_exit_2(tmp_path):
    status, _ = run_cli(tmp_path, "distance", {})
    assert status == 2


def test_unknown_field_exit_2(tmp_path):
    cfg = {
        "domain": DOMAIN,
        "measure0": {"kind": "uniform", "value": 1.0},
        "measure1": {"kind": "uniform", "value": 2.0},
        "bogus": True,
    }
    status, _ = run_cli(tmp_path, "distance", cfg)
    assert status == 2


FLOW = {"domain": DOMAIN, "initial": {"kind": "uniform", "value": 1.0},
        "entropy": QUADRATIC}


@pytest.mark.parametrize("verb, cfg", [
    ("distance", {"domain": DOMAIN,
                  "measure0": {"kind": "uniform", "value": 1.0},
                  "measure1": {"kind": "uniform", "value": 2.0}}),
    ("mm-run", {**FLOW, "tau": 0.02, "n_steps": 1}),
    ("evi-check", {**FLOW, "tau": 0.02, "n_steps": 1, "lambda": 0.0}),
    ("pde-compare", {**FLOW, "t_final": 0.02, "tau_list": [0.02]}),
    ("convergence-study", {**FLOW, "t_final": 0.02, "tau_list": [0.02]}),
])
def test_unknown_metric_exit_2(tmp_path, monkeypatch, verb, cfg):
    def no_solve(*args, **kw):
        raise AssertionError("distance solve before the metric check")

    for module in (hkflow.cli, hkflow.mm, hkflow.evi):
        monkeypatch.setattr(module, "hk_distance_squared", no_solve)
    status, out = run_cli(tmp_path, verb, {**cfg, "metric": "spherical"})
    assert status == 2
    assert not any(out.iterdir())


def test_shk_distance_requires_probabilities(tmp_path, monkeypatch):
    dom = {"lower": [0.0], "upper": [1.0], "nodes": [33]}
    uniform = {"kind": "uniform", "value": 1.0}
    cfg = {"domain": dom, "metric": "shk", "measure1": uniform,
           "measure0": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2}}

    def no_solve(*args, **kw):
        raise AssertionError("distance solve before the unit-mass check")

    monkeypatch.setattr(hkflow.cli, "hk_distance_squared", no_solve)
    status, out = run_cli(tmp_path, "distance", cfg)
    assert status == 2
    assert not any(out.iterdir())
    monkeypatch.undo()
    unit = {**cfg, "measure0": {"kind": "sinusoid", "base": 1.0,
                                "amplitude": 0.2}}
    status, out = run_cli(tmp_path, "distance", unit, name="unit.json")
    assert status == 0
    result = json.loads((out / "distance.json").read_text())
    assert result["shk"] == pytest.approx(
        2.0 * math.asin(result["hk"] / 2.0), rel=1e-12)


def test_convergence_study_rejects_kappa(tmp_path):
    cfg = {**FLOW, "metric": "shk", "t_final": 0.02, "tau_list": [0.02],
           "kappa": 0.0}
    status, out = run_cli(tmp_path, "convergence-study", cfg)
    assert status == 2
    assert not any(out.iterdir())


def test_malformed_json_exit_2(tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    out = tmp_path / "out"
    assert main(["distance", "--config", str(cfg_path),
                 "--out", str(out)]) == 2


def test_missing_config_file_exit_2(tmp_path):
    out = tmp_path / "out"
    assert main(["distance", "--config", str(tmp_path / "nope.json"),
                 "--out", str(out)]) == 2


def test_mm_run_emits_per_step_csv(tmp_path):
    cfg = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.5, "amplitude": 0.1},
        "entropy": QUADRATIC,
        "tau": 0.05,
        "n_steps": 3,
    }
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 0
    lines = (out / "mm_run.csv").read_text().strip().splitlines()
    assert lines[0] == ("step,time,mass,min_density,max_density,"
                        "energy,step_distance_squared")
    assert len(lines) == 5  # header + initial + 3 steps
    energies = [float(r.split(",")[5]) for r in lines[1:]]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_mm_run_from_zero_measure(tmp_path):
    # E = -sqrt(c) grows mass from nothing: c_k = (k tau)^2 on uniform data
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0], "nodes": [9]},
        "initial": {"kind": "uniform", "value": 0},
        "entropy": {"family": "neg_power", "q": 0.5, "beta": 1.0},
        "tau": 0.05,
        "n_steps": 3,
    }
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 0
    lines = (out / "mm_run.csv").read_text().strip().splitlines()
    masses = [float(r.split(",")[2]) for r in lines[1:]]
    assert masses == pytest.approx([0.0, 0.0025, 0.01, 0.0225], rel=1e-6)


@pytest.mark.parametrize("metric", ["hk", "shk"])
def test_mm_run_with_nodes_beyond_every_source(tmp_path, metric):
    # most nodes of [0, 4] lie beyond pi/2 of the three source nodes
    cfg = {"domain": {"lower": [0.0], "upper": [4.0], "nodes": [33]},
           "initial": {"kind": "diracs", "nodes": [0, 1, 2],
                       "masses": [0.3, 0.3, 0.3]},
           "entropy": {"family": "neg_power", "q": 0.5, "beta": 1.0},
           "metric": metric, "tau": 0.05, "n_steps": 2}
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 0
    assert len((out / "mm_run.csv").read_text().strip().splitlines()) == 4


@pytest.mark.parametrize("entropy", [
    {"family": "linear", "gamma": -2.0},
    {"family": "custom_table", "c": [0.1 * k for k in range(31)],
     "E": [(0.1 * k) ** 2 - 0.1 * k for k in range(31)],
     "recession_slope": 5.0},
    # E = -c / 2 on the table and, with slope -1/2, above it
    {"family": "custom_table", "c": [0.0, 1.0, 2.0, 3.0],
     "E": [0.0, -0.5, -1.0, -1.5], "recession_slope": -0.5}])
def test_mm_run_linear_and_table_energies(tmp_path, entropy):
    cfg = {"domain": {"lower": [0.0], "upper": [1.0], "nodes": [33]},
           "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
           "entropy": entropy, "tau": 0.05, "n_steps": 4}
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 0
    rows = [[float(v) for v in r.split(",")] for r in
            (out / "mm_run.csv").read_text().strip().splitlines()[1:]]
    masses = [r[2] for r in rows]
    if entropy["family"] == "linear":
        # E = -2 mass scales the input by 1 / (1 + 2 tau gamma)^2 per step
        assert masses == pytest.approx([0.8 * 1.5625**k for k in range(5)],
                                       rel=1e-12, abs=0.0)
    elif entropy["recession_slope"] == -0.5:
        assert masses == pytest.approx([0.8 / 0.95 ** (2 * k)
                                        for k in range(5)], rel=1e-6)
    # every step descends: E(rho_k+1) + d^2 / (2 tau) <= E(rho_k)
    for r0, r1 in zip(rows, rows[1:]):
        assert r1[5] + r1[6] / 0.1 <= r0[5] + 1e-9


def test_mm_run_table_below_its_end_slope_exit_2(tmp_path):
    # a recession slope below E'(c_max) = 5 cannot be lim E(t) / t of a
    # convex E
    cfg = {"domain": {"lower": [0.0], "upper": [1.0], "nodes": [9]},
           "initial": {"kind": "uniform", "value": 1.0},
           "entropy": {"family": "custom_table",
                       "c": [0.1 * k for k in range(31)],
                       "E": [(0.1 * k) ** 2 - 0.1 * k for k in range(31)],
                       "recession_slope": 0.0},
           "tau": 0.05, "n_steps": 1}
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 2
    assert not (out / "mm_run.csv").exists()


def test_mm_run_unbounded_step_exit_2(tmp_path, recwarn):
    # E = -20 mass at tau = 0.05: 1 + 2 tau gamma < 0, so the step objective
    # falls without bound as the mass grows and no step exists
    cfg = {"domain": {"lower": [0.0], "upper": [1.0], "nodes": [33]},
           "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
           "entropy": {"family": "linear", "gamma": -20.0},
           "tau": 0.05, "n_steps": 4}
    status, out = run_cli(tmp_path, "mm-run", cfg)
    assert status == 2
    assert not (out / "mm_run.csv").exists()
    assert len(recwarn) == 0


def test_appendix_check_witness_exit_1(tmp_path):
    status, out = run_cli(tmp_path, "appendix-check", {"p": 0.4, "grid": 120})
    assert status == 1
    report = json.loads((out / "appendix_check.json").read_text())
    assert not report["estimates_hold"]
    assert report["witness_delta"] > 3.0


def test_appendix_check_passes_for_half(tmp_path):
    status, out = run_cli(tmp_path, "appendix-check", {"p": 0.5, "grid": 80})
    assert status == 0
    report = json.loads((out / "appendix_check.json").read_text())
    assert report["estimates_hold"]


def test_geometry_probe_cone(tmp_path):
    status, out = run_cli(tmp_path, "geometry-probe",
                          {"space": "cone", "n_probes": 40})
    assert status == 0
    report = json.loads((out / "geometry_probe.json").read_text())
    assert report["worst_cs_residual"] >= -1e-6
    assert report["worst_angle_sum"] <= 2.0 * math.pi + 1e-6


@pytest.mark.parametrize("space", ["euclidean", "point_masses"])
def test_geometry_probe_other_spaces(tmp_path, space):
    status, out = run_cli(tmp_path, "geometry-probe",
                          {"space": space, "n_probes": 40})
    assert status == 0
    report = json.loads((out / "geometry_probe.json").read_text())
    assert report["space"] == space
    assert report["worst_cs_residual"] >= -1e-6
    assert report["worst_angle_sum"] <= 2.0 * math.pi + 1e-6


def test_pde_compare_gap_shrinks_with_tau(tmp_path, monkeypatch):
    # uniform data flow by reaction alone; both step sizes end at t_final,
    # so one reference solve serves every tau
    solves = []

    def counting(*args, **kwargs):
        solves.append(kwargs)
        return hk_flow_pde(*args, **kwargs)

    monkeypatch.setattr(hkflow.cli, "hk_flow_pde", counting)
    cfg = {**FLOW, "t_final": 0.02, "tau_list": [0.02, 0.01]}
    status, out = run_cli(tmp_path, "pde-compare", cfg)
    assert status == 0
    assert len(solves) == 1
    lines = (out / "pde_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,l1_gap"
    taus, gaps = zip(*[map(float, r.split(",")) for r in lines[1:]])
    assert taus == (0.02, 0.01)
    assert 0.0 < gaps[1] < gaps[0]


def test_pde_compare_noise_gaps_exit_0(tmp_path):
    # the SHK flow of uniform data is stationary: both gaps are solver noise
    # (about 1e-9) below GAP_FLOOR, so their order decides nothing
    cfg = {**FLOW, "metric": "shk", "t_final": 0.02, "tau_list": [0.02, 0.01]}
    status, out = run_cli(tmp_path, "pde-compare", cfg)
    assert status == 0
    gaps = [float(r.split(",")[1]) for r in
            (out / "pde_compare.csv").read_text().strip().splitlines()[1:]]
    assert max(gaps) < hkflow.cli.GAP_FLOOR


def test_growing_gaps_above_the_floor_exit_1(tmp_path, monkeypatch):
    rows = [{"tau": tau, "sup_gap": gap, "trajectory": None}
            for tau, gap in ((0.04, 1e-3), (0.02, 2e-3))]
    monkeypatch.setattr(hkflow.cli, "convergence_study",
                        lambda *args: rows)
    monkeypatch.setattr(hkflow.cli, "evi_check",
                        lambda *args: SimpleNamespace(worst_residual=0.0))
    cfg = {**FLOW, "tau_list": [0.04, 0.02, 0.01], "t_final": 0.04}
    status, _ = run_cli(tmp_path, "convergence-study", cfg)
    assert status == 1


def _rising_trajectory(mu0, tau, n_steps, E, metric):
    # the energy of c^2 - c rises from density 1 to density 3
    return hkflow.mm.MMTrajectory(
        tau, [mu0, DiscreteMeasure(mu0.domain, 3.0 * mu0.density)], [0.1],
        metric, E)


def _worst_residual_above_tolerance(traj, lam):
    # 4 sqrt(tau) = 0.57 at tau = 0.02
    return dataclasses.replace(hkflow.evi.evi_check(traj, lam),
                               worst_residual=1.0)


@pytest.mark.parametrize("verb, cfg, name, fake, files", [
    ("mm-run", {**FLOW, "tau": 0.02, "n_steps": 1}, "mm_trajectory",
     _rising_trajectory, ["mm_run.csv"]),
    ("evi-check", {**FLOW, "tau": 0.02, "n_steps": 2, "lambda": 0.0},
     "evi_check", _worst_residual_above_tolerance,
     ["evi_residuals.csv", "evi_summary.json"]),
    ("geometry-probe", {"space": "cone", "n_probes": 3}, "check_angle_sum",
     lambda *args: {"sum": 2.0 * math.pi + 1e-3}, ["geometry_probe.json"])])
def test_failed_check_exits_1_and_writes_its_data(tmp_path, monkeypatch,
                                                  verb, cfg, name, fake,
                                                  files):
    # a rising energy, an EVI residual above 4 sqrt(tau), an angle sum
    # above 2 pi: the verb exits 1 and still writes what it found
    monkeypatch.setattr(hkflow.cli, name, fake)
    status, out = run_cli(tmp_path, verb, cfg)
    assert status == 1
    assert all((out / f).is_file() for f in files)


def test_determinism_bit_identical(tmp_path):
    cfg = {"space": "cone", "n_probes": 25}
    s1, out1 = run_cli(tmp_path, "geometry-probe", cfg, name="a.json")
    body1 = (out1 / "geometry_probe.json").read_text()
    out2 = tmp_path / "out2"
    cfg_path = tmp_path / "a.json"
    s2 = main(["geometry-probe", "--config", str(cfg_path),
               "--out", str(out2), "--seed", "0"])
    body2 = (out2 / "geometry_probe.json").read_text()
    assert s1 == s2 == 0
    assert body1 == body2


def test_seed_changes_probes(tmp_path):
    cfg = {"space": "cone", "n_probes": 25}
    _, out1 = run_cli(tmp_path, "geometry-probe", cfg)
    out2 = tmp_path / "out2"
    cfg_path = tmp_path / "cfg.json"
    main(["geometry-probe", "--config", str(cfg_path), "--out", str(out2),
          "--seed", "1"])
    r1 = json.loads((out1 / "geometry_probe.json").read_text())
    r2 = json.loads((out2 / "geometry_probe.json").read_text())
    assert r1["worst_cs_residual"] != r2["worst_cs_residual"]


def test_csv_floats_have_12_significant_digits(tmp_path):
    cfg = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.5, "amplitude": 0.1},
        "entropy": QUADRATIC,
        "tau": 0.05,
        "n_steps": 1,
    }
    _, out = run_cli(tmp_path, "mm-run", cfg)
    row = (out / "mm_run.csv").read_text().strip().splitlines()[2]
    mass_field = row.split(",")[2]
    assert len(mass_field.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_evi_check_exit_0(tmp_path):
    cfg = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
        "entropy": QUADRATIC,
        "tau": 0.02,
        "n_steps": 3,
        "lambda": 0.0,
    }
    status, out = run_cli(tmp_path, "evi-check", cfg)
    assert status == 0
    lines = (out / "evi_residuals.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 10  # header + 3 observers x 10 (s, t) pairs
    summary = json.loads((out / "evi_summary.json").read_text())
    assert summary["budget_bound_holds"]


def test_evi_check_step_too_large_for_lambda_exit_2(tmp_path):
    # 1 + lambda tau = -0.5 leaves the error budget undefined: the verb
    # fails before it writes a data file
    cfg = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
        "entropy": QUADRATIC,
        "tau": 0.005,
        "n_steps": 2,
        "lambda": -300.0,
    }
    status, out = run_cli(tmp_path, "evi-check", cfg)
    assert status == 2
    assert list(out.iterdir()) == []


def test_convergence_study_one_trajectory_per_tau(tmp_path, monkeypatch):
    built = []

    def counting(*args, **kw):
        built.append(args[1])
        return original(*args, **kw)

    original = hkflow.evi.mm_trajectory
    monkeypatch.setattr(hkflow.evi, "mm_trajectory", counting)
    monkeypatch.setattr(hkflow.cli, "mm_trajectory", counting)
    cfg = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
        "entropy": QUADRATIC,
        "metric": "shk",
        "tau_list": [0.04, 0.02, 0.01],
        "t_final": 0.04,
    }
    status, out = run_cli(tmp_path, "convergence-study", cfg)
    assert status == 0
    assert sorted(built) == [0.01, 0.02, 0.04]
    lines = (out / "convergence_study.csv").read_text().strip().splitlines()
    assert lines[0] == "tau,sup_gap,evi_worst_residual"
    assert len(lines) == 3  # header + one row per consecutive tau pair


def test_unconverged_solves_exit_3(tmp_path, monkeypatch):
    two_dirac = {
        "domain": DOMAIN,
        "measure0": {"kind": "diracs", "nodes": [4], "masses": [0.8]},
        "measure1": {"kind": "diracs", "nodes": [14], "masses": [1.2]},
    }
    flow = {
        "domain": DOMAIN,
        "initial": {"kind": "sinusoid", "base": 0.8, "amplitude": 0.2},
        "entropy": QUADRATIC,
        "tau": 0.02,
        "n_steps": 2,
    }
    for module in (hkflow.cli, hkflow.mm):
        monkeypatch.setattr(module, "hk_distance_squared",
                            unconverged(module.hk_distance_squared))
    status, out = run_cli(tmp_path, "distance", two_dirac, name="d.json")
    assert status == 3
    # the result is still written, flagged as unconverged
    assert not json.loads((out / "distance.json").read_text())["converged"]
    status, _ = run_cli(tmp_path, "mm-run", flow, name="mm.json")
    assert status == 3
    # a trajectory whose steps converge, checked with failing solves
    monkeypatch.undo()
    monkeypatch.setattr(hkflow.evi, "hk_distance_squared",
                        unconverged(hkflow.evi.hk_distance_squared))
    status, _ = run_cli(tmp_path, "evi-check", {**flow, "lambda": 0.0},
                        name="evi.json")
    assert status == 3


NINE = {"lower": [0.0], "upper": [1.0], "nodes": [9]}
FLOW9 = {"domain": NINE, "initial": {"kind": "uniform", "value": 1.0},
         "entropy": QUADRATIC}
DIRAC9 = {"domain": NINE, "measure1": {"kind": "uniform", "value": 1.0}}


def test_mm_run_from_a_list_of_node_densities(tmp_path):
    # step 0 is the listed density: its min, max and trapezoid mass
    rho = [0.5, 0.7, 1.0, 1.3, 1.5, 1.3, 1.0, 0.7, 0.5]
    status, out = run_cli(tmp_path, "mm-run",
                          {**FLOW9, "initial": rho, "tau": 0.05, "n_steps": 1})
    assert status == 0
    step0 = [float(v) for v in
             (out / "mm_run.csv").read_text().splitlines()[1].split(",")]
    mass = (sum(rho) - 0.5 * (rho[0] + rho[-1])) / 8.0
    assert step0[:5] == [0.0, 0.0, pytest.approx(mass, rel=1e-11), 0.5, 1.5]


@pytest.mark.parametrize("verb, cfg, path", [
    ("distance", {**DIRAC9, "measure0": {"kind": "diracs", "nodes": [100],
                                         "masses": [1.0]}},
     "measure0.nodes[0]"),
    ("distance", {**DIRAC9, "measure0": {"kind": "diracs", "nodes": [-1],
                                         "masses": [1.0]}},
     "measure0.nodes[0]"),
    ("distance", {**DIRAC9, "measure0": {"kind": "diracs", "nodes": [2, 4],
                                         "masses": [1.0]}},
     "measure0.masses"),
    ("mm-run", {**FLOW9, "tau": 0.05, "n_steps": 1.7}, "n_steps"),
    ("mm-run", {**FLOW9, "tau": 0.05, "n_steps": True}, "n_steps"),
    ("mm-run", {**FLOW9, "tau": 0.05, "n_steps": -2}, "n_steps"),
    ("geometry-probe", {"space": "cone", "n_probes": 0}, "n_probes"),
    ("appendix-check", {"p": 0.5, "grid": 0}, "grid"),
    ("pde-compare", {**FLOW9, "t_final": 0.02, "tau_list": []}, "tau_list"),
    ("convergence-study", {**FLOW9, "t_final": 0.04, "tau_list": []},
     "tau_list"),
    ("convergence-study", {**FLOW9, "t_final": 0.04, "tau_list": [0.02]},
     "tau_list"),
    ("convergence-study", {**FLOW9, "t_final": 0.04,
                           "tau_list": [0.02, 0.0]}, "tau_list[1]"),
    ("pde-compare", {**FLOW9, "t_final": 0.02, "tau_list": [0.0]},
     "tau_list[0]"),
    ("mm-run", {**FLOW9, "tau": "0.05", "n_steps": 1}, "tau"),
    ("evi-check", {**FLOW9, "tau": 0.05, "n_steps": 1, "lambda": math.nan},
     "lambda"),
    ("evi-check", {**FLOW9, "tau": 0.05, "n_steps": 1, "lambda": 10**400},
     "lambda"),
    # a mistyped field one level down
    ("mm-run", {**FLOW9, "initial": {"kind": "sinusoid", "amplitde": 0.3},
                "tau": 0.05, "n_steps": 1}, "initial.amplitde"),
    ("mm-run", {**FLOW9, "entropy": {"family": "power_mass", "alhpa": 5},
                "tau": 0.05, "n_steps": 1}, "entropy.alhpa"),
    ("distance", {**DIRAC9, "measure0": {"kind": "uniform", "value": 1.0},
                  "check_two_dirac": {"mass0": 1.0, "mass1": 1.0,
                                      "distance": 0.0, "tol": 1e-3}},
     "check_two_dirac.tol"),
    ("mm-run", {**FLOW9, "domain": {"lower": [0.0], "upper": [1.0],
                                    "nodse": [9]},
                "tau": 0.05, "n_steps": 1}, "domain.nodse"),
    # a tau that does not divide t_final, checked before any trajectory
    ("pde-compare", {**FLOW9, "t_final": 0.05, "tau_list": [0.1]},
     "tau_list[0]"),
    ("pde-compare", {**FLOW9, "t_final": 0.05, "tau_list": [0.05, 0.02]},
     "tau_list[1]"),
    ("convergence-study", {**FLOW9, "t_final": 0.05,
                           "tau_list": [0.02, 0.01]}, "tau_list[0]"),
    # an initial list of node densities one short, with a negative entry,
    # and with a string
    ("mm-run", {**FLOW9, "initial": [1.0] * 8, "tau": 0.05, "n_steps": 1},
     "initial"),
    ("mm-run", {**FLOW9, "initial": [1.0] * 8 + [-1.0], "tau": 0.05,
                "n_steps": 1}, "initial"),
    ("mm-run", {**FLOW9, "initial": [1.0] * 8 + ["1"], "tau": 0.05,
                "n_steps": 1}, "initial[8]"),
    ("mm-run", {**FLOW9, "domain": {"lower": [1.0], "upper": [0.0],
                                    "nodes": [9]},
                "tau": 0.05, "n_steps": 1}, "domain"),
    ("geometry-probe", {"space": "torus", "n_probes": 4}, "space"),
    # a name field given a list or an object
    ("mm-run", {**FLOW9, "metric": ["hk"], "tau": 0.05, "n_steps": 1},
     "metric"),
    ("geometry-probe", {"space": {"kind": "cone"}, "n_probes": 4}, "space"),
])
def test_bad_value_exit_2_naming_its_field(tmp_path, monkeypatch, caplog,
                                           verb, cfg, path):
    def no_solve(*args, **kw):
        raise AssertionError("distance solve before the config is read")

    for module in (hkflow.cli, hkflow.mm, hkflow.evi):
        monkeypatch.setattr(module, "hk_distance_squared", no_solve)
    status, out = run_cli(tmp_path, verb, cfg)
    assert status == 2
    assert not any(out.iterdir())
    assert path in caplog.text
