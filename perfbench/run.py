"""hkflow benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of an hkflow checkout; the program is used from its
``src`` directory as is.  Each run starts fresh worker processes with
OpenBLAS, OpenMP and MKL pinned to one thread: the one that measures,
with ``SETUP_PROBES`` processes that only set up split before and after
it.  The last line printed is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the thread setting, ``nproc`` and the versions.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``), with ``--trace 1`` the per-layer ones.  Outputs of the
run are kept under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is sampled on both sides of the measuring process, so that the
# slowest set-up is taken over the whole run, as wall_s is: the machine's
# speed drifts over tens of seconds.
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.update({var: "1" for var in THREAD_VARS})
    return env


def start_worker(args, out: Path, env: dict, setup_only: bool,
                 deadline: float):
    """Run worker.py to its end; return (process start time, its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0), check=True)
    return t0, proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "hkflow" / "__init__.py").is_file():
        print("run.py: no src/hkflow here; run it from the root of an "
              "hkflow checkout", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = worker_env(root)

    def probe():
        t0, stdout = start_worker(args, out, env, True, deadline)
        return json.loads(stdout.splitlines()[-1])["first_call"] - t0

    try:
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        t0, _ = start_worker(args, out, env, False, deadline)
        res = json.loads((out / "result.json").read_text())
        setups.append(res["first_call"] - t0)
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: worker failed: {exc}", file=sys.stderr)
        return 1

    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    env_line = {
        "threads": {var: env[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **res["versions"],
        "rounds": len(res["round_s"]) + len(res["traced_round_s"]),
        "unconverged_solves": res["unconverged_solves"],
    }
    if args.trace:
        layers = res["layers"]
        print(f"trace overhead: {layers['trace.overhead_pct']:.4f}% of the "
              f"untraced wall_s {max(res['round_s']):.4f} s "
              "spent in the tracer's wrappers; traced round "
              f"{max(res['traced_round_s']):.4f} s; per-layer "
              f"counts {'repeat' if res['counts_repeat'] else 'DIFFER'} "
              "between traced rounds")
        metrics = {k: {"value": v, "unit": tracer.UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": max(res["round_s"]), "unit": "s"},
            "setup_s": {"value": max(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        env_line["setup_samples_s"] = setups
        env_line["round_s"] = res["round_s"]
    print(json.dumps({"env": env_line}))
    print(json.dumps({"correct": not res["errors"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
