#!/usr/bin/env python3
"""QUBIKOS end-to-end benchmark: build, run, and check steadiness.

One run (what BENCHMARK.json names):

    python3 perfbench/run.py --workload fig4-panel --seed 1 --seconds 35 --trace 0

builds perfbench/qbench.exe and the qubikos CLI from source with dune,
then runs the benchmark; its last stdout line is the JSON result. Exits
non-zero without a result when the build fails, and non-zero after it
when a check fails. Without --workload it runs every workload in turn.

Steadiness mode runs every workload (or --workload) once per seed and
prints, per metric, the median, the quartiles, the quartile spread as a
share of the median and the max/min ratio, and the quartile spread of
the raw (uncalibrated) value beside it:

    python3 perfbench/run.py --steadiness 10 --seconds 35 [--first-seed 101]
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig4-panel", "exact-certify", "serve-evaluate"]
BUILD = os.path.join(ROOT, "_build", "default")
QBENCH = os.path.join(BUILD, "perfbench", "qbench.exe")
CLI = os.path.join(BUILD, "bin", "qubikos_cli.exe")


def find_dune():
    """dune from PATH, else from an opam switch (a non-login shell may
    not have the switch on its PATH)."""
    found = shutil.which("dune")
    if found:
        return found
    switches = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return switches[0] if switches else "dune"


def build():
    """Build the benchmark and the daemon it spawns; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project next to perfbench/; nothing to build",
              file=sys.stderr)
        return False
    dune = find_dune()
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    try:
        done = subprocess.run(
            [dune, "build", "--root", ROOT, "--profile", "release",
             "./perfbench/qbench.exe", "./bin/qubikos_cli.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0


def raw_metrics(out):
    """The uncalibrated end-to-end values qbench prints above its result."""
    raw, inside = {}, False
    for line in out.splitlines():
        if line.startswith("qbench: calibration"):
            inside = True
        elif line.startswith("qbench: normalised"):
            break
        elif inside:
            name, value, _ = line.split()
            raw[name] = float(value)
    return raw


def run_once(workload, seed, seconds, trace, echo):
    """Run qbench once; return (exit code, parsed result or None). The
    result also carries the raw values under "raw"."""
    cmd = [QBENCH, "--cli", CLI, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # A process group of its own, so a timeout also takes down the daemon.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=os.setpgrp)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 3, None
    if echo:
        sys.stdout.write(out)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None:
        result["raw"] = raw_metrics(out)
    return proc.returncode, result


def spread(vals):
    """Quartile spread as a share of the median."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("nan")


def summarize(workload, results):
    """Print median, quartiles, spread and max/min per metric."""
    print(f"\n== {workload}: {len(results)} runs")
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"   failed/attempted per run: {sorted(shares)}")
    print(f"   {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8} {'raw iqr':>8}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        lo, hi = min(vals), max(vals)
        ratio = hi / lo if lo > 0 else float("nan")
        raw = [r["raw"][name] for r in results if name in r["raw"]]
        raw_spread = spread(raw) if len(raw) == len(vals) else float("nan")
        print(f"   {name:<30} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread(vals):8.3f} {ratio:8.3f} {raw_spread:8.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N",
                    help="run N seeds per workload and summarize the spread")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not build():
        return 2
    workloads = [args.workload] if args.workload else WORKLOADS
    if not args.steadiness:
        codes = [run_once(w, args.seed, args.seconds, args.trace, echo=True)[0]
                 for w in workloads]
        return max(codes)
    code = 0
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.steadiness):
            rc, result = run_once(workload, seed, args.seconds, args.trace,
                                  echo=False)
            if rc != 0 or result is None or not result["correct"]:
                print(f"run.py: {workload} seed {seed} failed (exit {rc})",
                      file=sys.stderr)
                code = 1
                continue
            results.append(result)
            print(f"   {workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
        if len(results) >= 2:
            summarize(workload, results)
    return code


if __name__ == "__main__":
    sys.exit(main())
