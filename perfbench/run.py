"""Benchmark of the gridgame train -> sweep -> trace pipeline.

    python3 perfbench/run.py --workload {train,sweep,native_trace} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout.  The command writes one experiment
config from --seed, then starts workload.py processes one at a time: a few
set-up probes, the untimed policy training that sweep and native_trace read,
and the workload itself, which calls ``gridgame.cli.main`` in-process and
checks every output.  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it skips the probes and starts two workload
processes, each ending in one pass under the tracer (tracer.py), and reports
the per-layer metrics after checking that both traced passes made exactly
the same calls.  The last line of standard
output is the JSON result; everything else of the run is kept in
perfbench/out/<workload>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTERS, metric_names  # noqa: E402

WORKLOADS = ("train", "sweep", "native_trace")
NEEDS_POLICIES = ("sweep", "native_trace")
PAIRINGS = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [1, 2], [2, 2]]
TRAIN_EPISODES = 10          # per policy; the default config trains 3000
SMOKE_EPISODES = 2
SETUP_PROBES = 5             # fresh processes timed for setup_s, plus the workload's own
DEADLINE_S = 170             # the whole command must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def make_config(seed: int, smoke: bool) -> dict:
    """The one config every workload runs: two (q3_max, seed) cells on
    either side of criterion 6's dip, level-2 hierarchies, and training cut
    from 3000 episodes with epsilon decaying over the same range."""
    episodes = SMOKE_EPISODES if smoke else TRAIN_EPISODES
    return {
        "grid": {},
        "train": {"episodes": episodes, "epsilon_decay": 0.999 ** (3000 / episodes)},
        "experiment": {"k_max": 2, "q3max_values": [0.7, 1.2], "pairings": PAIRINGS,
                       "eval_episodes": 2 if smoke else 50, "horizon": 100,
                       "seeds": [seed]},
    }


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.25
        blas = "unavailable"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():  # else git would search the directories above
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload_thread_env": {var: "1" for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit or "unknown (not a git checkout)",
    }


class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
        self.log = work / "workload.log"
        self.results = 0

    def workload(self, *args: str) -> None:
        """Run workload.py to completion; stop the run if it fails."""
        remaining = self.deadline - time.monotonic()
        with open(self.log, "a", encoding="utf-8") as log:
            log.write(f"$ workload.py {' '.join(args)}\n")
            log.flush()
            try:
                proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                                      cwd=ROOT, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=max(remaining, 1))
            except subprocess.TimeoutExpired:
                sys.exit(f"workload.py {args[0]} did not finish in time; see {self.log}")
        if proc.returncode != 0:
            tail = self.log.read_text(encoding="utf-8").splitlines()[-15:]
            sys.exit(f"workload.py {args[0]} exited {proc.returncode}; "
                     f"see {self.log}:\n" + "\n".join(tail))

    def result(self, phase: str, *args: str) -> dict:
        """Run a workload.py phase that writes a RESULT file; return it."""
        self.results += 1
        path = self.work / f"result-{self.results}.json"
        self.workload(phase, str(path), *args)
        return json.loads(path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_EPISODES} training episodes per policy and "
                        "2 evaluation episodes, to check the benchmark itself")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "gridgame" / "cli.py").is_file():
        sys.exit(f"no gridgame source under {ROOT / 'src'}; run from a checkout")

    work = HERE / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.json"
    config.write_text(json.dumps(make_config(args.seed, args.smoke), indent=1),
                      encoding="utf-8")
    runner = Runner(work)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    setups = []
    if not args.trace:
        for _ in range(1 if args.smoke else SETUP_PROBES):
            setups.append(runner.result("setup", str(config)))
    if args.workload in NEEDS_POLICIES:
        runner.workload("prepare", str(config), str(work / "policies"))

    def run(tag: str, seconds: float, *options: str) -> dict:
        if args.workload in NEEDS_POLICIES:
            options += ("--policies", str(work / "policies"))
        return runner.result("run", args.workload, str(config), str(work / f"run-{tag}"),
                             str(seconds), *options)

    if args.trace:
        results = [run(tag, args.seconds / 2, "--spans", str(work / f"spans-{tag}.npz"))
                   for tag in "ab"]
    else:
        results = [run("a", args.seconds)]

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    for name, digest in sorted(results[0]["hashes"].items()):
        print(f"sha256 {digest}  {name}")
    if args.trace:
        first, second = (r["trace"]["metrics"] for r in results)
        counts = [k for k in first if is_count(k)]
        unsteady = [k for k in counts if first[k] != second[k]]
        failures += [f"traced runs disagree on {k}: {first[k]} vs {second[k]}"
                     for k in unsteady]
        # Both processes ran the same seed, so their outputs must be
        # byte-identical: a check across processes that passes within one
        # cannot make, such as output that follows the hash seed.
        fa, fb = (r["fingerprints"] for r in results)
        differ = [op for op in fa if op in fb and fa[op] != fb[op]]
        failed += len(differ)
        failures += [f"{op}: output bytes differ between the two processes" for op in differ]
        files = sorted(name for name in results[0]["hashes"].keys() | results[1]["hashes"].keys()
                       if results[0]["hashes"].get(name) != results[1]["hashes"].get(name))
        failures += [f"{name}: sha256 differs between the two processes" for name in files]
        metrics = {k: (first[k] if k in counts else (first[k] + second[k]) / 2)
                   for k in metric_names()}
        units = {k: unit(k) for k in metrics}
        missing = results[0]["trace"]["missing"]
        if missing:
            print("not in this version of the program: " + ", ".join(missing))
        correct = failed == 0 and not unsteady and not files
    else:
        r = results[0]
        rates = [r["episodes_per_pass"] / s for s in r["pass_seconds"]]
        raw = [r["episodes_per_pass"] / s for s in r["raw_pass_seconds"]]
        setups.append(r)
        metrics = {"episodes_per_s": statistics.median(rates),
                   "setup_s": statistics.median(x["setup_s"] for x in setups),
                   "peak_rss_mb": r["peak_rss_mb"]}
        units = {"episodes_per_s": "episodes/s", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"{len(rates)} passes, episodes_per_s at reference speed: "
              + " ".join(f"{x:.2f}" for x in rates))
        print("  unscaled: " + " ".join(f"{x:.2f}" for x in raw)
              + f" (median {statistics.median(raw):.2f})")
        print("setup_s at reference speed: "
              + " ".join(f"{x['setup_s']:.4f}" for x in setups))
        print("  unscaled: " + " ".join(f"{x['raw_setup_s']:.4f}" for x in setups))
        correct = failed == 0
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"{'failed_fraction':<48} {failed / attempted:<12.6g} ({failed} of "
          f"{attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:<48} {value:<12.6g} {units[name]}")
    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (work / "result.json").write_text(json.dumps(
        dict(report, environment=env, workload=args.workload, seed=args.seed,
             failures=failures, runs=results), indent=1), encoding="utf-8")
    print(json.dumps(report))
    return 0


def is_count(metric: str) -> bool:
    return metric.endswith(".calls") or metric in COUNTERS


def unit(metric: str) -> str:
    if metric.startswith("experiment.bytes"):
        return "bytes"
    if is_count(metric):
        return "count"
    return "s" if metric.endswith("_s") else "ratio"


if __name__ == "__main__":
    sys.exit(main())
