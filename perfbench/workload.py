"""The benchmark's workload process: every program call goes through
``gridgame.cli.main`` in this process, which runs one thread.

run.py starts it once per phase, one process at a time:

    workload.py setup RESULT CONFIG
        import gridgame, load the config, build every cell; write setup_s.
    workload.py prepare CONFIG OUT
        train the policies that sweep and native_trace read (untimed).
    workload.py run RESULT WORKLOAD CONFIG OUT SECONDS [--policies DIR] [--spans FILE]
        copy the prepared policies from DIR into the new directory OUT, set
        up, then run passes of the workload for SECONDS and check every
        output.  With --spans, the tracer is then installed for one more
        setup and pass, whose spans go to FILE.

Times are scaled to a fixed host speed.  On the shared 2-core VM the
benchmark was written on, the speed of the same code drifts by a third
within seconds, so a timer signal runs a fixed pure-Python reference kernel
every PROBE_PERIOD_S inside this process, while the program runs.  An interval's program time is its wall time minus
the probe's own time, multiplied by REFERENCE_S over the kernel's mean time
in that interval.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy and gridgame load

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PLAYERS = ("defender", "attacker")
PROBE_PERIOD_S = 0.005
# Mean time of reference_kernel in the probe on the 2-core Xeon host the
# benchmark was written on.  Any constant would do: it only sets the scale.
REFERENCE_S = 0.00015


def reference_kernel() -> float:
    """Fixed interpreter work: float arithmetic and calls.  It allocates no
    container, so it never triggers a garbage collection of the program's
    objects and its time depends on the host alone."""
    total = 0.0
    for i in range(600):
        x = i * 0.5
        total += math.sqrt(x + 1.0) * 0.5 - x % 3.0
    return total


@dataclasses.dataclass
class Timing:
    """Program seconds of an interval, and the probe samples taken in it."""

    seconds: float = 0.0
    samples: int = 0
    kernel_s: float = 0.0

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.seconds + other.seconds, self.samples + other.samples,
                      self.kernel_s + other.kernel_s)


class SpeedProbe:
    """Samples the host's speed with reference_kernel from SIGALRM."""

    def __init__(self) -> None:
        self.samples = 0
        self.kernel_s = 0.0
        self.handler_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples += 1
        self.kernel_s += end - start
        self.handler_s += time.perf_counter() - start

    def mark(self) -> tuple:
        return time.perf_counter(), self.samples, self.kernel_s, self.handler_s

    def since(self, mark: tuple) -> Timing:
        start, samples, kernel_s, handler_s = mark
        return Timing(time.perf_counter() - start - (self.handler_s - handler_s),
                      self.samples - samples, self.kernel_s - kernel_s)

    def scaled(self, timing: Timing) -> float:
        """`timing`'s seconds at reference speed; an interval too short for a
        sample is scaled by every sample so far."""
        samples, kernel_s = ((timing.samples, timing.kernel_s) if timing.samples
                             else (self.samples, self.kernel_s))
        return timing.seconds * REFERENCE_S * samples / kernel_s


def import_program():
    sys.path.insert(0, str(SRC))
    import gridgame
    from gridgame import cli, experiment, scenario
    if Path(gridgame.__file__).resolve().parent != SRC / "gridgame":
        raise SystemExit(f"imported gridgame from {gridgame.__file__}, not {SRC}")
    return cli, experiment, scenario


def build_cells(experiment, scenario, config_path: Path):
    """Load the config and build the game and level-0 policies of every
    (q3_max, seed) cell, as the commands do before their first rollout."""
    config = experiment.load_config(config_path)
    for q3 in config.q3max_values:
        grid = dataclasses.replace(config.grid, q3_max=q3)
        for _seed in config.seeds:
            scenario.as_netform(grid, config.horizon)
            scenario.level0_policies(grid)
    return config


def call(cli, argv: list[str], probe: SpeedProbe) -> tuple[int, Timing]:
    """One CLI invocation: (exit code, timing)."""
    mark = probe.mark()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the operation failed; the benchmark counts it
        traceback.print_exc()
        code = -1
    return code, probe.since(mark)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def reward_error(defender: float, attacker: float) -> str | None:
    if not 0.0 <= attacker <= 1.0:
        return f"attacker per-step reward {attacker!r} outside [0, 1]"
    if defender > 0.0:
        return f"defender per-step reward {defender!r} above 0"
    return None


def flatten(value):
    if isinstance(value, list):
        for item in value:
            yield from flatten(item)
    else:
        yield value


# ---------------------------------------------------------------------------
# Workloads.  A pass runs `argvs` in order; `check` turns the pass's calls
# (exit code, seconds, files new in `out`) into ({operation: (error or None,
# fingerprint)}, {file: sha256}).  An operation's fingerprint must repeat
# across the passes of a run, which all use the same seed.
# ---------------------------------------------------------------------------

PARSE_ERRORS = (OSError, ValueError, KeyError, TypeError, csv.Error)


class Workload:
    def __init__(self, config, config_path: Path, out: Path):
        self.config = config
        self.out = out
        self.cells = [(q3, s) for q3 in config.q3max_values for s in config.seeds]
        self.common = ["--config", str(config_path), "--out", str(out)]
        self.keep = set(os.listdir(out))  # prepared inputs

    def run_pass(self, cli, probe) -> list[tuple[int, Timing, list[str]]]:
        for name in os.listdir(self.out):
            if name not in self.keep:
                (self.out / name).unlink()
        seen = set(self.keep)
        calls = []
        for argv in self.argvs:
            code, timing = call(cli, argv, probe)
            new = set(os.listdir(self.out)) - seen
            seen |= new
            calls.append((code, timing, sorted(new)))
        return calls

    def fail_all(self, reason: str) -> tuple[dict, dict]:
        return {op: (reason, "") for op in self.ops}, {}


class Train(Workload):
    """`gridgame train` on the config; an operation is a (q3_max, seed) cell."""

    def __init__(self, config, config_path, out):
        super().__init__(config, config_path, out)
        self.argvs = [["train"] + self.common]
        self.ops = [f"train q3_max={q3!r} seed={s}" for q3, s in self.cells]
        self.episodes = (len(self.cells) * len(PLAYERS) * config.k_max
                         * config.train.episodes)

    def check(self, calls):
        code, _, names = calls[0]
        if code != 0:
            return self.fail_all(f"exit code {code}")
        # Policies are the new .json files other than the manifest, which
        # may hold run-dependent fields; other new files are not checked.
        files = {cell: {} for cell in self.cells}
        hashes = {}
        try:
            for name in names:
                if not name.endswith(".json") or name == "manifest.json":
                    continue
                path = self.out / name
                payload = json.loads(path.read_bytes())
                network = payload["network"]
                if not all(map(math.isfinite, flatten(network["weights"]
                                                      + network["biases"]))):
                    raise ValueError(f"non-finite parameter in {name}")
                cell = (payload["q3_max"], payload["seed"])
                files[cell][(payload["player"], payload["level"])] = name
                hashes[name] = sha256(path)
        except PARSE_ERRORS as exc:
            return self.fail_all(f"unparseable policy: {exc!r}")
        levels = {(p, k) for p in PLAYERS for k in range(1, self.config.k_max + 1)}
        result = {}
        for op, cell in zip(self.ops, self.cells):
            if set(files[cell]) != levels:
                result[op] = (f"policies {sorted(files[cell])}", "")
                continue
            result[op] = (None, " ".join(sorted(hashes[n] for n in files[cell].values())))
        return result, hashes


class Sweep(Workload):
    """`gridgame sweep` on the config; an operation is a sweep.csv row."""

    def __init__(self, config, config_path, out):
        super().__init__(config, config_path, out)
        self.argvs = [["sweep"] + self.common]
        self.keys = [(q3, d, a, s) for q3 in config.q3max_values
                     for d, a in config.pairings for s in config.seeds]
        self.ops = [f"sweep row q3_max={q3!r} D{d} A{a} seed={s}"
                    for q3, d, a, s in self.keys]
        self.episodes = len(self.keys) * config.eval_episodes

    def check(self, calls):
        code, _, names = calls[0]
        if code != 0:
            return self.fail_all(f"exit code {code}")
        if "sweep.csv" not in names:
            return self.fail_all(f"no sweep.csv among the new files {names}")
        path = self.out / "sweep.csv"
        try:
            rows = list(csv.DictReader(io.StringIO(path.read_text("utf-8"))))
            by_key = {(float(r["q3_max"]), int(r["defender_level"]),
                       int(r["attacker_level"]), int(r["seed"])): r for r in rows}
        except PARSE_ERRORS as exc:
            return self.fail_all(f"unparseable sweep.csv: {exc!r}")
        if len(rows) != len(self.keys) or set(by_key) != set(self.keys):
            return self.fail_all(f"{len(rows)} sweep rows, expected {len(self.keys)}")
        result = {}
        for op, key in zip(self.ops, self.keys):
            row = by_key[key]
            try:
                error = reward_error(finite(row["defender_avg_reward_per_step"]),
                                     finite(row["attacker_avg_reward_per_step"]))
                if int(row["eval_episodes"]) != self.config.eval_episodes:
                    error = f"eval_episodes {row['eval_episodes']}"
            except PARSE_ERRORS as exc:
                error = f"unparseable row: {exc!r}"
            result[op] = (error, ",".join(row.values()))
        return result, {"sweep.csv": sha256(path)}


class NativeTrace(Workload):
    """`gridgame trace` for every pairing x cell; an operation is one call."""

    def __init__(self, config, config_path, out):
        super().__init__(config, config_path, out)
        self.argvs, self.ops = [], []
        for q3, s in self.cells:
            for d, a in config.pairings:
                self.argvs.append(["trace"] + self.common + [
                    "--defender-level", str(d), "--attacker-level", str(a),
                    "--q3max", repr(q3), "--seed", str(s)])
                self.ops.append(f"trace q3_max={q3!r} D{d} A{a} seed={s}")
        self.episodes = len(self.argvs)

    def check(self, calls):
        result, hashes = {}, {}
        for op, (code, _, names) in zip(self.ops, calls):
            if code != 0:
                result[op] = (f"exit code {code}", "")
                continue
            csvs = [name for name in names if name.endswith(".csv")]
            if len(csvs) != 1:
                result[op] = (f"new CSV files {csvs}, expected one trace", "")
                continue
            path = self.out / csvs[0]
            error = None
            try:
                rows = list(csv.DictReader(io.StringIO(path.read_text("utf-8"))))
                if len(rows) != self.config.horizon:
                    error = f"{len(rows)} trace rows, expected {self.config.horizon}"
                for row in rows:
                    for value in row.values():
                        finite(value)
                    error = error or reward_error(float(row["R_D"]), float(row["R_A"]))
            except PARSE_ERRORS as exc:
                error = f"unparseable {csvs[0]}: {exc!r}"
            hashes[csvs[0]] = sha256(path)
            result[op] = (error, hashes[csvs[0]])
        return result, hashes


WORKLOADS = {"train": Train, "sweep": Sweep, "native_trace": NativeTrace}


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

class Run:
    """Passes of one workload, their timings and their checked operations."""

    def __init__(self, workload: Workload, cli, probe: SpeedProbe):
        self.workload = workload
        self.cli = cli
        self.probe = probe
        self.raw_seconds: list[float] = []
        self.scaled_seconds: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] = {}
        self.hashes: dict[str, str] = {}

    def one_pass(self) -> Timing:
        calls = self.workload.run_pass(self.cli, self.probe)
        timing = sum((c[1] for c in calls), Timing())
        self.raw_seconds.append(timing.seconds)
        ops, hashes = self.workload.check(calls)
        self.hashes = self.hashes or hashes
        for op, (error, fingerprint) in ops.items():
            self.attempted += 1
            if error is None:
                expected = self.reference.setdefault(op, fingerprint)
                if fingerprint != expected:
                    error = "output bytes differ from the first pass"
            if error is not None:
                self.failures.append(f"pass {len(self.raw_seconds)}: {op}: {error}")
        return timing

    def measure(self, seconds: float, min_passes: int) -> None:
        """Run whole passes until the next one would end after `seconds`."""
        start = time.perf_counter()
        while True:
            timing = self.one_pass()
            self.scaled_seconds.append(self.probe.scaled(timing))
            elapsed = time.perf_counter() - start
            if len(self.raw_seconds) >= min_passes and elapsed + timing.seconds > seconds:
                return

    def rate(self, seconds: float) -> float:
        return self.workload.episodes / seconds


def phase_setup(args, probe: SpeedProbe) -> dict:
    _, experiment, scenario = import_program()
    build_cells(experiment, scenario, args.config)
    return setup_result(probe)


def setup_result(probe: SpeedProbe) -> dict:
    timing = probe.since((T0, 0, 0.0, 0.0))  # the probe started after T0
    return {"setup_s": probe.scaled(timing), "raw_setup_s": timing.seconds}


def phase_prepare(args, probe: SpeedProbe) -> int:
    cli, _, _ = import_program()
    code, _ = call(cli, ["train", "--config", str(args.config), "--out", str(args.out)],
                   probe)
    return code


def phase_run(args, probe: SpeedProbe) -> dict:
    cli, experiment, scenario = import_program()
    config = build_cells(experiment, scenario, args.config)
    result = setup_result(probe)
    if args.policies is None:
        args.out.mkdir(parents=True)
    else:
        shutil.copytree(args.policies, args.out)
    run = Run(WORKLOADS[args.workload](config, args.config, args.out), cli, probe)
    traced = args.spans is not None
    run.measure(args.seconds, min_passes=1 if traced else 2)
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "episodes_per_pass": run.workload.episodes,
        "pass_seconds": run.scaled_seconds,
        "raw_pass_seconds": list(run.raw_seconds),
        "probe": {"samples": probe.samples, "mean_kernel_s": probe.kernel_s / probe.samples},
    })
    if traced:
        # The probe stops so that no span holds its time; the overhead is
        # then a ratio of unscaled rates.
        probe.stop()
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import OVERHEAD, Tracer
        tracer = Tracer()
        tracer.install()
        try:
            build_cells(experiment, scenario, args.config)
            traced_s = run.one_pass().seconds
        finally:
            tracer.uninstall()
        metrics = tracer.summary()
        metrics[OVERHEAD] = run.rate(traced_s) / statistics.median(
            run.rate(s) for s in run.raw_seconds[:-1])
        result["trace"] = {"metrics": metrics, "missing": tracer.missing,
                           "spans": tracer.span_count}
        tracer.dump(args.spans)
    result.update(attempted=run.attempted, failed=len(run.failures),
                  failures=run.failures[:20], hashes=run.hashes,
                  fingerprints=run.reference)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="phase", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("result", type=Path)
    setup.add_argument("config", type=Path)
    prepare = sub.add_parser("prepare")
    prepare.add_argument("config", type=Path)
    prepare.add_argument("out", type=Path)
    run = sub.add_parser("run")
    run.add_argument("result", type=Path)
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("config", type=Path)
    run.add_argument("out", type=Path)
    run.add_argument("seconds", type=float)
    run.add_argument("--policies", type=Path, default=None)
    run.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.start()
    try:
        if args.phase == "prepare":
            return phase_prepare(args, probe)
        result = (phase_setup if args.phase == "setup" else phase_run)(args, probe)
    finally:
        probe.stop()
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
