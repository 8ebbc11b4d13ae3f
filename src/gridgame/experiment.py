"""Experiment configuration, policy persistence, and the sweep/eval/trace
runners behind the CLI.

A single JSON document configures everything; unknown keys are rejected so
typos fail fast.  Every run cell (pairing x q3_max x seed) derives its own
generator deterministically from the seed and the cell coordinates, and all
files are written atomically, so a (config, seed) pair fully determines every
output byte, with any number of workers.  `csv` writes floats (numpy's
too) with `float.__repr__`, which round-trips exactly.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import pickle
import secrets
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from . import neural, scenario
from .levelk import (PriorPolicy, QPolicy, TrainConfig, build_hierarchy,
                     check_fields, evaluate, evaluate_matches, field_fault,
                     field_types)
from .scenario import (ATTACKER, DEFENDER, GridParams, NativeBattle,
                       level0_policies, simulate)

MANIFEST_VERSION = 2
POLICY_FORMAT_VERSION = 2

TRACE_COLUMNS = ("t", "V1", "V2", "V3", "p2", "q2", "q3", "P1", "Q1",
                 "R_D", "R_A", "metric_D", "metric_A")

# rng stream tags, one per command kind
_TRAIN_TAG, _SWEEP_TAG, _EVAL_TAG, _TRACE_TAG = 101, 102, 103, 104


@dataclass(frozen=True)
class ExperimentConfig:
    """Builds every cell's grid, so a grid that can overflow fails at load.
    `grid` is built first, at q3_max 1.0, which alone may refuse it."""

    grid: GridParams
    train: TrainConfig
    defender_optimistic_bias: float = 0.0
    attacker_optimistic_bias: float = 2.0
    k_max: int = 2
    q3max_values: tuple[float, ...] = (0.2, 0.7, 1.2, 1.6)
    pairings: tuple[tuple[int, int], ...] = ((0, 0),)
    eval_episodes: int = 50
    horizon: int = scenario.DEFAULT_HORIZON
    seeds: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        check_fields(self)
        for section, key in _SET_ELSEWHERE:
            part = getattr(self, section)
            if getattr(part, key) != getattr(type(part), key):  # the default
                raise _set_elsewhere(section, key)
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")
        if not self.q3max_values:
            raise ValueError("q3max_values must list at least one value")
        if not all(q > 0 for q in self.q3max_values):
            raise ValueError("q3max_values must all be > 0")
        for q in self.q3max_values:  # each cell's grid, refused if it overflows
            cell_grid(self, q)
        # Each q3_max value keys its cells' RNG streams and, through the q3
        # part of every output file name, their files; neither may be shared.
        first: dict[tuple[str, Any], float] = {}
        for q in self.q3max_values:
            for key in (("RNG stream", _q3_key(q)),
                        ("file name", policy_filename("", 0, q, 0))):
                if key in first:
                    raise ValueError(
                        f"q3max_values {first[key]!r} and {q!r} map to the "
                        f"same {key[0]}")
                first[key] = q
        for i, (d_level, a_level) in enumerate(self.pairings):
            if not (0 <= d_level <= self.k_max and 0 <= a_level <= self.k_max):
                raise ValueError(
                    f"pairing ({d_level},{a_level}) exceeds k_max={self.k_max}")
            if (d_level, a_level) in self.pairings[:i]:
                raise ValueError(
                    f"pairing ({d_level},{a_level}) is listed more than once")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if any(s < 0 for s in self.seeds):
            raise ValueError(f"seeds must be >= 0, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

def _tuples(value: Any) -> Any:
    """A JSON value with every list, however deep, turned into a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


# Fields that a config section must not set, because another key sets them,
# with where their value comes from.  `config_from_dict` refuses them,
# `ExperimentConfig` refuses any value but the class default, and
# `config_to_dict` leaves them out.
_SET_ELSEWHERE = {
    ("grid", "q3_max"): "per cell; use 'experiment.q3max_values'",
    ("train", "optimistic_bias"): (
        "per player; use 'experiment.defender_optimistic_bias' and "
        "'experiment.attacker_optimistic_bias'"),
}


def _set_elsewhere(section: str, key: str) -> ValueError:
    return ValueError(f"'{section}.{key}' is set {_SET_ELSEWHERE[section, key]}")


def _build_from_dict(cls, data: Any, context: str, **fixed):
    """`cls` built from one config section, with the fields in `fixed` given
    by the caller rather than the section."""
    if not isinstance(data, Mapping):
        raise ValueError(f"'{context}' must be a JSON object, got {data!r}")
    for key in data:
        if (context, key) in _SET_ELSEWHERE:
            raise _set_elsewhere(context, key)
    hints = field_types(cls)
    unknown = set(data) - set(hints) - set(fixed)
    if unknown:
        raise ValueError(
            f"unknown key(s) in '{context}': {', '.join(sorted(unknown))}")
    kwargs = {key: _tuples(value) for key, value in data.items()}
    for key, value in data.items():
        fault = field_fault(hints[key], kwargs[key])
        if fault is not None:
            raise ValueError(f"'{context}.{key}' {fault}, got {value!r}")
    return cls(**kwargs, **fixed)


def config_from_dict(data: Any) -> ExperimentConfig:
    if not isinstance(data, Mapping):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    unknown = set(data) - {"grid", "train", "experiment"}
    if unknown:
        raise ValueError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    grid = _build_from_dict(GridParams, data.get("grid", {}), "grid")
    train = _build_from_dict(TrainConfig, data.get("train", {}), "train")
    return _build_from_dict(ExperimentConfig, data.get("experiment", {}),
                            "experiment", grid=grid, train=train)


class _DuplicateKey(ValueError):
    pass


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a repeated key is an error rather
    than the last value silently winning."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise _DuplicateKey(key)
        data[key] = value
    return data


def _read_json(path: str | os.PathLike, kind: str) -> object:
    """The JSON document in the `kind` file at `path`; a ValueError naming
    the file if Python cannot parse it or an object in it repeats a key."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except _DuplicateKey as exc:
            raise ValueError(
                f"{kind} file {path} holds duplicate key '{exc}'") from None
        # also a bad UTF-8 byte, a huge integer or nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{kind} file {path} is not valid JSON: {exc}") from None


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))


def config_to_dict(config: ExperimentConfig) -> dict:
    """Full config, defaults included, as a JSON-serializable dict that
    `config_from_dict` accepts: keys set elsewhere are left out."""
    data = json.loads(json.dumps(dataclasses.asdict(config)))  # tuples to lists
    sections = {"grid": data.pop("grid"), "train": data.pop("train"),
                "experiment": data}
    for section, key in _SET_ELSEWHERE:
        del sections[section][key]
    return sections


def player_train_configs(config: ExperimentConfig) -> dict[str, TrainConfig]:
    """Per-player training configs with each player's optimistic start.  The
    defender's default, 0, is the top of its single-step reward range (its
    rewards are <= 0); the attacker's, 2, is twice the top of its range
    {0, 1} (see `scenario.attacker_reward`).  Seeding the attacker at the
    discounted-sum ceiling instead drowns the sparse TD signal and stalls
    learning."""
    return {
        DEFENDER: replace(config.train,
                          optimistic_bias=config.defender_optimistic_bias),
        ATTACKER: replace(config.train,
                          optimistic_bias=config.attacker_optimistic_bias),
    }


# ---------------------------------------------------------------------------
# Deterministic per-cell randomness
# ---------------------------------------------------------------------------

def _q3_key(q3_max: float) -> int:
    return int(round(q3_max * 10 ** 6))


def cell_rng(seed: int, tag: int, *coords: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(tag)] + [int(c) for c in coords])


def cell_grid(config: ExperimentConfig, q3_max: float) -> GridParams:
    """The grid that every command plays in a cell at `q3_max`."""
    return replace(config.grid, q3_max=q3_max)


# ---------------------------------------------------------------------------
# Policy persistence
# ---------------------------------------------------------------------------

def policy_filename(player: str, level: int, q3_max: float, seed: int) -> str:
    return f"{player}_L{level}_q{q3_max:g}_s{seed}.json"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write `text` to a temp file of its own beside `path`, then rename it
    over `path`; on failure the temp file is removed and `path` untouched.

    The temp file is created exclusively under the process umask, which
    `tempfile.mkstemp` would override with mode 0600 for every output.
    """
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_policy(path: Path, policy: QPolicy, player: str, level: int,
                q3_max: float, seed: int, train: TrainConfig) -> None:
    payload = {
        "format_version": POLICY_FORMAT_VERSION,
        "player": player,
        "level": level,
        "q3_max": q3_max,
        "seed": seed,
        "train_config": dataclasses.asdict(train),
        "network": neural.network_to_dict(policy.params),
    }
    _atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1))


def load_policy(path: Path, grid: GridParams, player: str, level: int,
                seed: int) -> QPolicy:
    """The greedy policy stored at `path`, which must be `player`'s at
    `level` in the cell of `grid.q3_max` and `seed`: the file's `player`,
    `level`, `q3_max` and `seed` must say so.  `train_config` is provenance."""
    payload = _read_json(path, "policy")
    if not isinstance(payload, dict):
        raise ValueError(f"policy file {path} does not hold a JSON object")
    version = payload.get("format_version")  # the JSON integer: 2.0 == 2
    if type(version) is not int or version != POLICY_FORMAT_VERSION:
        raise ValueError(f"unsupported policy format version {version!r} in {path}")
    cell = {"player": player, "level": level, "q3_max": grid.q3_max, "seed": seed}
    missing = {*cell, "network"} - payload.keys()
    if missing:
        raise ValueError(f"policy file {path} lacks {', '.join(sorted(missing))}")
    # each of its JSON type too: true and 1.0 both equal a level 1
    kinds = dict(player=(str,), level=(int,), q3_max=(int, float), seed=(int,))
    for key, wanted in cell.items():
        if payload[key] != wanted or type(payload[key]) not in kinds[key]:
            raise ValueError(f"policy file {path} holds {key} {payload[key]!r}, "
                             f"not the {wanted!r} asked for")
    prior = level0_policies(grid)[player]
    try:
        params = neural.network_from_dict(payload["network"])
    except (TypeError, ValueError) as exc:  # TypeError: a non-numeric entry
        raise ValueError(f"policy file {path}: {exc}") from exc
    spec = params.spec
    if (spec.input_dim, spec.output_dim) != (prior.feature_dim, prior.action_count):
        raise ValueError(
            f"{path} holds a {spec.input_dim}->{spec.output_dim} network; a "
            f"{player} policy needs {prior.feature_dim}->{prior.action_count}")
    return QPolicy(params, prior.encoder)


def resolve_policy(config: ExperimentConfig, out_dir: Path, player: str,
                   level: int, q3_max: float, seed: int) -> PriorPolicy | QPolicy:
    if not 0 <= level <= config.k_max:
        raise ValueError(f"{player} level {level} is outside 0..k_max="
                         f"{config.k_max}")
    grid = cell_grid(config, q3_max)
    if level == 0:
        return level0_policies(grid)[player]
    path = out_dir / policy_filename(player, level, q3_max, seed)
    if not path.exists():
        raise FileNotFoundError(
            f"no trained policy for {player} level {level} at q3_max={q3_max:g}, "
            f"seed={seed}: expected {path}; run 'train' first")
    return load_policy(path, grid, player, level, seed)


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def write_csv(path: Path, columns: Sequence[str],
              rows: Sequence[Sequence[Any]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _atomic_write_text(path, buffer.getvalue())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

class SweepRecord(NamedTuple):
    q3_max: float
    defender_level: int
    attacker_level: int
    seed: int
    defender_avg_reward_per_step: float
    attacker_avg_reward_per_step: float
    eval_episodes: int
    horizon: int


SWEEP_COLUMNS = SweepRecord._fields


def _selected(values: Sequence, chosen, option: str) -> list:
    """All of `values`, or only `chosen`, which `option` picked from them."""
    if chosen is None:
        return list(values)
    if chosen in values:
        return [chosen]
    raise ValueError(
        f"{option} {chosen!r} is not one of the configured values {values}")


def worker_count(jobs: int | None, units: int) -> int:
    """Worker processes for `units` independent work units: `jobs`, by
    default the CPUs this process may use, capped at those CPUs and at
    `units`; 1 where processes cannot fork."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not hasattr(os, "fork"):  # the workers are forked
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(cpus if jobs is None else jobs, cpus, units)


@contextlib.contextmanager
def _in_order(unit_fn, config: ExperimentConfig, out_dir: Path,
              units: list, workers: int):
    """`unit_fn(config, out_dir, unit)` for each (q3_max, seed, ...) cell in
    `units`, yielded (or raised) in the order of `units` however many
    workers run them.

    Worker k is a child forked at once from the loaded modules (the program
    starts no threads of its own that a fork could break).  It runs
    `units[k::workers]`, cells being of one size, and pickles each result,
    or the exception it raised, down a pipe of its own; the calling process
    runs no unit.  A worker that ends before a cell's result is a
    ChildProcessError naming the cell.  On the way out, every worker still
    running is killed, and every one is reaped."""
    work = functools.partial(unit_fn, config, out_dir)
    if workers == 1:
        yield map(work, units)
        return
    import signal  # here, not at the top: importing it slows every start-up
    children: list[tuple[int, typing.BinaryIO]] = []  # (pid, its pipe's read end)
    try:
        for k in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _run_in_child(work, units[k::workers], write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        yield (_result(children[i % workers][1], unit)
               for i, unit in enumerate(units))
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_in_child(work, units: list, write: int) -> typing.NoReturn:
    """A forked worker's whole life: each unit's (True, result) or (False,
    exception) pickled to the pipe `write`, then exit, without returning
    into the caller's frames or running its clean-up."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            for unit in units:
                try:
                    outcome = (True, work(unit))
                except Exception as exc:
                    outcome = (False, exc)
                pipe.write(pickle.dumps(outcome))  # whole, or not at all
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _result(pipe: typing.BinaryIO, cell: tuple) -> Any:
    """The next result that a worker sends down `pipe`, which is `cell`'s,
    or the exception that the cell raised, raised again."""
    try:
        ok, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(
            f"the worker process for the cell at q3_max={cell[0]:g} "
            f"seed={cell[1]} ended without its result") from None
    if not ok:
        raise value
    return value


def _train_cell(config: ExperimentConfig, out_dir: Path,
                cell: tuple[float, int]) -> tuple[list[str], str | None]:
    """Train one (q3_max, seed) cell's hierarchy and save its policies.
    Returns (written policy files, the cell's training failure or None)."""
    q3, s = cell
    grid = cell_grid(config, q3)
    train_cfgs = player_train_configs(config)
    rng = cell_rng(s, _TRAIN_TAG, _q3_key(q3))
    try:
        hierarchy = build_hierarchy(NativeBattle(grid, config.horizon),
                                    level0_policies(grid), config.k_max,
                                    train_cfgs, rng)
    except Exception as exc:  # report the cell, keep training the others
        return [], f"q3_max={q3:g} seed={s}: {exc}"
    written = []
    for player in (DEFENDER, ATTACKER):
        for level in range(1, config.k_max + 1):
            name = policy_filename(player, level, q3, s)
            save_policy(out_dir / name, hierarchy.policy(player, level),
                        player, level, q3, s, train_cfgs[player])
            written.append(name)
    return written, None


def run_train(config: ExperimentConfig, out_dir: Path,
              q3_max: float | None = None, seed: int | None = None,
              jobs: int | None = None) -> tuple[list[str], list[str]]:
    """Build level hierarchies for every (q3_max, seed) cell on `jobs`
    workers (see `worker_count`) and persist every trained policy.  Returns
    (written policy files, per-cell failures); failures do not stop the
    remaining cells.  manifest.json, written once as the cells end (done,
    raised, a worker dead or interrupted), lists the cells finished; an
    earlier run's is removed first, so a run killed outright leaves none."""
    cells = [(q3, s) for q3 in _selected(config.q3max_values, q3_max, "--q3max")
             for s in _selected(config.seeds, seed, "--seed")]
    workers = worker_count(jobs, len(cells))
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    failures: list[str] = []
    manifest = {"format_version": MANIFEST_VERSION,
                "config": config_to_dict(config),
                "policies": written, "failures": failures}
    path = out_dir / "manifest.json"
    path.unlink(missing_ok=True)
    try:
        with _in_order(_train_cell, config, out_dir, cells, workers) as results:
            for names, failure in results:
                written += names
                if failure is not None:
                    failures.append(failure)
    finally:
        _atomic_write_text(path, json.dumps(manifest, sort_keys=True, indent=1))
    return written, failures


def _sweep_cell(config: ExperimentConfig, out_dir: Path,
                cell: tuple[float, int, tuple[tuple[int, int], ...]],
                ) -> list[SweepRecord] | list[ValueError | OSError | None]:
    """Score the pairings of one (q3_max, seed) cell in one lockstep,
    loading each (player, level) policy once; each pairing keeps the rng
    stream of its row.  If some pairing's policies fail to load, nothing is
    played, and each pairing gives its error or None."""
    q3, s, pairings = cell
    load = functools.cache(lambda player, level: resolve_policy(
        config, out_dir, player, level, q3, s))
    resolved: list = []
    for d_level, a_level in pairings:
        try:
            resolved.append({DEFENDER: load(DEFENDER, d_level),
                             ATTACKER: load(ATTACKER, a_level)})
        except (ValueError, OSError) as exc:
            resolved.append(exc)
    if any(isinstance(policies, Exception) for policies in resolved):
        return [error if isinstance(error, Exception) else None
                for error in resolved]
    reports = evaluate_matches(
        NativeBattle(cell_grid(config, q3), config.horizon),
        [(policies, config.eval_episodes,
          cell_rng(s, _SWEEP_TAG, _q3_key(q3), d_level, a_level))
         for (d_level, a_level), policies in zip(pairings, resolved)])
    return [SweepRecord(q3, d_level, a_level, s,
                        report.mean_reward_per_step[DEFENDER],
                        report.mean_reward_per_step[ATTACKER],
                        config.eval_episodes, config.horizon)
            for (d_level, a_level), report in zip(pairings, reports)]


def run_sweep(config: ExperimentConfig, out_dir: Path,
              q3_max: float | None = None, seed: int | None = None,
              defender_level: int | None = None,
              attacker_level: int | None = None,
              jobs: int | None = None) -> list[SweepRecord]:
    """Evaluate every configured pairing at every q3_max and seed, one
    (q3_max, seed) cell per work unit on `jobs` workers (see
    `worker_count`); write sweep.csv, or raise the error of the first row,
    in config order, whose policies fail to load."""
    pairings = tuple((d, a) for d, a in config.pairings
                     if (defender_level is None or d == defender_level)
                     and (attacker_level is None or a == attacker_level))
    if not config.pairings:  # both refused before anything is written
        raise ValueError("the config lists no pairings to sweep")
    if not pairings:
        raise ValueError(f"no configured pairing {list(config.pairings)} matches "
                         f"the level filter defender={defender_level}, "
                         f"attacker={attacker_level}")
    q3s = _selected(config.q3max_values, q3_max, "--q3max")
    seeds = _selected(config.seeds, seed, "--seed")
    cells = [(q3, s, pairings) for q3 in q3s for s in seeds]
    workers = worker_count(jobs, len(cells))
    out_dir.mkdir(parents=True, exist_ok=True)
    with _in_order(_sweep_cell, config, out_dir, cells, workers) as results:
        by_cell = dict(zip(((q3, s) for q3, s, _ in cells), results))
    # rows in config order: q3_max, then pairing, then seed; a cell that
    # gives None for a row gives an error for some row
    records = [by_cell[q3, s][i] for q3 in q3s for i in range(len(pairings))
               for s in seeds]
    for record in records:
        if isinstance(record, Exception):
            raise record
    write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, records)
    return records


def _pairing(config: ExperimentConfig, out_dir: Path, defender_level: int,
             attacker_level: int, q3_max: float | None, seed: int | None,
             tag: int) -> tuple:
    """One pairing at a configured q3_max and seed (by default the first):
    those two, the cell's grid, the defender's and then the attacker's
    policy, and the cell rng of `tag`; `out_dir` is made only once both
    policies resolve."""
    q3_max = _selected(config.q3max_values, q3_max, "--q3max")[0]
    seed = _selected(config.seeds, seed, "--seed")[0]
    grid = cell_grid(config, q3_max)
    policies = {player: resolve_policy(config, out_dir, player, level, q3_max, seed)
                for player, level in ((DEFENDER, defender_level),
                                      (ATTACKER, attacker_level))}
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = cell_rng(seed, tag, _q3_key(q3_max), defender_level, attacker_level)
    return q3_max, seed, grid, policies, rng


def run_eval(config: ExperimentConfig, out_dir: Path, defender_level: int,
             attacker_level: int, q3_max: float,
             seed: int | None = None) -> dict:
    """Evaluate one pairing at a configured q3_max and seed (by default the
    first); write a per-episode CSV and return the summary."""
    q3_max, seed, grid, policies, rng = _pairing(
        config, out_dir, defender_level, attacker_level, q3_max, seed, _EVAL_TAG)
    report = evaluate(NativeBattle(grid, config.horizon), policies,
                      config.eval_episodes, rng)
    name = f"eval_D{defender_level}A{attacker_level}_q{q3_max:g}_s{seed}.csv"
    rows = [(i, d, a) for i, (d, a) in enumerate(
        zip(report.per_episode[DEFENDER], report.per_episode[ATTACKER]), start=1)]
    write_csv(out_dir / name,
              ("episode", "defender_reward_per_step", "attacker_reward_per_step"),
              rows)
    return {
        "defender_avg_reward_per_step": report.mean_reward_per_step[DEFENDER],
        "attacker_avg_reward_per_step": report.mean_reward_per_step[ATTACKER],
        "defender_std": report.std(DEFENDER),
        "attacker_std": report.std(ATTACKER),
        "episodes": config.eval_episodes,
        "seed": seed,
        "csv": name,
    }


def run_trace(config: ExperimentConfig, out_dir: Path, defender_level: int,
              attacker_level: int, q3_max: float,
              seed: int | None = None) -> Path:
    """One greedy rollout at a configured q3_max and seed (by default the
    first); write the step-by-step trace CSV."""
    q3_max, seed, grid, policies, rng = _pairing(
        config, out_dir, defender_level, attacker_level, q3_max, seed, _TRACE_TAG)
    records = simulate(grid, policies, config.horizon, rng)
    rows = []
    for rec in records:
        s = rec.state
        rows.append((rec.t, s.V1, s.V2, s.V3, s.p2, s.q2, s.q3, s.P1, s.Q1,
                     rec.defender_reward, rec.attacker_reward,
                     rec.defender_memory.metric, float(rec.attacker_memory.metric)))
    path = out_dir / (f"trace_D{defender_level}A{attacker_level}"
                      f"_q{q3_max:g}_s{seed}.csv")
    write_csv(path, TRACE_COLUMNS, rows)
    return path
