"""Level-K policy hierarchies trained by one-step, on-policy, semi-batch SARSA.

Each level-k policy is the best response, learned as a single-agent RL
problem, to an environment that contains the opponents frozen at level k-1.
Level-0 policies are scenario-supplied priors.  Training plays episodes of
the game itself with the trainee acting epsilon-greedily; per-episode
transition batches are turned into one averaged TD update against the
pre-update network.  A game is anything with the two members of `Game`:
`netform.IteratedGame`, or `scenario.NativeBattle`, which plays the same
episodes without the net machinery.
"""

from __future__ import annotations

import sys
import typing
from dataclasses import dataclass, is_dataclass
from functools import cache
from itertools import groupby
from typing import Any, Callable, Mapping, Protocol, Sequence

import numpy as np

from . import neural
from .netform import ParentValues, Policy


# One match: each player's policy, and how many episodes to play in a row
# from the rng.
Match = tuple[Mapping[str, Policy], int, np.random.Generator]


class Game(Protocol):
    """What training and scoring read of a game: its players, and, for each
    of a sequence of matches played one after another, one mapping from
    player to the rewards of its episodes, a float array with one row per
    episode and one column per kernel slice.  Each player decides once per
    kernel slice."""

    @property
    def players(self) -> tuple[str, ...]: ...

    def play(self, matches: Sequence[Match]) -> list[Mapping[str, np.ndarray]]: ...


@dataclass(frozen=True)
class PriorPolicy:
    """A level-0 policy: a fixed decision rule plus the player's interface.

    Every level trained on top of this prior decides at the same node, so it
    shares the prior's action count and its encoder, which maps the node's
    parent values to a vector of `feature_dim` features.
    """

    action_count: int
    feature_dim: int
    encoder: Callable[[ParentValues], np.ndarray]
    fn: Policy

    def __call__(self, parent_values: ParentValues, rng: np.random.Generator) -> int:
        return self.fn(parent_values, rng)


@dataclass(frozen=True)
class QPolicy:
    """Greedy policy over a discrete action set backed by a Q network: the
    argmax of the Q-values, ties to the lowest index.  It never draws from
    the rng; exploration exists only inside `train_level`."""

    params: neural.NetworkParams
    encoder: Callable[[ParentValues], np.ndarray]

    def q_values(self, features: np.ndarray) -> np.ndarray:
        return neural.forward(self.params, features)

    def __call__(self, parent_values: ParentValues, rng: np.random.Generator) -> int:
        return int(neural.forward(self.params, self.encoder(parent_values)).argmax())


@cache
def field_types(cls) -> dict[str, Any]:
    """The declared type of each field of the dataclass `cls`; cached, since
    `typing.get_type_hints` evaluates every string annotation."""
    return typing.get_type_hints(cls)


def field_fault(hint: Any, value: Any) -> str | None:
    """Why `value` does not fit a config field declared as `hint`, or None.

    An `int` holds only a Python int: a bool, a float or a numpy integer
    would pass the range checks, then fail late or change meaning.  A
    `float` holds a finite int or float, not a bool.  A `tuple[...]` holds a
    tuple of such entries, of the declared length if one is declared, and a
    config class an instance, which checked itself."""
    if hint is int:
        return None if type(value) is int else "must hold only Python ints"
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return "must be a number"
        # compared, not converted: converting an int beyond the float range
        # raises OverflowError, and NaN fails both bounds
        if not -sys.float_info.max <= value <= sys.float_info.max:
            return "must be finite"
        return None
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, tuple):
            return "must be a tuple"
        args = typing.get_args(hint)
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        elif len(value) != len(args):
            return f"must have {len(args)} entries"
        return next(filter(None, map(field_fault, args, value)), None)
    if is_dataclass(hint):
        return None if isinstance(value, hint) else f"must be a {hint.__name__}"
    raise TypeError(f"no field check for type {hint!r}")


def check_fields(config) -> None:
    """A ValueError naming the first field of the dataclass `config` whose
    value does not fit its declared type (see `field_fault`)."""
    for name, hint in field_types(type(config)).items():
        value = getattr(config, name)
        fault = field_fault(hint, value)
        if fault is not None:
            raise ValueError(f"{name} {fault}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    """SARSA hyperparameters.  Training streams are seeded by the caller's
    rng, so no seed is kept here."""

    episodes: int = 3000
    gamma: float = 0.95
    learning_rate: float = 0.1
    epsilon_start: float = 0.5
    epsilon_end: float = 0.01
    epsilon_decay: float = 0.999
    optimistic_bias: float = 0.0
    init_scale: float = 0.1
    hidden_layers: tuple[int, ...] = (16, 16)

    def __post_init__(self):
        check_fields(self)
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be >= 0, got {self.init_scale}")
        for name in ("epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")
        if not 0.0 <= self.epsilon_decay <= 1.0:
            raise ValueError("epsilon_decay must be in [0, 1]")
        if any(width < 1 for width in self.hidden_layers):
            raise ValueError(
                f"hidden_layers must all be >= 1, got {self.hidden_layers}")


class TrainingDiverged(RuntimeError):
    """Raised when Q-values or parameters stop being finite during training."""


def epsilon_schedule(episode_index: int, config: TrainConfig) -> float:
    """Exponential interpolation from epsilon_start toward epsilon_end."""
    gap = config.epsilon_start - config.epsilon_end
    return config.epsilon_end + gap * config.epsilon_decay ** episode_index


def select_action(params: neural.NetworkParams, epsilon: float,
                  features: np.ndarray, rng: np.random.Generator) -> int:
    """Training's epsilon-greedy step: argmax of the Q-values (ties to the
    lowest index) with probability 1 - epsilon, otherwise uniform over all
    actions.  At epsilon 0 it draws nothing."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(params.biases[-1].size))
    return int(neural.forward(params, features).argmax())


def semi_batch_update(params: neural.NetworkParams, features: np.ndarray,
                      actions: Sequence[int], rewards: Sequence[float],
                      gamma: float, learning_rate: float) -> neural.NetworkParams:
    """One averaged TD update for a whole episode.

    `features` and `actions` hold the episode's n+1 decision points in order
    and `rewards` the n rewards between them: transition i goes from row i to
    row i+1 and earns rewards[i].  Every target r + gamma * Q(s', a') (r alone
    on the last, terminal transition) is computed against the pre-update
    network in one batched forward pass over rows [1:]; the per-transition
    gradients at rows [:-1] come from one batched `td_gradient` call and are
    averaged and applied in a single step.
    """
    n = len(rewards)
    if len(features) != n + 1 or len(actions) != n + 1:
        raise ValueError(f"{len(features)} feature rows and {len(actions)} "
                         f"actions for {n} rewards; need {n + 1} of each")
    if n == 0:
        return params
    actions = np.asarray(actions)
    next_q = neural.forward_batch(params, features[1:])
    targets = np.array(rewards, dtype=float)
    targets[:-1] += gamma * next_q[np.arange(n - 1), actions[1:-1]]
    if not np.isfinite(targets).all():
        bad = targets[~np.isfinite(targets)][0]
        raise TrainingDiverged(f"non-finite TD target {float(bad)!r}")
    total = neural.td_gradient(params, features[:-1], actions[:-1], targets)
    return neural.apply_update(params, total / n, learning_rate)


class RecordingPolicy:
    """The exploring trainee for one episode: plays epsilon-greedy on
    `params` over `encoder`'s features and logs features and action.  A game
    that knows `encoder` may compute the features itself and call `decide`,
    as `scenario.simulate` does."""

    def __init__(self, params: neural.NetworkParams, epsilon: float,
                 encoder: Callable[[ParentValues], np.ndarray]):
        self.params = params
        self.epsilon = epsilon
        self.encoder = encoder
        self.features: list[np.ndarray] = []
        self.actions: list[int] = []

    def decide(self, features: np.ndarray, rng: np.random.Generator) -> int:
        action = select_action(self.params, self.epsilon, features, rng)
        self.features.append(features)
        self.actions.append(action)
        return action

    def __call__(self, parent_values: ParentValues, rng: np.random.Generator) -> int:
        return self.decide(self.encoder(parent_values), rng)


def train_level(game: Game, trainee: str,
                opponents: Mapping[str, Policy],
                level0s: Mapping[str, PriorPolicy],
                config: TrainConfig, rng: np.random.Generator) -> QPolicy:
    """Train one player's next-level policy against frozen opponents.

    The trainee's action set and feature encoding are taken from its level-0
    prior.  Opponent policy objects are consulted but never modified.

    The decision recorded at slice t earns the reward evaluated on slice t+1
    (its consequences land there); the final decision of an episode has no
    in-horizon consequence and only bootstraps the terminal transition.
    """
    prior = level0s[trainee]
    spec = neural.NetworkSpec(prior.feature_dim, config.hidden_layers,
                              prior.action_count)
    params = neural.init(spec, config.init_scale, config.optimistic_bias, rng)
    for episode in range(config.episodes):
        recorder = RecordingPolicy(params, epsilon_schedule(episode, config),
                                   prior.encoder)
        policies: dict[str, Policy] = dict(opponents)
        policies[trainee] = recorder
        rewards = game.play([(policies, 1, rng)])[0][trainee][0]
        if len(recorder.actions) != len(rewards):
            raise ValueError(f"{len(recorder.actions)} decision records for "
                             f"{len(rewards)} slices")
        try:
            params = semi_batch_update(
                params, np.array(recorder.features), recorder.actions,
                rewards[1:], config.gamma, config.learning_rate)
        except (TrainingDiverged, ValueError) as exc:
            raise TrainingDiverged(
                f"training diverged for '{trainee}' at episode {episode}: {exc}"
            ) from exc
        if not params.all_finite():
            raise TrainingDiverged(
                f"training diverged for '{trainee}' at episode {episode}: "
                "non-finite parameters")
    return QPolicy(params, prior.encoder)


@dataclass
class LevelKHierarchy:
    """Per player, the list of policies indexed by level 0..K."""

    levels: dict[str, list[PriorPolicy | QPolicy]]

    def policy(self, player: str, level: int) -> PriorPolicy | QPolicy:
        return self.levels[player][level]

    @property
    def max_level(self) -> int:
        return min(len(v) for v in self.levels.values()) - 1


def build_hierarchy(game: Game,
                    level0s: Mapping[str, PriorPolicy],
                    k_max: int,
                    config: TrainConfig | Mapping[str, TrainConfig],
                    rng: np.random.Generator) -> LevelKHierarchy:
    """Train levels 1..k_max for every player of the game.

    Within a level, players train in the game's player order, each
    against the opponent's stored level k-1 policy; a policy is trained once
    and shared by every higher level that imagines it.  Each run gets its own
    generator seeded from `rng`, so runs at the same level are independent.
    """
    players = game.players
    if isinstance(config, Mapping):
        configs = dict(config)
    else:
        configs = {player: config for player in players}
    levels: dict[str, list[PriorPolicy | QPolicy]] = {
        player: [level0s[player]] for player in players}
    for level in range(1, k_max + 1):
        for player in players:
            opponents = {other: levels[other][level - 1]
                         for other in players if other != player}
            child = np.random.default_rng(int(rng.integers(np.iinfo(np.int64).max)))
            levels[player].append(
                train_level(game, player, opponents, level0s, configs[player], child))
    return LevelKHierarchy(levels)


@dataclass
class EvalReport:
    mean_reward_per_step: dict[str, float]
    per_episode: dict[str, list[float]]

    def std(self, player: str) -> float:
        return float(np.std(self.per_episode[player]))


# The most episodes that scoring asks of one `play` call, which may hold
# them all at once: its memory stays bounded however many episodes it plays.
_PLAY_BLOCK = 1000


def evaluate(game: Game, policies: Mapping[str, Policy],
             episodes: int, rng: np.random.Generator) -> EvalReport:
    """Average reward per step over independent episodes, for every player
    that `game.play` scores; per-episode means are kept for variance
    reporting."""
    return evaluate_matches(game, [(policies, episodes, rng)])[0]


def evaluate_matches(game: Game, matches: Sequence[Match]) -> list[EvalReport]:
    """`evaluate` of each match, the matches played one after another in
    `play` calls of at most `_PLAY_BLOCK` episodes in all, so that a game
    may play the episodes of several matches side by side."""
    if any(episodes < 1 for _, episodes, _ in matches):
        raise ValueError("episodes must be >= 1")
    # each episode's match, cut into blocks; a run of one match in a block
    # is its share of that block's `play` call
    owners = [i for i, (_, episodes, _) in enumerate(matches)
              for _ in range(episodes)]
    per_episode: list[dict[str, list[float]]] = [{} for _ in matches]
    for start in range(0, len(owners), _PLAY_BLOCK):
        shares = [(i, len(list(run))) for i, run in
                  groupby(owners[start:start + _PLAY_BLOCK])]
        played = game.play([(matches[i][0], n, matches[i][2]) for i, n in shares])
        for (i, _), rewards in zip(shares, played):
            for player, values in rewards.items():
                per_episode[i].setdefault(player, []).extend(
                    _means(values).tolist())
    return [EvalReport({player: float(_means(np.array(values)))
                        for player, values in means.items()}, means)
            for means in per_episode]


def _means(values: np.ndarray) -> np.ndarray:
    """The means along the last axis, each summed in order from the first
    entry, as Python 3.11's `sum` adds floats (a later `sum` compensates):
    `cumsum` adds in order, and `+ 0.0` turns a -0.0 sum into `sum`'s 0.0."""
    return (np.cumsum(values, axis=-1)[..., -1] + 0.0) / values.shape[-1]
