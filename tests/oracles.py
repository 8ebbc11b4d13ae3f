"""Reference implementations that only the tests use.

Each one is written from the definition rather than for speed, so the
tests can hold the program's incremental or shortcut versions against it:
the windowed memory metrics against the rolling memories, the grid scan of
the level-0 attacker against its two-end shortcut, and so on.
"""

import math

import numpy as np

from gridgame.netform import rollout
from gridgame.scenario import (ACTION_DOWN, ACTION_HOLD, ACTION_UP,
                               ATTACKER_ACTIONS, AttackerMemory,
                               DefenderMemory, GridParams, GridState,
                               advance_state, apply_defender_action,
                               as_netform, attacker_levels,
                               attacker_observation, attacker_reward,
                               defender_observation, defender_reward,
                               level0_policies, step_attacker_memory,
                               step_defender_memory)


def defender_move_domain(v1: float, params: GridParams) -> tuple[float, ...]:
    """Reachable V1 values, ascending, duplicates collapsed at the limits."""
    values = {apply_defender_action(v1, a, params)
              for a in (ACTION_DOWN, ACTION_HOLD, ACTION_UP)}
    return tuple(sorted(values))


def _sign(x: float) -> float:
    return 1.0 if x > 0 else -1.0 if x < 0 else 0.0


def _windowed_terms(length: int, memory_window: int, term_at) -> list[float]:
    first = max(1, length - 1 - memory_window)
    return [term_at(i) for i in range(first, length)]


def defender_memory_metric(v1_history, v3_history, memory_window: int) -> float:
    """Windowed correlation of V1 moves against V3 moves, in [-1, 1].

    Histories are aligned samples ending at the current step; each of the
    m+1 window terms is sign(dV1)*sign(dV3) for one step, terms that reach
    before the start of the history contribute 0, and the sum is always
    divided by m+1.
    """
    if len(v1_history) != len(v3_history):
        raise ValueError("histories must be aligned")
    terms = _windowed_terms(
        len(v1_history), memory_window,
        lambda i: _sign(v1_history[i] - v1_history[i - 1])
        * _sign(v3_history[i] - v3_history[i - 1]))
    return sum(terms) / (memory_window + 1)


def attacker_memory_metric(v3_history, q3_history, params: GridParams) -> int:
    """Windowed count of V3 moves unexplained by the attacker's own q3 moves.

    A step contributes sign(floor((dV3 - dq3 * x2 / v0) / tap_step)).
    Integer-valued, |metric| <= m+1.
    """
    if len(v3_history) != len(q3_history):
        raise ValueError("histories must be aligned")

    def term(i):
        residual = (v3_history[i] - v3_history[i - 1]) \
            - (q3_history[i] - q3_history[i - 1]) * params.x2 / params.v0
        return _sign(math.floor(residual / params.tap_step))

    return int(sum(_windowed_terms(len(v3_history), params.memory_window, term)))


def transition(state: GridState, memories: tuple[DefenderMemory, AttackerMemory],
               defender_action: int, attacker_action: int,
               rng: np.random.Generator, params: GridParams,
               ) -> tuple[GridState, tuple[DefenderMemory, AttackerMemory],
                          tuple[float, float]]:
    """One step of the battle from the net's node functions: apply both
    actions, redraw the load, run the power flow, advance both memories, and
    score the resulting state."""
    state_next = advance_state(state, defender_action, attacker_action, rng, params)
    d_mem = step_defender_memory(memories[0], defender_observation(state_next),
                                 defender_action, params)
    a_mem = step_attacker_memory(memories[1], attacker_observation(state_next),
                                 attacker_action, params)
    rewards = (defender_reward(state_next.V2, state_next.V3, params),
               attacker_reward(state_next.V2, params))
    return state_next, (d_mem, a_mem), rewards


def scan_level0_attacker(v2: float, q3_current: float, params: GridParams) -> int:
    """`scenario.level0_attacker` by a scan of the whole grid: the projected
    deviation of every level, the first maximum, the nearest level found by a
    scan as well."""
    levels = attacker_levels(params)
    current_index = min(range(ATTACKER_ACTIONS),
                        key=lambda k: abs(levels[k] - q3_current))
    deviations = [abs(v2 + params.x1 * (q - q3_current) - 1.0) for q in levels]
    # max over a range keeps the first argmax, pinning exact ties.
    best_index = max(range(ATTACKER_ACTIONS), key=lambda k: deviations[k])
    if deviations[best_index] > params.strike_threshold:
        return best_index
    if v2 < 1.0:
        return min(current_index + 1, ATTACKER_ACTIONS - 1)
    return max(current_index - 1, 0)


def params_equal(a, b) -> bool:
    """Bitwise equality of two `neural.NetworkParams`."""
    return a.n_layers == b.n_layers and all(
        np.array_equal(x, y)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases))


def assert_draws_nothing(policy, grid: GridParams, player: str,
                         seed: int = 0) -> None:
    """Call `policy` at every decision `player` meets in three 30-step
    level-0 rollouts of `grid` and check that it never touches the rng."""
    level0s = level0_policies(grid)
    inputs = []

    def recorder(parents, rng):
        inputs.append(dict(parents))
        return level0s[player](parents, rng)

    game = as_netform(grid, 30)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        rollout(game, {**level0s, player: recorder}, rng)
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    for parents in inputs:
        policy(parents, rng)
    assert rng.bit_generator.state == state
    assert len(inputs) == 90


def n_params(spec) -> int:
    """Length of the flat parameter vector of a `neural.NetworkSpec`."""
    dims = spec.layer_dims
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


# The feature encoders' affine normalizations, one function per feature kind;
# `scenario.encode_*_features` compute them inline.

def norm_voltage(v: float) -> float:
    return (v - 1.0) / 0.1


def norm_flow(v: float) -> float:
    return v / 2.0


def norm_action(index: float, count: int) -> float:
    half = (count - 1) / 2.0
    return (index - half) / half if half > 0 else 0.0
