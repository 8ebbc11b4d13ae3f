"""Three-node distribution-feeder battle between a SCADA operator and an
attacker who controls the reactive injection of a compromised generator.

Physics is the linearized radial power flow (LinDistFlow): with per-unit
injections (p2, q2) at the load node and (p3, q3) at the generator node,

    P2 = -p3          Q2 = -q3
    P1 = P2 + p2      Q1 = Q2 + q2
    V2 = V1 - (r1*P1 + x1*Q1)
    V3 = V2 - (r2*P2 + x2*Q2)

The defender steps the substation voltage V1 up or down by one transformer
tap per move (clamped to hardware limits); the attacker picks q3 from an
11-point grid spanning [-q3_max, +q3_max].  The defender is rewarded for
keeping V2 and V3 near 1.0; the attacker scores whenever V2 leaves the
acceptable band.  Each player also keeps a scalar memory metric summarizing
a window of recent observations.

Every operation here is a pure function of its inputs plus an explicit
numpy Generator, so episodes parallelize with independent generators.
`NativeBattle.play` plays a batch of greedy episodes side by side, as
arrays with one entry per episode, with the bits of `simulate`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import netform, neural
from .levelk import Match, PriorPolicy, QPolicy
from .netform import (FiniteDiscrete, IteratedGame, RealVector, Record,
                      SemiBayesNet, boundary_kernel, chance, constant_kernel,
                      decision)

DEFENDER = "defender"
ATTACKER = "attacker"

ACTION_DOWN, ACTION_HOLD, ACTION_UP = 0, 1, 2
DEFENDER_ACTIONS = 3
ATTACKER_ACTIONS = 11
# each player's decision space, in the net and in the native loop alike
DEFENDER_ACTION_SPACE = FiniteDiscrete(DEFENDER_ACTIONS)
ATTACKER_ACTION_SPACE = FiniteDiscrete(ATTACKER_ACTIONS)

DEFAULT_HORIZON = 100


@dataclass(frozen=True)
class GridParams:
    """Circuit constants, player limits, and scenario defaults (per-unit);
    constants that could overflow some step of some episode are refused."""

    r1: float = 0.03
    r2: float = 0.03
    x1: float = 0.03
    x2: float = 0.03
    v0: float = 1.0                      # nominal voltage base
    tap_step: float = 0.02               # transformer voltage increment
    v1_min: float = 0.90
    v1_max: float = 1.10
    band_halfwidth: float = 0.05         # half width of the good-voltage band
    strike_threshold: float = 0.07       # projected |V2 - 1| that triggers a strike
    q3_max: float = 1.0
    p3: float = 1.0
    p2_range: tuple[float, float] = (1.35, 1.5)
    q2_factor: float = 0.5
    memory_window: int = 5               # m: metrics sum over the last m+1 steps
    v1_start: float = 1.0
    defender_start_action: int = ACTION_HOLD
    attacker_start_action: int = 5       # grid midpoint, q3 = 0

    def __post_init__(self):
        for field in fields(self):  # annotations are strings in this module
            value = getattr(self, field.name)
            # compared, not converted: converting an int beyond the float
            # range raises OverflowError, and NaN fails both bounds
            if field.type == "float" and \
                    not -sys.float_info.max <= value <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite, got {value}")
        if not isinstance(self.p2_range, tuple) or len(self.p2_range) != 2 or \
                not all(isinstance(p, (int, float)) for p in self.p2_range):
            raise ValueError(f"p2_range must be a tuple of two numbers: {self.p2_range!r}")
        # a non-finite entry, or two too far apart, make the width non-finite;
        # each is compared before the subtraction, which would convert it
        lo, hi = self.p2_range
        if not all(-sys.float_info.max <= p <= sys.float_info.max
                   for p in (lo, hi)) or \
                not -sys.float_info.max <= hi - lo <= sys.float_info.max:
            raise ValueError(f"p2_range width must be finite, got {self.p2_range}")
        if self.v0 <= 0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if not self.v1_min < self.v1_max:
            raise ValueError("need v1_min < v1_max")
        if self.tap_step <= 0:
            raise ValueError("tap_step must be > 0")
        if self.band_halfwidth <= 0:
            raise ValueError("band_halfwidth must be > 0")
        if self.strike_threshold <= self.band_halfwidth:
            raise ValueError("strike_threshold must exceed band_halfwidth")
        if self.q3_max < 0:
            raise ValueError(f"q3_max must be >= 0, got {self.q3_max}")
        if self.memory_window < 1:
            raise ValueError("memory_window must be >= 1")
        if not self.p2_range[0] <= self.p2_range[1]:
            raise ValueError("p2_range must be (lo, hi) with lo <= hi")
        if not self.v1_min <= self.v1_start <= self.v1_max:
            raise ValueError("v1_start must lie within [v1_min, v1_max]")
        if not 0 <= self.defender_start_action < DEFENDER_ACTIONS:
            raise ValueError("defender_start_action out of range")
        if not 0 <= self.attacker_start_action < ATTACKER_ACTIONS:
            raise ValueError("attacker_start_action out of range")
        # Over every reachable state |V2 - 1| and |V3 - 1| stay within
        # `deviation`, and the attacker's memory quotient within `taps`.  A
        # reward squares a number below 1e150, so it stays finite, far beyond
        # rounding; so does an attacker level's q3 * (k - 5).  `<` fails NaN.
        p2, p3, q3 = max(map(abs, self.p2_range)), abs(self.p3), self.q3_max
        drop = (abs(self.r1) * (p2 + p3) + abs(self.r2) * p3 + abs(self.x2) * q3
                + abs(self.x1) * (abs(self.q2_factor) * p2 + q3))
        deviation = max(abs(self.v1_min - 1), abs(self.v1_max - 1)) + drop
        taps = (2 * deviation + 2 * q3 * abs(self.x2) / self.v0) / self.tap_step
        bands = deviation / self.band_halfwidth
        if not all(bound < 1e150 for bound in (q3, deviation, bands, taps)):
            raise ValueError(
                f"the grid's constants can overflow the circuit at q3_max={q3:g}: "
                f"|V - 1| may reach {deviation:.3g} ({bands:.3g} band half-widths) "
                f"and the attacker's tap quotient {taps:.3g}; these four must be "
                f"< 1e150")


class GridState(NamedTuple):
    """One time slice of the circuit: injections, substation voltage, and the
    flows/voltages they determine."""

    p2: float
    q2: float
    p3: float
    q3: float
    V1: float
    P2: float
    Q2: float
    P1: float
    Q1: float
    V2: float
    V3: float


def power_flow(p2: float, q2: float, p3: float, q3: float, v1: float,
               params: GridParams) -> GridState:
    """LinDistFlow: the state whose line flows and downstream voltages follow
    from the injections and V1."""
    p_2 = -p3
    q_2 = -q3
    p_1 = p_2 + p2
    q_1 = q_2 + q2
    v2 = v1 - (params.r1 * p_1 + params.x1 * q_1)
    v3 = v2 - (params.r2 * p_2 + params.x2 * q_2)
    return GridState(p2, q2, p3, q3, v1, p_2, q_2, p_1, q_1, v2, v3)


# ---------------------------------------------------------------------------
# Decision domains
# ---------------------------------------------------------------------------

def apply_defender_action(v1: float, action: int, params: GridParams) -> float:
    """Next V1 for Down/Hold/Up, clamped to the transformer limits."""
    if action == ACTION_UP:
        return min(params.v1_max, v1 + params.tap_step)
    if action == ACTION_DOWN:
        return max(params.v1_min, v1 - params.tap_step)
    if action == ACTION_HOLD:
        return v1
    raise ValueError(f"unknown defender action {action}")


def _apply_defender_actions(v1: np.ndarray, actions: np.ndarray,
                            params: GridParams) -> np.ndarray:
    """`apply_defender_action` elementwise over arrays of valid actions."""
    return np.where(actions == ACTION_UP,
                    np.minimum(params.v1_max, v1 + params.tap_step),
                    np.where(actions == ACTION_DOWN,
                             np.maximum(params.v1_min, v1 - params.tap_step), v1))


@cache
def _attacker_levels(q3_max: float) -> tuple[float, ...]:
    return tuple(q3_max * (k - 5) / 5.0 for k in range(ATTACKER_ACTIONS))


def attacker_levels(params: GridParams) -> tuple[float, ...]:
    """Eleven equally spaced q3 settings from -q3_max to +q3_max; the midpoint
    (index 5) is exactly zero."""
    return _attacker_levels(params.q3_max)


# ---------------------------------------------------------------------------
# Rewards
# ---------------------------------------------------------------------------

def defender_reward(v2: float, v3: float, params: GridParams) -> float:
    """Quadratic penalty on both downstream voltage deviations; always <= 0;
    elementwise over arrays too."""
    eps = params.band_halfwidth
    # Numpy's square rounds some x ** 2 other than Python's float pow, which
    # calls libm's `pow`; `np.float_power` calls it too, and
    # `tests/test_scenario.py` checks the equality on the build it runs on.
    square = np.float_power if isinstance(v2, np.ndarray) else pow
    return -square((v2 - 1.0) / eps, 2.0) - square((v3 - 1.0) / eps, 2.0)


def attacker_reward(v2: float, params: GridParams) -> float:
    """1.0 when V2 strictly leaves the good band around 1.0, else 0.0;
    elementwise over an array too."""
    eps = params.band_halfwidth
    return ((v2 > 1.0 + eps) | (v2 < 1.0 - eps)) * 1.0


# ---------------------------------------------------------------------------
# Memories
# ---------------------------------------------------------------------------

def _sign(x: float) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def _attacker_taps(v3_prev, v3_now, q3_prev, q3_now, params: GridParams):
    """(dV3 - dq3 * x2 / v0) / tap_step, elementwise over arrays too."""
    residual = (v3_now - v3_prev) - (q3_now - q3_prev) * params.x2 / params.v0
    return residual / params.tap_step


class DefenderMemory(NamedTuple):
    """Observation (V1, V2, V3, P1, Q1), previous action, and the window
    terms the metric sums.  The next step's terms compare its observation
    with this one's v1 and v3."""

    v1: float
    v2: float
    v3: float
    p1: float
    q1: float
    prev_action: int
    terms: tuple[float, ...]

    @property
    def metric(self) -> float:
        return sum(self.terms) / len(self.terms)


class AttackerMemory(NamedTuple):
    """Observation (V2, V3, p3, q3), previous action, and the window terms
    the metric sums; the next step's terms compare against this one's v3
    and q3."""

    v2: float
    v3: float
    p3: float
    q3: float
    prev_action: int
    terms: tuple[float, ...]

    @property
    def metric(self) -> int:
        return int(sum(self.terms))


def initial_defender_memory(obs: tuple[float, ...],
                            params: GridParams) -> DefenderMemory:
    v1, v2, v3, p1, q1 = obs
    return DefenderMemory(v1, v2, v3, p1, q1,
                          prev_action=params.defender_start_action,
                          terms=(0.0,) * (params.memory_window + 1))


def initial_attacker_memory(obs: tuple[float, ...],
                            params: GridParams) -> AttackerMemory:
    v2, v3, p3, q3 = obs
    return AttackerMemory(v2, v3, p3, q3,
                          prev_action=params.attacker_start_action,
                          terms=(0.0,) * (params.memory_window + 1))


def step_defender_memory(mem: DefenderMemory, obs: tuple[float, ...], action: int,
                         params: GridParams) -> DefenderMemory:
    """The window's new term is sign(dV1) * sign(dV3): the defender's metric,
    the mean of its last m+1 terms, is a windowed correlation of V1 moves
    against V3 moves in [-1, 1]."""
    v1, v2, v3, p1, q1 = obs
    term = _sign(v1 - mem.v1) * _sign(v3 - mem.v3)
    return DefenderMemory(v1, v2, v3, p1, q1, action, mem.terms[1:] + (term,))


def step_attacker_memory(mem: AttackerMemory, obs: tuple[float, ...], action: int,
                         params: GridParams) -> AttackerMemory:
    """The window's new term is sign(floor((dV3 - dq3 * x2 / v0) / tap_step)):
    zero when V3 moved roughly as the attacker's own injection change
    predicts, +/-1 when something else (a defender tap, in this circuit)
    shifted it by at least one tap step.  The attacker's metric sums its
    last m+1 terms."""
    v2, v3, p3, q3 = obs
    term = _sign(math.floor(_attacker_taps(mem.v3, v3, mem.q3, q3, params)))
    return AttackerMemory(v2, v3, p3, q3, action, mem.terms[1:] + (term,))


# ---------------------------------------------------------------------------
# Level-0 policies
# ---------------------------------------------------------------------------

def level0_defender(v1: float, v2: float, v3: float, params: GridParams) -> int:
    """Myopic tap control: pick the move whose predicted mean of V2 and V3 is
    closest to 1.0.

    Changing V1 alone shifts V2 and V3 by exactly the same amount (flows do
    not depend on V1), so the one-step prediction is a pure shift.  Ties go to
    the smallest |move|, then to the lower resulting V1.
    """
    best_action = ACTION_DOWN
    best_key = None
    for action in (ACTION_DOWN, ACTION_HOLD, ACTION_UP):
        v1_next = apply_defender_action(v1, action, params)
        shift = v1_next - v1
        deviation = abs((v2 + shift + v3 + shift) / 2.0 - 1.0)
        key = (deviation, abs(shift), v1_next)
        if best_key is None or key < best_key:
            best_key = key
            best_action = action
    return best_action


def level0_attacker(v2: float, q3_current: float, params: GridParams) -> int:
    """Drift-and-strike: creep q3 one grid step per move (up while V2 < 1,
    down otherwise); when some grid setting projects V2 at least
    strike_threshold away from 1.0, jump straight to the most damaging one.

    Projection uses the circuit sensitivity dV2/dq3 = x1.  Drift steps clamp
    at the grid endpoints.
    """
    levels = attacker_levels(params)
    x1 = params.x1

    def deviation(k: int) -> float:
        return abs(v2 + x1 * (levels[k] - q3_current) - 1.0)

    # v2 + x1*(q - q3) - 1 is weakly monotone in the grid index, also in
    # floats (every operation rounds monotonically), so the largest deviation
    # sits at an end.  Ties go to the first grid index reaching it: index 0,
    # or the start of a run of equal values ending at the top.
    low, high = deviation(0), deviation(ATTACKER_ACTIONS - 1)
    if low >= high:
        if low > params.strike_threshold:
            return 0
    elif high > params.strike_threshold:
        best = ATTACKER_ACTIONS - 1
        while best > 0 and deviation(best - 1) == high:
            best -= 1
        return best
    try:
        current_index = levels.index(q3_current)
    except ValueError:  # off the grid: the nearest level, the first on a tie
        current_index = min(range(ATTACKER_ACTIONS),
                            key=lambda k: abs(levels[k] - q3_current))
    if v2 < 1.0:
        return min(current_index + 1, ATTACKER_ACTIONS - 1)
    return max(current_index - 1, 0)


def _level0_defenders(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray,
                      params: GridParams) -> np.ndarray:
    """`level0_defender` elementwise: the same keys, row i for action i,
    sorted stably, so that equal keys keep the first action."""
    v1_next = np.array([np.maximum(params.v1_min, v1 - params.tap_step), v1,
                        np.minimum(params.v1_max, v1 + params.tap_step)])
    shift = v1_next - v1
    deviation = abs((v2 + shift + v3 + shift) / 2.0 - 1.0)
    return np.lexsort((v1_next, abs(shift), deviation), axis=0)[0]


# Row 0 holds the drift down from each grid index, row 1 the drift up.
_DRIFTS = np.array([[max(k - 1, 0) for k in range(ATTACKER_ACTIONS)],
                    [min(k + 1, ATTACKER_ACTIONS - 1) for k in range(ATTACKER_ACTIONS)]])


def _level0_attackers(v2: np.ndarray, q3_current: np.ndarray,
                      params: GridParams) -> np.ndarray:
    """`level0_attacker` elementwise, one row of grid deviations per entry."""
    levels = np.array(attacker_levels(params))
    deviation = abs(v2[:, None] + params.x1 * (levels - q3_current[:, None]) - 1.0)
    # the larger end deviation, and the first grid index reaching it: 0 when
    # the low end reaches it, else the start of the run of equal deviations
    # ending at the top (the deviations fall, then rise)
    peak = np.maximum(deviation[:, 0], deviation[:, -1])
    strike = (deviation == peak[:, None]).argmax(axis=1)
    # the first nearest level, which is the first equal one when there is one
    current_index = abs(levels - q3_current[:, None]).argmin(axis=1)
    drift = _DRIFTS[(v2 < 1.0).view(np.uint8), current_index]
    return np.where(peak > params.strike_threshold, strike, drift)


# ---------------------------------------------------------------------------
# Transition
# ---------------------------------------------------------------------------

def _loaded_state(u, q3, v1, params: GridParams) -> GridState:
    """The state under the load p2 uniform on p2_range from the double `u`,
    with the float operations of `rng.uniform(lo, hi)` (lo + (hi - lo) * u),
    which are the same bits; elementwise over arrays too."""
    lo, hi = params.p2_range
    p2 = lo + (hi - lo) * u
    return power_flow(p2, params.q2_factor * p2, params.p3, q3, v1, params)


def initial_state(params: GridParams, rng: np.random.Generator) -> GridState:
    q3 = attacker_levels(params)[params.attacker_start_action]
    return _loaded_state(rng.random(), q3, params.v1_start, params)


def advance_state(state: GridState, defender_action: int, attacker_action: int,
                  rng: np.random.Generator, params: GridParams) -> GridState:
    v1 = apply_defender_action(state.V1, defender_action, params)
    q3 = attacker_levels(params)[attacker_action]
    return _loaded_state(rng.random(), q3, v1, params)


def transition(state: GridState, memories: tuple[DefenderMemory, AttackerMemory],
               defender_action: int, attacker_action: int,
               rng: np.random.Generator, params: GridParams,
               ) -> tuple[GridState, tuple[DefenderMemory, AttackerMemory],
                          tuple[float, float]]:
    """One step of the battle: apply both actions, redraw the load, run the
    power flow, advance both memories, and score the resulting state."""
    state_next = advance_state(state, defender_action, attacker_action, rng, params)
    d_mem = step_defender_memory(memories[0], defender_observation(state_next),
                                 defender_action, params)
    a_mem = step_attacker_memory(memories[1], attacker_observation(state_next),
                                 attacker_action, params)
    rewards = (defender_reward(state_next.V2, state_next.V3, params),
               attacker_reward(state_next.V2, params))
    return state_next, (d_mem, a_mem), rewards


# ---------------------------------------------------------------------------
# Observations and feature encodings
# ---------------------------------------------------------------------------

def defender_observation(state: GridState) -> tuple[float, ...]:
    """(V1, V2, V3, P1, Q1): the SCADA view."""
    return (state.V1, state.V2, state.V3, state.P1, state.Q1)


def attacker_observation(state: GridState) -> tuple[float, ...]:
    """(V2, V3, p3, q3): what the compromised node reveals."""
    return (state.V2, state.V3, state.p3, state.q3)


# Per-feature affine normalization to roughly [-1, 1]:
#   voltages      (v - 1) / 0.1     (tap range is 1.0 +/- 0.1)
#   flows and p3  v / 2
#   q3            v / q3_max        (0 when q3_max = 0)
#   defender metric  as-is          (already in [-1, 1])
#   attacker metric  v / (m + 1)
#   action index  centered at the midpoint, scaled to +/-1

_DEFENDER_HALF = (DEFENDER_ACTIONS - 1) / 2.0
_ATTACKER_HALF = (ATTACKER_ACTIONS - 1) / 2.0


def _defender_features(mem: DefenderMemory, params: GridParams) -> tuple:
    """The defender's features, elementwise: a memory whose fields are
    arrays gives one array per feature."""
    return ((mem.v1 - 1.0) / 0.1,
            (mem.v2 - 1.0) / 0.1,
            (mem.v3 - 1.0) / 0.1,
            mem.p1 / 2.0,
            mem.q1 / 2.0,
            mem.metric,
            (mem.prev_action - _DEFENDER_HALF) / _DEFENDER_HALF)


def _attacker_features(mem: AttackerMemory, params: GridParams) -> tuple:
    """The attacker's features, elementwise, as `_defender_features`."""
    q3_norm = mem.q3 / params.q3_max if params.q3_max > 0 else 0.0
    return ((mem.v2 - 1.0) / 0.1,
            (mem.v3 - 1.0) / 0.1,
            mem.p3 / 2.0,
            q3_norm,
            # the sum that `metric` is the int of: an integral float, so
            # the same quotient
            sum(mem.terms) / (params.memory_window + 1),
            (mem.prev_action - _ATTACKER_HALF) / _ATTACKER_HALF)


def encode_defender_features(mem: DefenderMemory, params: GridParams) -> np.ndarray:
    return np.array(_defender_features(mem, params))


def encode_attacker_features(mem: AttackerMemory, params: GridParams) -> np.ndarray:
    return np.array(_attacker_features(mem, params))


DEFENDER_FEATURE_DIM = 7
ATTACKER_FEATURE_DIM = 6


def _defender_rule(params: GridParams, parent_values, rng) -> int:
    mem = parent_values[DEFENDER_MEMORY_NODE]
    return level0_defender(mem.v1, mem.v2, mem.v3, params)


def _attacker_rule(params: GridParams, parent_values, rng) -> int:
    mem = parent_values[ATTACKER_MEMORY_NODE]
    return level0_attacker(mem.v2, mem.q3, params)


def _defender_encoder(params: GridParams, parent_values) -> np.ndarray:
    return encode_defender_features(parent_values[DEFENDER_MEMORY_NODE], params)


def _attacker_encoder(params: GridParams, parent_values) -> np.ndarray:
    return encode_attacker_features(parent_values[ATTACKER_MEMORY_NODE], params)


@cache
def level0_policies(params: GridParams) -> Mapping[str, PriorPolicy]:
    """The scenario's priors.  Each also fixes its player's interface for
    every higher level: the action count and the feature encoding of the
    player's memory.  One read-only mapping per grid, so that
    `NativeBattle.play` knows a prior, and a network over its encoder, by
    identity."""
    return MappingProxyType({
        DEFENDER: PriorPolicy(DEFENDER_ACTIONS, DEFENDER_FEATURE_DIM,
                              partial(_defender_encoder, params),
                              partial(_defender_rule, params)),
        ATTACKER: PriorPolicy(ATTACKER_ACTIONS, ATTACKER_FEATURE_DIM,
                              partial(_attacker_encoder, params),
                              partial(_attacker_rule, params)),
    })


# ---------------------------------------------------------------------------
# Net encoding
# ---------------------------------------------------------------------------

STATE_NODE = "state"
DEFENDER_OBS_NODE = "defender_obs"
ATTACKER_OBS_NODE = "attacker_obs"
DEFENDER_MEMORY_NODE = "defender_memory"
ATTACKER_MEMORY_NODE = "attacker_memory"
DEFENDER_ACTION_NODE = "defender_action"
ATTACKER_ACTION_NODE = "attacker_action"


def as_netform(params: GridParams, horizon: int = DEFAULT_HORIZON) -> IteratedGame:
    """The scenario as an iterated semi Bayes net.

    The kernel slice evolves the state from the previous slice's state and
    actions, projects both observations, advances both memories, and exposes
    one decision node per player.  The base slice supplies the initial state,
    empty memories, and the fixed start actions; the binding threads state,
    memories, and actions forward.  Kernels delegate to the same functions the
    native `transition` loop uses, so the two paths match bit for bit.
    """
    state_space = Record(GridState)
    d_mem_space = Record(DefenderMemory)
    a_mem_space = Record(AttackerMemory)
    prev = "_prev"
    # the nodes the binding threads into the next slice, each read there as
    # a root named with `prev`
    glued = ((STATE_NODE, state_space), (DEFENDER_MEMORY_NODE, d_mem_space),
             (ATTACKER_MEMORY_NODE, a_mem_space),
             (DEFENDER_ACTION_NODE, DEFENDER_ACTION_SPACE),
             (ATTACKER_ACTION_NODE, ATTACKER_ACTION_SPACE))

    def state_kernel(parents, rng):
        return advance_state(parents[STATE_NODE + prev],
                             int(parents[DEFENDER_ACTION_NODE + prev]),
                             int(parents[ATTACKER_ACTION_NODE + prev]),
                             rng, params)

    def defender_obs_kernel(parents, rng):
        return defender_observation(parents[STATE_NODE])

    def attacker_obs_kernel(parents, rng):
        return attacker_observation(parents[STATE_NODE])

    def defender_memory_kernel(parents, rng):
        return step_defender_memory(parents[DEFENDER_MEMORY_NODE + prev],
                                    parents[DEFENDER_OBS_NODE],
                                    int(parents[DEFENDER_ACTION_NODE + prev]),
                                    params)

    def attacker_memory_kernel(parents, rng):
        return step_attacker_memory(parents[ATTACKER_MEMORY_NODE + prev],
                                    parents[ATTACKER_OBS_NODE],
                                    int(parents[ATTACKER_ACTION_NODE + prev]),
                                    params)

    kernel = SemiBayesNet([
        *(chance(name + prev, space, boundary_kernel(name + prev))
          for name, space in glued),
        chance(STATE_NODE, state_space, state_kernel,
               parents=(STATE_NODE + prev, DEFENDER_ACTION_NODE + prev,
                        ATTACKER_ACTION_NODE + prev)),
        chance(DEFENDER_OBS_NODE, RealVector(5), defender_obs_kernel,
               parents=(STATE_NODE,)),
        chance(ATTACKER_OBS_NODE, RealVector(4), attacker_obs_kernel,
               parents=(STATE_NODE,)),
        chance(DEFENDER_MEMORY_NODE, d_mem_space, defender_memory_kernel,
               parents=(DEFENDER_OBS_NODE, DEFENDER_MEMORY_NODE + prev,
                        DEFENDER_ACTION_NODE + prev)),
        chance(ATTACKER_MEMORY_NODE, a_mem_space, attacker_memory_kernel,
               parents=(ATTACKER_OBS_NODE, ATTACKER_MEMORY_NODE + prev,
                        ATTACKER_ACTION_NODE + prev)),
        decision(DEFENDER_ACTION_NODE, DEFENDER_ACTION_SPACE, DEFENDER,
                 parents=(DEFENDER_MEMORY_NODE,)),
        decision(ATTACKER_ACTION_NODE, ATTACKER_ACTION_SPACE, ATTACKER,
                 parents=(ATTACKER_MEMORY_NODE,)),
    ])

    def initial_state_kernel(parents, rng):
        return initial_state(params, rng)

    def initial_defender_memory_kernel(parents, rng):
        return initial_defender_memory(
            defender_observation(parents[STATE_NODE]), params)

    def initial_attacker_memory_kernel(parents, rng):
        return initial_attacker_memory(
            attacker_observation(parents[STATE_NODE]), params)

    base = SemiBayesNet([
        chance(STATE_NODE, state_space, initial_state_kernel),
        chance(DEFENDER_MEMORY_NODE, d_mem_space, initial_defender_memory_kernel,
               parents=(STATE_NODE,)),
        chance(ATTACKER_MEMORY_NODE, a_mem_space, initial_attacker_memory_kernel,
               parents=(STATE_NODE,)),
        chance(DEFENDER_ACTION_NODE, DEFENDER_ACTION_SPACE,
               constant_kernel(params.defender_start_action)),
        chance(ATTACKER_ACTION_NODE, ATTACKER_ACTION_SPACE,
               constant_kernel(params.attacker_start_action)),
    ])

    binding = {name: name + prev for name, _ in glued}

    rewards = {
        DEFENDER: lambda inst: defender_reward(inst[STATE_NODE].V2,
                                               inst[STATE_NODE].V3, params),
        ATTACKER: lambda inst: attacker_reward(inst[STATE_NODE].V2, params),
    }
    return IteratedGame(base, kernel, binding, horizon, rewards)


# ---------------------------------------------------------------------------
# Native loop
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    t: int
    state: GridState
    defender_memory: DefenderMemory
    attacker_memory: AttackerMemory
    defender_reward: float
    attacker_reward: float


def simulate(params: GridParams, policies: Mapping[str, netform.Policy],
             horizon: int, rng: np.random.Generator) -> list[StepRecord]:
    """Run the battle without the net machinery.

    Policies receive the same parent-value mapping they would see as decision
    nodes, and randomness is consumed in the same order as `netform.rollout`
    on `as_netform`, so seeded trajectories from the two paths are identical.
    Each action is checked against its player's space, as
    `netform.sample_slice` checks it, with a ValueError naming the player.
    """
    d_policy, a_policy = policies[DEFENDER], policies[ATTACKER]
    d_legal = DEFENDER_ACTION_SPACE.contains
    a_legal = ATTACKER_ACTION_SPACE.contains
    state = initial_state(params, rng)
    memories = (initial_defender_memory(defender_observation(state), params),
                initial_attacker_memory(attacker_observation(state), params))
    d_action = params.defender_start_action
    a_action = params.attacker_start_action
    records = []
    for t in range(1, horizon + 1):
        state, memories, rewards = transition(state, memories, d_action,
                                              a_action, rng, params)
        d_action = d_policy({DEFENDER_MEMORY_NODE: memories[0]}, rng)
        if not d_legal(d_action):
            raise ValueError(f"action {d_action!r} for player '{DEFENDER}' is "
                             f"outside its space {DEFENDER_ACTION_SPACE}")
        a_action = a_policy({ATTACKER_MEMORY_NODE: memories[1]}, rng)
        if not a_legal(a_action):
            raise ValueError(f"action {a_action!r} for player '{ATTACKER}' is "
                             f"outside its space {ATTACKER_ACTION_SPACE}")
        d_action, a_action = int(d_action), int(a_action)
        records.append(StepRecord(t, state, memories[0], memories[1],
                                  rewards[0], rewards[1]))
    return records


@dataclass(frozen=True)
class NativeBattle:
    """The battle of `as_netform(params, horizon)` as a `levelk.Game` played
    by `simulate`: the same `horizon`-step episodes, draws and rewards,
    without the net machinery."""

    params: GridParams
    horizon: int
    players = (DEFENDER, ATTACKER)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def play(self, matches: Sequence[Match]) -> list[dict[str, np.ndarray]]:
        """Each match's episodes of `simulate`, one after another: per
        player, an array of the rewards with a row per episode and a column
        per step.  When every player's policy in every match passes
        `_batchable`, the whole call is one `_lockstep`; otherwise every
        episode of every match goes through `simulate`."""
        if matches and all(_batchable(policies[player], player, self.params)
                           for policies, _, _ in matches
                           for player in self.players):
            return _lockstep(self.params, self.horizon, matches)
        played = []
        for policies, episodes, rng in matches:
            rewards = {player: np.empty((episodes, self.horizon))
                       for player in self.players}
            for episode in range(episodes):
                records = simulate(self.params, policies, self.horizon, rng)
                rewards[DEFENDER][episode] = [rec.defender_reward for rec in records]
                rewards[ATTACKER][episode] = [rec.attacker_reward for rec in records]
            played.append(rewards)
        return played


# What only the lockstep has of each player: its level-0 rule over the
# episodes `ix` and its features, over a memory whose fields are arrays with
# one entry per episode.
_BATCHED = {
    DEFENDER: (lambda mem, ix, p: _level0_defenders(mem.v1[ix], mem.v2[ix],
                                                    mem.v3[ix], p),
               _defender_features),
    ATTACKER: (lambda mem, ix, p: _level0_attackers(mem.v2[ix], mem.q3[ix], p),
               _attacker_features),
}


def _batchable(policy: netform.Policy, player: str, params: GridParams) -> bool:
    """Whether `_lockstep` plays `policy` as `player`: it must be the
    player's prior in `level0_policies(params)` or a `QPolicy` over its
    encoder with its feature width and action count (any other network
    fails in `simulate`)."""
    prior = level0_policies(params)[player]
    return policy is prior or (
        isinstance(policy, QPolicy) and policy.encoder is prior.encoder
        and (policy.params.spec.input_dim, policy.params.spec.output_dim)
        == (prior.feature_dim, prior.action_count))


def _lockstep_decider(params: GridParams, player: str,
                      policies: Sequence[netform.Policy], ends: Sequence[int],
                      ) -> Callable[[NamedTuple], np.ndarray]:
    """`player`'s actions for a memory whose fields are arrays, where
    `policies[i]` decides for the episodes of row i, which end before
    `ends[i]`.  The episodes of one policy object decide together, by the
    prior's batched rule, and the networks of equal layer shapes decide in
    one `neural.GreedyStack`, stacked once: each step gathers their
    episodes' feature columns, padded to the largest group with copies of
    the group's first, into one network × feature × episode array."""
    prior = level0_policies(params)[player]
    rule, features = _BATCHED[player]
    episodes: dict[int, tuple[netform.Policy, list[int]]] = {}
    for policy, start, end in zip(policies, (0, *ends[:-1]), ends):
        episodes.setdefault(id(policy), (policy, []))[1].extend(range(start, end))
    priors, shapes = [], {}
    for policy, ix in episodes.values():
        if not ix:  # the policy of zero-episode matches only
            continue
        if policy is prior:
            priors.append(np.array(ix, dtype=np.intp))
        else:
            shapes.setdefault(policy.params.spec, []).append((policy.params, ix))
    total = ends[-1]
    stacks = []  # (stack, sizes, gather, scatter); a pad scatters to `total`
    for members in shapes.values():
        sizes = [len(ix) for _, ix in members]
        width = max(sizes)
        stacks.append((neural.GreedyStack([net for net, _ in members]), sizes,
                       np.array([ix + ix[:1] * (width - len(ix))
                                 for _, ix in members], dtype=np.intp),
                       np.array([ix + [total] * (width - len(ix))
                                 for _, ix in members], dtype=np.intp)))
    if stacks:
        block = np.empty((prior.feature_dim, total))

    def decide(mem):
        actions = np.empty(total + 1, dtype=np.intp)
        for ix in priors:
            actions[ix] = rule(mem, ix, params)
        if stacks:
            # one row per feature and one column per episode, from features
            # that are arrays or shared scalars; a loop, since
            # `np.stack(np.broadcast_arrays(...))` costs 6x as much
            for j, column in enumerate(features(mem, params)):
                block[j] = column
        for stack, sizes, gather, scatter in stacks:
            # `take` gathers as `block[:, gather]` does, in half the time
            actions[scatter] = stack.greedy(
                block.take(gather, axis=1).transpose(1, 0, 2), sizes)
        return actions[:total]
    return decide


def _lockstep(params: GridParams, horizon: int, matches: Sequence[Match],
              ) -> list[dict[str, np.ndarray]]:
    """The rewards of `simulate`'s `horizon`-step episodes for each match,
    all played side by side, as `NativeBattle.play` gives them.  Each match
    in turn draws from its rng the uniforms `simulate` would draw,
    `1 + horizon` per episode: row e of its loads is episode e's, column 0
    the first load and column t the load of step t.  Every value is an
    array with one entry per episode of every match, computed by
    `simulate`'s functions where their arithmetic is elementwise, the
    rewards' too, and by their twins where a branch is not."""
    loads = np.concatenate([rng.random((episodes, horizon + 1))
                            for _, episodes, rng in matches])
    ends = list(accumulate(episodes for _, episodes, _ in matches))
    episodes = ends[-1]
    deciders = {player: _lockstep_decider(
        params, player, [policies[player] for policies, _, _ in matches], ends)
        for player in (DEFENDER, ATTACKER)}
    levels = np.array(attacker_levels(params))
    d_action = np.full(episodes, params.defender_start_action)
    a_action = np.full(episodes, params.attacker_start_action)
    state = _loaded_state(loads[:, 0], levels[a_action],
                          np.full(episodes, params.v1_start), params)
    d_mem = initial_defender_memory(defender_observation(state), params)
    a_mem = initial_attacker_memory(attacker_observation(state), params)
    v2s, v3s = np.empty((episodes, horizon)), np.empty((episodes, horizon))
    for t in range(1, horizon + 1):
        v1 = _apply_defender_actions(state.V1, d_action, params)
        state = _loaded_state(loads[:, t], levels[a_action], v1, params)
        d_term = np.sign(state.V1 - d_mem.v1) * np.sign(state.V3 - d_mem.v3)
        a_term = np.sign(np.floor(
            _attacker_taps(a_mem.v3, state.V3, a_mem.q3, state.q3, params)))
        d_mem = DefenderMemory(*defender_observation(state), d_action,
                               d_mem.terms[1:] + (d_term,))
        a_mem = AttackerMemory(*attacker_observation(state), a_action,
                               a_mem.terms[1:] + (a_term,))
        v2s[:, t - 1], v3s[:, t - 1] = state.V2, state.V3
        if t < horizon:  # the decisions after the last step act on nothing
            d_action = deciders[DEFENDER](d_mem)
            a_action = deciders[ATTACKER](a_mem)
    d_rewards = defender_reward(v2s, v3s, params)
    a_rewards = attacker_reward(v2s, params)
    return [{DEFENDER: d_rewards[start:end], ATTACKER: a_rewards[start:end]}
            for start, end in zip((0, *ends[:-1]), ends)]
