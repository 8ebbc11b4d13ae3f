"""Tiny single-player iterated games and tabular oracles used by the
learning tests.

Both games use a linear network over indicator features, which makes the
Q-function tabular: one weight per state-action pair plus a shared bias.
"""

import numpy as np

from gridgame.levelk import PriorPolicy
from gridgame.netform import (FiniteDiscrete, IteratedGame, SemiBayesNet,
                              boundary_kernel, chance, constant_kernel,
                              decision)

PLAYER = "solo"


def single_state_game(horizon: int) -> IteratedGame:
    """One state, two actions; playing action 1 pays 1, action 0 pays 0."""
    kernel = SemiBayesNet([
        chance("action_prev", FiniteDiscrete(2), boundary_kernel("action_prev")),
        decision("action", FiniteDiscrete(2), PLAYER),
    ])
    base = SemiBayesNet([chance("action", FiniteDiscrete(2), constant_kernel(0))])
    rewards = {PLAYER: lambda inst: 1.0 if inst["action_prev"] == 1 else 0.0}
    return IteratedGame(base, kernel, {"action": "action_prev"}, horizon,
                        rewards)


def single_state_prior() -> PriorPolicy:
    return PriorPolicy(2, 1, lambda parents: np.zeros(1),
                       lambda parents, rng: int(rng.integers(2)))


def chain_game(horizon: int, n: int = 5) -> IteratedGame:
    """States 0..n-1 starting at 0; action 1 moves right, 0 moves left, both
    clamped; arriving at the last state pays 1 (staying there keeps paying)."""

    def move(parents, rng):
        s, a = int(parents["state_prev"]), int(parents["action_prev"])
        return min(s + 1, n - 1) if a == 1 else max(s - 1, 0)

    kernel = SemiBayesNet([
        chance("state_prev", FiniteDiscrete(n), boundary_kernel("state_prev")),
        chance("action_prev", FiniteDiscrete(2), boundary_kernel("action_prev")),
        chance("state", FiniteDiscrete(n), move,
               parents=("state_prev", "action_prev")),
        decision("action", FiniteDiscrete(2), PLAYER, parents=("state",)),
    ])
    base = SemiBayesNet([
        chance("state", FiniteDiscrete(n), constant_kernel(0)),
        chance("action", FiniteDiscrete(2), constant_kernel(0)),
    ])
    binding = {"state": "state_prev", "action": "action_prev"}
    rewards = {PLAYER: lambda inst: 1.0 if inst["state"] == n - 1 else 0.0}
    return IteratedGame(base, kernel, binding, horizon, rewards)


def chain_prior(n: int = 5) -> PriorPolicy:
    def encode(parents):
        one_hot = np.zeros(n)
        one_hot[int(parents["state"])] = 1.0
        return one_hot

    return PriorPolicy(2, n, encode, lambda parents, rng: int(rng.integers(2)))


def value_iteration_single(gamma: float, sweeps: int = 10_000) -> np.ndarray:
    """Exact Q* for the single-state game: Q(a) = r(a) + gamma * max Q."""
    q = np.zeros(2)
    for _ in range(sweeps):
        q_next = np.array([gamma * q.max(), 1.0 + gamma * q.max()])
        if np.abs(q_next - q).max() < 1e-13:
            return q_next
        q = q_next
    return q


def value_iteration_chain(gamma: float, n: int = 5,
                          sweeps: int = 100_000) -> np.ndarray:
    """Exact Q* (n x 2) for the chain game."""
    q = np.zeros((n, 2))
    for _ in range(sweeps):
        v = q.max(axis=1)
        q_next = np.zeros_like(q)
        for s in range(n):
            for a in (0, 1):
                s2 = min(s + 1, n - 1) if a == 1 else max(s - 1, 0)
                q_next[s, a] = (1.0 if s2 == n - 1 else 0.0) + gamma * v[s2]
        if np.abs(q_next - q).max() < 1e-13:
            return q_next
        q = q_next
    return q
