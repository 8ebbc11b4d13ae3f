"""Semi Bayes nets and iterated games built by gluing a kernel net to itself.

A semi Bayes net is a DAG whose chance nodes carry sampling kernels and whose
decision nodes are owned by players but carry no distribution; the player
policies are supplied at sampling time.  An iterated game repeats a kernel net
T times, threading selected node values forward through a glue binding, and
scores each repetition with per-player reward functions.  Nets and games are
checked when they are built, so one that exists is valid.

The iterated net is never materialized as one rolled-out DAG; `rollout`
applies the kernel lazily, slice by slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

import numpy as np

Value = Any
ParentValues = Mapping[str, Value]
Kernel = Callable[[ParentValues, np.random.Generator], Value]
Policy = Callable[[ParentValues, np.random.Generator], Value]
RewardFn = Callable[[Mapping[str, Value]], float]
Instantiation = dict[str, Value]
_Step = tuple[str, tuple[str, ...], Kernel | None, str | None,
              Callable[[Value], bool]]


# ---------------------------------------------------------------------------
# Variable spaces
# ---------------------------------------------------------------------------

_INTEGERS = (int, np.integer)  # built once: `contains` runs at every step


@dataclass(frozen=True)
class FiniteDiscrete:
    """Integer values 0 .. cardinality-1."""

    cardinality: int

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {self.cardinality}")

    def contains(self, value: Value) -> bool:
        return isinstance(value, _INTEGERS) and 0 <= value < self.cardinality


@dataclass(frozen=True)
class RealVector:
    """A real vector of fixed dimension."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def contains(self, value: Value) -> bool:
        try:
            return len(value) == self.dim
        except TypeError:
            return False


@dataclass(frozen=True)
class Record:
    """Instances of one record type, such as a `typing.NamedTuple`."""

    type: type

    def contains(self, value: Value) -> bool:
        return isinstance(value, self.type)


VariableSpace = FiniteDiscrete | RealVector | Record


# ---------------------------------------------------------------------------
# Nodes and nets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chance:
    kernel: Kernel


@dataclass(frozen=True)
class Decision:
    owner: str


@dataclass(frozen=True)
class NodeSpec:
    name: str
    space: VariableSpace
    kind: Chance | Decision
    parents: tuple[str, ...] = ()


def chance(name: str, space: VariableSpace, kernel: Kernel,
           parents: Sequence[str] = ()) -> NodeSpec:
    return NodeSpec(name, space, Chance(kernel), tuple(parents))


def decision(name: str, space: VariableSpace, owner: str,
             parents: Sequence[str] = ()) -> NodeSpec:
    return NodeSpec(name, space, Decision(owner), tuple(parents))


def constant_kernel(value: Value) -> Kernel:
    def kernel(parents: ParentValues, rng: np.random.Generator) -> Value:
        return value
    return kernel


def boundary_kernel(name: str) -> Kernel:
    """Kernel for a root that must be filled by gluing, never sampled."""

    def kernel(parents: ParentValues, rng: np.random.Generator) -> Value:
        raise ValueError(f"missing boundary value for glued root '{name}'")
    return kernel


class SemiBayesNet:
    """An ordered collection of nodes; players derived from decision owners.

    Construction raises one ValueError naming every violation: a duplicate
    node name, a parent listed twice or missing from the net, a cycle, or a
    player owning more than one decision node.  It also builds what
    `sample_slice` reads: one step per node of (name, parents, chance kernel
    or None, decision owner or None, the bound `contains` of the node's
    space), the roots' steps first, each part in `topological_order`, and
    the set of root names, the only nodes that can be glued.
    """

    def __init__(self, nodes: Sequence[NodeSpec]):
        self.nodes: tuple[NodeSpec, ...] = tuple(nodes)
        self._by_name: dict[str, NodeSpec] = {}
        owned: dict[str, list[str]] = {}
        violations = []
        for node in self.nodes:
            if node.name in self._by_name:
                violations.append(f"duplicate node name '{node.name}'")
            else:
                self._by_name[node.name] = node
            if isinstance(node.kind, Decision):
                owned.setdefault(node.kind.owner, []).append(node.name)
        self.players: tuple[str, ...] = tuple(owned)
        for node in self.nodes:
            if len(set(node.parents)) != len(node.parents):
                violations.append(f"node '{node.name}' lists a parent twice")
            violations += [f"node '{node.name}' references missing parent "
                           f"'{parent}'" for parent in node.parents
                           if parent not in self._by_name]
        violations += [f"player '{player}' owns {len(names)} decision nodes "
                       f"({', '.join(names)}); exactly one is required"
                       for player, names in owned.items() if len(names) != 1]
        try:
            order = topological_order(self)
        except ValueError as exc:
            violations.append(str(exc))
        if violations:
            raise ValueError("invalid net: " + "; ".join(violations))
        root_steps, steps = [], []
        for name in order:
            node = self._by_name[name]
            if isinstance(node.kind, Chance):
                kernel, owner = node.kind.kernel, None
            else:
                kernel, owner = None, node.kind.owner
            step = (name, node.parents, kernel, owner, node.space.contains)
            (steps if node.parents else root_steps).append(step)
        self._roots = frozenset(step[0] for step in root_steps)
        self._steps: tuple[_Step, ...] = (*root_steps, *steps)

    def node(self, name: str) -> NodeSpec:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass(frozen=True)
class IteratedGame:
    """A base net followed by `horizon` slices of a kernel net, each glued
    onto the one before through `binding`, which maps node names of the
    preceding slice to root names of the next kernel.

    Construction raises one ValueError naming every violation: a horizon
    below 1, a decision node in the base net (players decide in kernel
    slices only), a binding that does not glue the base onto the kernel or
    the kernel onto itself (a source missing from the preceding net, a
    target that is not a kernel root, differing spaces, two sources on one
    target), or a kernel player without a reward function.  `binding` and
    `rewards` are kept as read-only copies, so changing the caller's
    mappings later cannot break a checked game.

    `players` and `play` are all that `levelk` reads of a game.
    """

    base: SemiBayesNet
    kernel: SemiBayesNet
    binding: Mapping[str, str]
    horizon: int
    rewards: Mapping[str, RewardFn]

    def __post_init__(self):
        for name in ("binding", "rewards"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))
        violations = []
        if self.horizon < 1:
            violations.append(f"horizon must be >= 1, got {self.horizon}")
        violations += [f"base net holds decision node '{node.name}' of player "
                       f"'{node.kind.owner}'" for node in self.base.nodes
                       if isinstance(node.kind, Decision)]
        for label, prev in (("base->kernel", self.base),
                            ("kernel->kernel", self.kernel)):
            violations += [f"{label}: {v}" for v in
                           _glue_violations(prev, self.kernel, self.binding)]
        violations += [f"no reward function for player '{player}'"
                       for player in self.kernel.players
                       if player not in self.rewards]
        if violations:
            raise ValueError("invalid game: " + "; ".join(violations))

    @property
    def players(self) -> tuple[str, ...]:
        return self.kernel.players

    def play(self, matches: Sequence[tuple[Mapping[str, Policy], int,
                                          np.random.Generator]],
             ) -> list[list[dict[str, list[float]]]]:
        """For each (policies, episodes, rng) match in turn, the rewards, per
        player and kernel slice, of its rollouts one after another."""
        return [[rollout(self, policies, rng).rewards for _ in range(episodes)]
                for policies, episodes, rng in matches]


def _glue_violations(prev: SemiBayesNet, kernel: SemiBayesNet,
                     binding: Mapping[str, str]) -> list[str]:
    violations = []
    targets = list(binding.values())
    if len(set(targets)) != len(targets):
        violations.append("binding is not injective: two sources share a target")
    for source, target in binding.items():
        if source not in prev:
            violations.append(f"binding source '{source}' not in preceding net")
            continue
        if target not in kernel:
            violations.append(f"binding target '{target}' not in kernel net")
            continue
        if kernel.node(target).parents:
            violations.append(
                f"binding target '{target}' has parents; glue targets must be roots")
        if prev.node(source).space != kernel.node(target).space:
            violations.append(
                f"space mismatch for glued pair {source} -> {target}: "
                f"{prev.node(source).space} vs {kernel.node(target).space}")
    return violations


@dataclass
class Trajectory:
    slices: list[Instantiation]
    rewards: dict[str, list[float]]


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def topological_order(net: SemiBayesNet) -> list[str]:
    """Parents-before-children order, stable by declaration order among ties.

    Raises ValueError naming a node on a cycle if the parent relation is
    cyclic, which only a net under construction can be.  A parent missing
    from the net, which the net reports itself, does not hold its node back.
    """
    placed: set[str] = set()
    order: list[str] = []
    remaining = [node.name for node in net.nodes]
    while remaining:
        for name in remaining:
            node = net.node(name)
            if all(p in placed or p not in net for p in node.parents):
                order.append(name)
                placed.add(name)
                remaining.remove(name)
                break
        else:
            witness = _cycle_witness(net, remaining, placed)
            raise ValueError(f"cycle detected through node '{witness}'")
    return order


def _cycle_witness(net: SemiBayesNet, remaining: list[str], placed: set[str]) -> str:
    # Walk unplaced-parent edges, which every unplaced node has, until a node
    # repeats; that node is on a cycle.
    current = remaining[0]
    seen = []
    while current not in seen:
        seen.append(current)
        current = next(p for p in net.node(current).parents
                       if p not in placed and p in net)
    return current


def sample_slice(net: SemiBayesNet, boundary: Mapping[str, Value],
                 policies: Mapping[str, Policy],
                 rng: np.random.Generator) -> Instantiation:
    """Ancestral sampling of one net, with glued roots preassigned.

    The roots not in `boundary` are drawn first, in declaration order, then
    the other nodes in `topological_order`.  Chance nodes are drawn from their
    kernels, decision nodes from the owning player's policy, both on a fresh
    mapping of the node's parent values.  Every produced value is checked
    against the node's space on every call.
    """
    for name in boundary:
        if name not in net._roots:
            kind = "non-root" if name in net else "unknown"
            raise ValueError(f"boundary value for {kind} node '{name}'")
    inst: Instantiation = dict(boundary)
    for name, parents, kernel, owner, contains in net._steps:
        if name in inst:  # a glued root
            continue
        # A plain loop: a comprehension is one more function call in 3.11.
        parent_values = {}
        for parent in parents:
            parent_values[parent] = inst[parent]
        draw = kernel if kernel is not None else policies.get(owner)
        if draw is None:
            raise ValueError(f"no policy for player '{owner}' (node '{name}')")
        value = draw(parent_values, rng)
        if not contains(value):
            raise ValueError(f"value {value!r} for node '{name}' is outside its "
                             f"space {net.node(name).space}")
        inst[name] = value
    return inst


def rollout(game: IteratedGame, policies: Mapping[str, Policy],
            rng: np.random.Generator) -> Trajectory:
    """Sample the base slice, then apply the kernel `horizon` times.

    The same policy objects are consulted at every slice; glued values are
    threaded forward through the binding; each player's reward is evaluated
    on every kernel slice.
    """
    slices: list[Instantiation] = []
    rewards: dict[str, list[float]] = {player: [] for player in game.rewards}
    pairs = tuple(game.binding.items())
    scorers = [(player, reward_fn, rewards[player])
               for player, reward_fn in game.rewards.items()]
    kernel = game.kernel
    prev = sample_slice(game.base, {}, policies, rng)
    for _ in range(game.horizon):
        boundary = {target: prev[source] for source, target in pairs}
        inst = sample_slice(kernel, boundary, policies, rng)
        for player, reward_fn, values in scorers:
            value = float(reward_fn(inst))
            if not math.isfinite(value):
                raise ValueError(f"non-finite reward for player '{player}'")
            values.append(value)
        slices.append(inst)
        prev = inst
    return Trajectory(slices, rewards)
