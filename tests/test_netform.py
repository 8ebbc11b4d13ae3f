import numpy as np
import pytest

from dataclasses import dataclass

from gridgame.netform import (Chance, Decision, FiniteDiscrete, IteratedGame,
                              NodeSpec, RealVector, Record, SemiBayesNet,
                              Value, boundary_kernel, chance, constant_kernel,
                              decision, rollout, sample_slice,
                              topological_order)
from gridgame.scenario import DefenderMemory, GridState

STATE = GridState(1.4, 0.7, 1.0, 0.0, 1.0, -1.0, 0.0, 0.4, 0.7, 0.967, 0.997)


@dataclass(frozen=True)
class BoundedReal:
    """A real value in the closed interval [lo, hi]: a space of the toy nets
    below, which no game of the package needs."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    def contains(self, value: Value) -> bool:
        return isinstance(value, (int, float, np.floating, np.integer)) and (
            self.lo <= value <= self.hi
        )


def uniform_kernel(lo, hi):
    return lambda parents, rng: float(rng.uniform(lo, hi))


def copy_parent_kernel(parent):
    return lambda parents, rng: parents[parent]


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_space_equality_is_exact():
    assert FiniteDiscrete(3) == FiniteDiscrete(3)
    assert FiniteDiscrete(3) != FiniteDiscrete(4)
    assert BoundedReal(0.0, 2.0) == BoundedReal(0.0, 2.0)
    assert BoundedReal(0.0, 2.0) != BoundedReal(0.0, 2.5)
    assert RealVector(2) != FiniteDiscrete(2)


def test_space_containment():
    assert FiniteDiscrete(3).contains(2)
    assert not FiniteDiscrete(3).contains(3)
    assert not FiniteDiscrete(3).contains(0.5)
    assert BoundedReal(0.0, 1.0).contains(0.5)
    assert not BoundedReal(0.0, 1.0).contains(1.5)
    assert RealVector(2).contains((0.0, 1.0))
    assert not RealVector(2).contains((0.0, 1.0, 2.0))
    assert not RealVector(2).contains(1.0)
    assert Record(GridState).contains(STATE)
    assert not Record(GridState).contains(tuple(STATE))
    assert not Record(GridState).contains(
        DefenderMemory(1.0, 1.0, 1.0, 0.4, 0.7, 1, (0.0,) * 6))


@pytest.mark.parametrize("bad", [
    lambda: FiniteDiscrete(0),
    lambda: BoundedReal(2.0, 1.0),
    lambda: RealVector(0),
])
def test_invalid_spaces_rejected(bad):
    with pytest.raises(ValueError):
        bad()


# ---------------------------------------------------------------------------
# net checks at construction
# ---------------------------------------------------------------------------

def test_validate_empty_net():
    net = SemiBayesNet([])
    assert net.nodes == () and net.players == ()


def test_validate_two_cycle():
    with pytest.raises(ValueError, match="cycle"):
        SemiBayesNet([
            chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("B",)),
            chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A",)),
        ])


def test_validate_one_decision_node_per_player():
    with pytest.raises(ValueError, match="player 'p1' owns 2 decision nodes"):
        SemiBayesNet([
            decision("D1", FiniteDiscrete(2), "p1"),
            decision("D2", FiniteDiscrete(2), "p1"),
        ])


def test_validate_dangling_parent_and_duplicates():
    with pytest.raises(ValueError) as info:
        SemiBayesNet([
            chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("ghost",)),
            chance("A", BoundedReal(0, 1), constant_kernel(0.0)),
            chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A", "A")),
        ])
    message = str(info.value)
    assert "missing parent 'ghost'" in message
    assert "duplicate node name 'A'" in message
    assert "node 'B' lists a parent twice" in message
    assert "cycle" not in message  # a missing parent holds nothing back


def test_valid_net_has_no_violations():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), uniform_kernel(0, 1)),
        decision("D", FiniteDiscrete(2), "p1", parents=("A",)),
    ])
    assert net.players == ("p1",)


# ---------------------------------------------------------------------------
# glue checks at game construction
# ---------------------------------------------------------------------------

def _glued(base_nodes, kernel_nodes, pairs):
    return IteratedGame(SemiBayesNet(base_nodes), SemiBayesNet(kernel_nodes),
                        pairs, 1, {})


def _root(name, space):
    return chance(name, space, boundary_kernel(name))


def _copy(name, space, parent):
    return chance(name, space, copy_parent_kernel(parent), parents=(parent,))


def test_glue_matching_spaces_ok():
    span = BoundedReal(0, 2)
    game = _glued([chance("S", span, constant_kernel(0.0))],
                  [_root("S_in", span), _copy("S", span, "S_in")], {"S": "S_in"})
    assert rollout(game, {}, np.random.default_rng(0)).slices == [
        {"S_in": 0.0, "S": 0.0}]


def test_glue_target_must_be_root():
    span = BoundedReal(0, 2)
    with pytest.raises(ValueError, match="binding target 'S_in' has parents; "
                                         "glue targets must be roots"):
        _glued([chance("S", span, constant_kernel(0.0))],
               [_root("R", span), _copy("S_in", span, "R"), _copy("S", span, "S_in")],
               {"S": "S_in"})


def test_glue_space_mismatch():
    with pytest.raises(ValueError, match="base->kernel: space mismatch for "
                                         "glued pair S -> S_in"):
        _glued([chance("S", FiniteDiscrete(3), constant_kernel(0))],
               [_root("S_in", FiniteDiscrete(4)), _copy("S", FiniteDiscrete(4), "S_in")],
               {"S": "S_in"})


def test_glue_must_be_injective():
    span = BoundedReal(0, 1)
    with pytest.raises(ValueError, match="injective"):
        _glued([chance("A", span, constant_kernel(0.0)),
                chance("B", span, constant_kernel(0.0))],
               [_root("R", span), _copy("A", span, "R"), _copy("B", span, "R")],
               {"A": "R", "B": "R"})


def test_glue_unknown_source_or_target():
    span = BoundedReal(0, 1)
    base = [chance("S", span, constant_kernel(0.0))]
    kernel = [_root("R", span), _copy("S", span, "R")]
    with pytest.raises(ValueError, match="binding source 'nope' not in preceding net"):
        _glued(base, kernel, {"nope": "R"})
    with pytest.raises(ValueError, match="binding target 'nope' not in kernel net"):
        _glued(base, kernel, {"S": "nope"})


# ---------------------------------------------------------------------------
# topological order
# ---------------------------------------------------------------------------

def test_topological_chain():
    net = SemiBayesNet([
        chance("C", BoundedReal(0, 1), copy_parent_kernel("B"), parents=("B",)),
        chance("B", BoundedReal(0, 1), copy_parent_kernel("A"), parents=("A",)),
        chance("A", BoundedReal(0, 1), constant_kernel(0.5)),
    ])
    assert topological_order(net) == ["A", "B", "C"]


def test_topological_stable_tie_break():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.0)),
    ])
    assert topological_order(net) == ["A", "B"]


def test_topological_diamond():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.1)),
        chance("B", BoundedReal(0, 1), copy_parent_kernel("A"), parents=("A",)),
        chance("C", BoundedReal(0, 1), copy_parent_kernel("A"), parents=("A",)),
        chance("D", BoundedReal(0, 2), lambda p, rng: p["B"] + p["C"],
               parents=("B", "C")),
    ])
    assert topological_order(net) == ["A", "B", "C", "D"]


def test_topological_cycle_names_a_node():
    with pytest.raises(ValueError, match="cycle detected through node '[AB]'"):
        SemiBayesNet([
            chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("B",)),
            chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A",)),
        ])


# ---------------------------------------------------------------------------
# sample_slice
# ---------------------------------------------------------------------------

def test_sample_constant_net():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.25)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.75), parents=("A",)),
    ])
    inst = sample_slice(net, {}, {}, np.random.default_rng(0))
    assert inst == {"A": 0.25, "B": 0.75}


def test_decision_identity_policy():
    net = SemiBayesNet([
        chance("A", FiniteDiscrete(4), constant_kernel(2)),
        decision("D", FiniteDiscrete(4), "p1", parents=("A",)),
    ])
    policies = {"p1": lambda parents, rng: parents["A"]}
    inst = sample_slice(net, {}, policies, np.random.default_rng(0))
    assert inst["D"] == inst["A"] == 2


def test_missing_policy_raises():
    net = SemiBayesNet([decision("D", FiniteDiscrete(2), "p1")])
    with pytest.raises(ValueError, match="no policy for player 'p1'"):
        sample_slice(net, {}, {}, np.random.default_rng(0))


def test_out_of_space_kernel_value_raises():
    net = SemiBayesNet([chance("A", BoundedReal(0, 1), constant_kernel(7.0))])
    with pytest.raises(ValueError, match="outside its space"):
        sample_slice(net, {}, {}, np.random.default_rng(0))


def test_plain_tuple_for_record_node_raises():
    net = SemiBayesNet([
        chance("S", Record(GridState), constant_kernel(tuple(STATE)))])
    with pytest.raises(ValueError, match="outside its space"):
        sample_slice(net, {}, {}, np.random.default_rng(0))


def test_boundary_for_non_root_raises():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0)),
        chance("B", BoundedReal(0, 1), copy_parent_kernel("A"), parents=("A",)),
    ])
    with pytest.raises(ValueError, match="non-root"):
        sample_slice(net, {"B": 0.5}, {}, np.random.default_rng(0))


def test_checks_still_run_once_the_plan_is_cached():
    a_value = {"A": 0.25}
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), lambda parents, rng: a_value["A"]),
        chance("B", BoundedReal(0, 1), copy_parent_kernel("A"), parents=("A",)),
        decision("D", FiniteDiscrete(2), "p1", parents=("B",)),
    ])
    policies = {"p1": lambda parents, rng: 1}
    rng = np.random.default_rng(0)
    assert sample_slice(net, {}, policies, rng) == {"A": 0.25, "B": 0.25, "D": 1}
    for boundary, players, message in [
            ({"Z": 0.5}, policies, "unknown node 'Z'"),
            ({"B": 0.5}, policies, "non-root node 'B'"),
            ({"A": 0.5, "Z": 0.5}, policies, "unknown node 'Z'"),
            ({"A": 0.5, "B": 0.5}, policies, "non-root node 'B'"),
            ({}, {}, "no policy for player 'p1'"),
            ({}, {"p1": lambda parents, rng: 2}, "value 2 for node 'D'")]:
        with pytest.raises(ValueError, match=message):
            sample_slice(net, boundary, players, rng)
    a_value["A"] = 7.0
    with pytest.raises(ValueError, match="value 7.0 for node 'A'"):
        sample_slice(net, {}, policies, rng)
    with pytest.raises(ValueError, match="value 7.0 for node 'B'"):
        sample_slice(net, {"A": 7.0}, policies, rng)


def test_every_draw_gets_a_fresh_mapping_of_exactly_its_parents():
    seen = []

    def recording(value):
        def draw(parents, rng):
            seen.append((parents, list(parents.items())))
            result = value(parents)
            parents.clear()
            parents["junk"] = 1.0
            return result
        return draw

    net = SemiBayesNet([
        chance("X", BoundedReal(0, 1), recording(lambda p: 0.25)),
        chance("G", BoundedReal(0, 1), boundary_kernel("G")),
        chance("Y", BoundedReal(0, 1), recording(lambda p: p["X"] / 2),
               parents=("X",)),
        chance("C", BoundedReal(0, 1), recording(lambda p: p["G"] - p["Y"]),
               parents=("Y", "G", "X")),
        decision("D", FiniteDiscrete(2), "p1", parents=("C", "X")),
    ])
    policies = {"p1": recording(lambda p: 1)}
    boundary = {"G": 0.5}
    expected = {"X": 0.25, "G": 0.5, "Y": 0.125, "C": 0.375, "D": 1}
    for _ in range(2):
        inst = sample_slice(net, boundary, policies, np.random.default_rng(0))
        assert inst == expected and boundary == {"G": 0.5}
    assert [items for _, items in seen] == [
        [], [("X", 0.25)], [("Y", 0.125), ("G", 0.5), ("X", 0.25)],
        [("C", 0.375), ("X", 0.25)]] * 2
    mappings = [parents for parents, _ in seen]
    assert len({id(parents) for parents in mappings}) == len(mappings)
    assert all(type(parents) is dict for parents in mappings)


def test_roots_missing_from_the_boundary_are_drawn_before_any_other_node():
    drawn = []

    def logging(name):
        def kernel(parents, rng):
            drawn.append(name)
            return rng.random()
        return kernel

    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), logging("A")),
        chance("B", BoundedReal(0, 1), logging("B"), parents=("A",)),
        chance("C", BoundedReal(0, 1), logging("C")),
    ])
    inst = sample_slice(net, {}, {}, np.random.default_rng(0))
    assert drawn == ["A", "C", "B"]
    assert [inst[name] for name in drawn] == \
        np.random.default_rng(0).random(3).tolist()


def test_unfilled_glued_root_raises():
    net = SemiBayesNet([chance("R", BoundedReal(0, 1), boundary_kernel("R"))])
    with pytest.raises(ValueError, match="missing boundary value"):
        sample_slice(net, {}, {}, np.random.default_rng(0))
    inst = sample_slice(net, {"R": 0.5}, {}, np.random.default_rng(0))
    assert inst["R"] == 0.5


# ---------------------------------------------------------------------------
# rollout
# ---------------------------------------------------------------------------

def _counter_game(horizon):
    """State counts up by one per slice, capped by the space bound."""
    hi = float(horizon + 1)
    kernel = SemiBayesNet([
        chance("S_prev", BoundedReal(0, hi), boundary_kernel("S_prev")),
        chance("S", BoundedReal(0, hi), lambda p, rng: p["S_prev"] + 1.0,
               parents=("S_prev",)),
    ])
    base = SemiBayesNet([chance("S", BoundedReal(0, hi), constant_kernel(0.0))])
    rewards = {"p1": lambda inst: inst["S"]}
    return IteratedGame(base, kernel, {"S": "S_prev"}, horizon, rewards)


def test_rollout_single_slice_matches_sample_slice():
    game = _counter_game(1)
    traj = rollout(game, {}, np.random.default_rng(0))
    assert traj.slices[0]["S_prev"] == 0.0  # the base slice's S, glued
    assert len(traj.slices) == 1
    expected = sample_slice(game.kernel, {"S_prev": 0.0}, {},
                            np.random.default_rng(0))
    assert traj.slices[0] == expected


def test_rollout_threads_glued_values_and_scores_each_slice():
    game = _counter_game(5)
    traj = rollout(game, {}, np.random.default_rng(0))
    assert [s["S"] for s in traj.slices] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert traj.rewards["p1"] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_rollout_zero_rewards():
    game = _counter_game(4)
    game = IteratedGame(game.base, game.kernel, game.binding, game.horizon,
                        {"p1": lambda inst: 0.0})
    traj = rollout(game, {}, np.random.default_rng(0))
    assert traj.rewards["p1"] == [0.0] * 4


def _noisy_game(horizon):
    kernel = SemiBayesNet([
        chance("S_prev", BoundedReal(-100, 100), boundary_kernel("S_prev")),
        chance("S", BoundedReal(-100, 100),
               lambda p, rng: 0.9 * p["S_prev"] + float(rng.normal()),
               parents=("S_prev",)),
        decision("D", FiniteDiscrete(3), "p1", parents=("S",)),
    ])
    base = SemiBayesNet([
        chance("S", BoundedReal(-100, 100), lambda p, rng: float(rng.normal())),
        chance("D", FiniteDiscrete(3), constant_kernel(0)),
    ])
    binding = {"S": "S_prev", "D": "D_prev"}
    # D_prev is unused by the dynamics but exercises multi-pair gluing.
    kernel = SemiBayesNet(
        list(kernel.nodes) + [chance("D_prev", FiniteDiscrete(3),
                                     boundary_kernel("D_prev"))])
    rewards = {"p1": lambda inst: inst["S"]}
    return IteratedGame(base, kernel, binding, horizon, rewards)


def test_rollout_determinism_same_seed():
    game = _noisy_game(20)
    policies = {"p1": lambda parents, rng: int(rng.integers(3))}
    t1 = rollout(game, policies, np.random.default_rng(42))
    t2 = rollout(game, policies, np.random.default_rng(42))
    assert t1.slices == t2.slices
    assert t1.rewards == t2.rewards


def test_game_plays_the_rewards_of_rollout():
    game = _noisy_game(6)
    policies = {"p1": lambda parents, rng: int(rng.integers(3))}
    play_rng, rollout_rng = np.random.default_rng(3), np.random.default_rng(3)
    assert game.players == ("p1",)
    assert game.play([(policies, 3, play_rng)]) == \
        [[rollout(game, policies, rollout_rng).rewards for _ in range(3)]]
    assert play_rng.bit_generator.state == rollout_rng.bit_generator.state


def test_rollout_policy_consulted_every_slice():
    game = _noisy_game(17)
    calls = []

    def policy(parents, rng):
        calls.append(parents["S"])
        return 1

    rollout(game, {"p1": policy}, np.random.default_rng(0))
    assert len(calls) == 17


def test_rollout_missing_boundary_source():
    game = _counter_game(2)
    with pytest.raises(ValueError, match="binding source 'nope' not in preceding net"):
        IteratedGame(game.base, game.kernel, {"nope": "S_prev"}, 2,
                     game.rewards)


def test_binding_keeps_a_read_only_copy_of_its_pairs():
    """A checked game keeps read-only copies of its binding and rewards:
    changing the caller's mappings later can neither unglue it nor stop a
    player being scored."""
    game = _counter_game(3)
    pairs = {"S": "S_prev"}
    rewards = {"p1": lambda inst: inst["S"], "p2": lambda inst: -inst["S"]}
    game = IteratedGame(game.base, game.kernel, pairs, 3, rewards)
    pairs["S"] = "nope"
    pairs["ghost"] = "S_prev"
    rewards.pop("p1")
    assert dict(game.binding) == {"S": "S_prev"}
    assert list(game.rewards) == ["p1", "p2"]
    with pytest.raises(TypeError):
        game.binding["S"] = "nope"
    with pytest.raises(AttributeError):
        game.rewards.pop("p1")
    traj = rollout(game, {}, np.random.default_rng(0))
    assert [s["S"] for s in traj.slices] == [1.0, 2.0, 3.0]
    assert traj.rewards == {"p1": [1.0, 2.0, 3.0], "p2": [-1.0, -2.0, -3.0]}


def test_invalid_game_names_every_violation_in_one_error():
    game = _counter_game(2)
    kernel = SemiBayesNet(list(game.kernel.nodes) + [
        decision("D", FiniteDiscrete(2), "p2", parents=("S",))])
    base = SemiBayesNet(list(game.base.nodes) + [
        decision("B", FiniteDiscrete(2), "p1", parents=("S",))])
    with pytest.raises(ValueError) as info:
        IteratedGame(base, kernel, {"nope": "S_prev"}, 0, game.rewards)
    message = str(info.value)
    assert "horizon must be >= 1, got 0" in message
    assert "base net holds decision node 'B' of player 'p1'" in message
    assert "base->kernel: binding source 'nope' not in preceding net" in message
    assert "kernel->kernel: binding source 'nope' not in preceding net" in message
    assert "no reward function for player 'p2'" in message


def test_gluing_closure_on_randomized_games():
    # Random kernels stay inside their declared spaces across a whole rollout.
    rng = np.random.default_rng(7)
    for trial in range(25):
        lo, hi = sorted(rng.uniform(-5, 5, size=2))
        lo, hi = float(lo), float(hi)
        span = BoundedReal(lo, hi)

        def clamped(p, r, lo=lo, hi=hi):
            return float(min(hi, max(lo, p["S_prev"] + r.uniform(-1, 1))))

        kernel = SemiBayesNet([
            chance("S_prev", span, boundary_kernel("S_prev")),
            chance("S", span, clamped, parents=("S_prev",)),
        ])
        base = SemiBayesNet([
            chance("S", span, lambda p, r, lo=lo, hi=hi: float(r.uniform(lo, hi))),
        ])
        game = IteratedGame(base, kernel, {"S": "S_prev"},
                            int(rng.integers(1, 12)), {})
        traj = rollout(game, {}, np.random.default_rng(trial))
        # the base slice's S reaches each first slice as S_prev
        for inst in traj.slices:
            for name, value in inst.items():
                assert game.kernel.node(name).space.contains(value)


def test_game_horizon_must_be_positive():
    game = _counter_game(1)
    with pytest.raises(ValueError, match="horizon"):
        IteratedGame(game.base, game.kernel, game.binding, 0, game.rewards)


def test_validate_game_reports_reward_gap():
    kernel = SemiBayesNet([
        chance("S_prev", BoundedReal(0, 1), boundary_kernel("S_prev")),
        chance("S", BoundedReal(0, 1), copy_parent_kernel("S_prev"),
               parents=("S_prev",)),
        decision("D", FiniteDiscrete(2), "p1", parents=("S",)),
    ])
    base = SemiBayesNet([chance("S", BoundedReal(0, 1), constant_kernel(0.0))])
    with pytest.raises(ValueError, match="no reward function for player 'p1'"):
        IteratedGame(base, kernel, {"S": "S_prev"}, 3, {})


def test_node_spec_shape():
    node = NodeSpec("X", FiniteDiscrete(2), Chance(constant_kernel(0)), ())
    assert isinstance(node.kind, Chance)
    owner = NodeSpec("Y", FiniteDiscrete(2), Decision("p"), ("X",))
    assert owner.kind.owner == "p"
    net = SemiBayesNet([node, owner])
    assert net.players == ("p",)
