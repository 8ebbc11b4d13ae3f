import numpy as np
import pytest

from gridgame.netform import (BoundedReal, Chance, Decision, FiniteDiscrete,
                              GlueBinding, IteratedGame, NodeSpec, RealVector,
                              Record, SemiBayesNet, boundary_kernel, chance,
                              constant_kernel, decision, rollout, sample_slice,
                              topological_order, validate, validate_game,
                              validate_glue)
from gridgame.scenario import DefenderMemory, GridState

STATE = GridState(1.4, 0.7, 1.0, 0.0, 1.0, -1.0, 0.0, 0.4, 0.7, 0.967, 0.997)


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
# validate
# ---------------------------------------------------------------------------

def test_validate_empty_net():
    assert validate(SemiBayesNet([])) == []


def test_validate_two_cycle():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("B",)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A",)),
    ])
    violations = validate(net)
    assert any("cycle" in v for v in violations)


def test_validate_one_decision_node_per_player():
    net = SemiBayesNet([
        decision("D1", FiniteDiscrete(2), "p1"),
        decision("D2", FiniteDiscrete(2), "p1"),
    ])
    violations = validate(net)
    assert any("p1" in v and "decision" in v for v in violations)


def test_validate_dangling_parent_and_duplicates():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("ghost",)),
        chance("A", BoundedReal(0, 1), constant_kernel(0.0)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A", "A")),
    ])
    violations = validate(net)
    assert any("ghost" in v for v in violations)
    assert any("duplicate node name" in v for v in violations)
    assert any("parent twice" in v for v in violations)


def test_valid_net_has_no_violations():
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), uniform_kernel(0, 1)),
        decision("D", FiniteDiscrete(2), "p1", parents=("A",)),
    ])
    assert validate(net) == []


# ---------------------------------------------------------------------------
# validate_glue
# ---------------------------------------------------------------------------

def _single_node_net(name, space, parents=()):
    return SemiBayesNet([chance(name, space, constant_kernel(0.0), parents=parents)])


def test_glue_matching_spaces_ok():
    prev = _single_node_net("S", BoundedReal(0, 2))
    kernel = _single_node_net("S_in", BoundedReal(0, 2))
    assert validate_glue(prev, kernel, GlueBinding({"S": "S_in"})) == []


def test_glue_target_must_be_root():
    prev = _single_node_net("S", BoundedReal(0, 2))
    kernel = SemiBayesNet([
        chance("R", BoundedReal(0, 2), constant_kernel(0.0)),
        chance("S_in", BoundedReal(0, 2), copy_parent_kernel("R"), parents=("R",)),
    ])
    violations = validate_glue(prev, kernel, GlueBinding({"S": "S_in"}))
    assert any("root" in v for v in violations)


def test_glue_space_mismatch():
    prev = _single_node_net("S", FiniteDiscrete(3))
    kernel = _single_node_net("S_in", FiniteDiscrete(4))
    violations = validate_glue(prev, kernel, GlueBinding({"S": "S_in"}))
    assert any("space mismatch" in v for v in violations)


def test_glue_must_be_injective():
    prev = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.0)),
    ])
    kernel = _single_node_net("R", BoundedReal(0, 1))
    violations = validate_glue(prev, kernel, GlueBinding({"A": "R", "B": "R"}))
    assert any("injective" in v for v in violations)


def test_glue_unknown_source_or_target():
    prev = _single_node_net("S", BoundedReal(0, 1))
    kernel = _single_node_net("R", BoundedReal(0, 1))
    assert validate_glue(prev, kernel, GlueBinding({"nope": "R"}))
    assert validate_glue(prev, kernel, GlueBinding({"S": "nope"}))


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
    net = SemiBayesNet([
        chance("A", BoundedReal(0, 1), constant_kernel(0.0), parents=("B",)),
        chance("B", BoundedReal(0, 1), constant_kernel(0.0), parents=("A",)),
    ])
    with pytest.raises(ValueError, match="cycle.*'[AB]'"):
        topological_order(net)


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
    assert net._plan is not None
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
    return IteratedGame(base, kernel, GlueBinding({"S": "S_prev"}), horizon, rewards)


def test_rollout_single_slice_matches_sample_slice():
    game = _counter_game(1)
    traj = rollout(game, {}, np.random.default_rng(0))
    assert traj.base == {"S": 0.0}
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
    binding = GlueBinding({"S": "S_prev", "D": "D_prev"})
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
    assert t1.base == t2.base
    assert t1.slices == t2.slices
    assert t1.rewards == t2.rewards


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
    bad = IteratedGame(game.base, game.kernel, GlueBinding({"nope": "S_prev"}),
                       2, game.rewards)
    with pytest.raises(ValueError, match="missing boundary"):
        rollout(bad, {}, np.random.default_rng(0))


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
        game = IteratedGame(base, kernel, GlueBinding({"S": "S_prev"}),
                            int(rng.integers(1, 12)), {})
        assert validate_game(game) == []
        traj = rollout(game, {}, np.random.default_rng(trial))
        for inst in [traj.base] + traj.slices:
            for name, value in inst.items():
                assert game.kernel.node(name).space.contains(value) or \
                    game.base.node(name).space.contains(value)


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
    game = IteratedGame(base, kernel, GlueBinding({"S": "S_prev"}), 3, {})
    assert any("reward" in v for v in validate_game(game))


def test_node_spec_shape():
    node = NodeSpec("X", FiniteDiscrete(2), Chance(constant_kernel(0)), ())
    assert isinstance(node.kind, Chance)
    owner = NodeSpec("Y", FiniteDiscrete(2), Decision("p"), ("X",))
    assert owner.kind.owner == "p"
    net = SemiBayesNet([node, owner])
    assert net.players == ("p",)
