import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridgame import neural
from gridgame.neural import (NetworkParams, NetworkSpec, apply_update, forward,
                             forward_batch, greedy_bound, init,
                             network_from_dict, network_to_dict, td_gradient)
from oracles import n_params, params_equal


def finite_difference_gradient(params, x, action, target, step=1e-5):
    """Central differences on the flattened parameter vector."""
    vec = params.to_vector()
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up, down = vec.copy(), vec.copy()
        up[i] += step
        down[i] -= step
        q_up = forward(params.from_vector(up), x)[action]
        q_down = forward(params.from_vector(down), x)[action]
        loss_up = 0.5 * (target - q_up) ** 2
        loss_down = 0.5 * (target - q_down) ** 2
        grad[i] = (loss_up - loss_down) / (2 * step)
    return grad


def random_network(rng, max_layers=3, max_width=8):
    spec = NetworkSpec(
        input_dim=int(rng.integers(1, 6)),
        hidden_layers=tuple(int(rng.integers(1, max_width + 1))
                            for _ in range(rng.integers(0, max_layers))),
        output_dim=int(rng.integers(1, 5)),
    )
    params = init(spec, 0.8, float(rng.normal()), rng)
    return spec, params


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_zero_scale_passes_only_output_bias():
    spec = NetworkSpec(3, (4, 4), 5)
    params = init(spec, 0.0, 5.0, np.random.default_rng(0))
    out = forward(params, [0.3, -1.2, 0.7])
    assert np.array_equal(out, np.full(5, 5.0))


def test_zero_scale_zero_bias_gives_zeros():
    spec = NetworkSpec(2, (3,), 2)
    params = init(spec, 0.0, 0.0, np.random.default_rng(0))
    assert np.array_equal(forward(params, [1.0, 2.0]), np.zeros(2))


def test_init_reproducible_with_seed():
    spec = NetworkSpec(4, (8,), 3)
    a = init(spec, 0.1, 1.0, np.random.default_rng(123))
    b = init(spec, 0.1, 1.0, np.random.default_rng(123))
    assert params_equal(a, b)
    c = init(spec, 0.1, 1.0, np.random.default_rng(124))
    assert not params_equal(a, c)


def test_init_weights_within_scale():
    spec = NetworkSpec(5, (16, 16), 4)
    params = init(spec, 0.1, 0.0, np.random.default_rng(5))
    for w in params.weights:
        assert np.abs(w).max() <= 0.1


def test_negative_scale_rejected():
    with pytest.raises(ValueError):
        init(NetworkSpec(1, (), 1), -0.1, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_identity_linear_layer():
    params = NetworkParams([np.eye(3)], [np.zeros(3)])
    x = np.array([0.1, -0.5, 2.0])
    assert np.array_equal(forward(params, x), x)


def test_forward_zero_weights_returns_bias():
    params = NetworkParams([np.zeros((2, 3))], [np.array([1.5, -2.5])])
    assert np.array_equal(forward(params, [9.0, 9.0, 9.0]), [1.5, -2.5])


def reference_forward(params, x):
    """The plain per-layer loop `forward` must reproduce bit for bit."""
    a = np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = w @ a + b
        if i < params.n_layers - 1:
            a = np.tanh(a)
    return a


def test_forward_matches_independent_arithmetic():
    rng = np.random.default_rng(42)
    spec, params = random_network(rng)
    x = rng.normal(size=spec.input_dim)
    assert np.allclose(forward(params, x), reference_forward(params, x),
                       rtol=0, atol=0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       hidden=st.lists(st.integers(1, 16), max_size=3), as_list=st.booleans())
@example(seed=3, hidden=[], as_list=False)
@example(seed=4, hidden=[], as_list=True)
def test_forward_is_bitwise_reference_loop_and_leaves_input(seed, hidden, as_list):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(int(rng.integers(1, 9)), tuple(hidden),
                       int(rng.integers(1, 12)))
    params = init(spec, 1.0, float(rng.normal()), rng)
    x = rng.normal(size=spec.input_dim) * 3
    x_in = x.tolist() if as_list else x.copy()
    before = params.to_vector()
    out = forward(params, x_in)
    assert out.tobytes() == reference_forward(params, x).tobytes()
    assert np.asarray(x_in).tobytes() == x.tobytes() and out is not x_in
    assert params.to_vector().tobytes() == before.tobytes()


def test_forward_finite_for_finite_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec, params = random_network(rng)
        out = forward(params, rng.normal(size=spec.input_dim) * 100)
        assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# td_gradient
# ---------------------------------------------------------------------------

def test_zero_residual_gives_zero_gradient():
    rng = np.random.default_rng(1)
    spec, params = random_network(rng)
    x = rng.normal(size=spec.input_dim)
    target = float(forward(params, x)[0])
    assert np.array_equal(td_gradient(params, x, 0, target),
                          np.zeros(n_params(spec)))


def test_single_linear_neuron_hand_gradient():
    # Q = w*x + b; loss = 0.5*(target - Q)^2; dL/dw = -r*x, dL/db = -r
    params = NetworkParams([np.array([[0.5]])], [np.array([0.2])])
    x, target = 2.0, 3.0
    residual = target - (0.5 * 2.0 + 0.2)
    grad = td_gradient(params, [x], 0, target)
    assert grad == pytest.approx([-residual * x, -residual], abs=1e-15)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        spec, params = random_network(rng)
        x = rng.normal(size=spec.input_dim)
        action = int(rng.integers(spec.output_dim))
        target = float(rng.normal())
        analytic = td_gradient(params, x, action, target)
        numeric = finite_difference_gradient(params, x, action, target)
        denom = max(np.abs(numeric).max(), 1e-8)
        assert np.abs(analytic - numeric).max() / denom < 1e-4


def test_bad_action_index_rejected():
    spec = NetworkSpec(2, (), 3)
    params = init(spec, 0.0, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        td_gradient(params, [0.0, 0.0], 3, 1.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30),
       hidden=st.lists(st.integers(1, 8), max_size=3))
@example(seed=7, rows=5, hidden=[])
def test_batched_gradient_is_sum_of_single_row_gradients(seed, rows, hidden):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(int(rng.integers(1, 6)), tuple(hidden),
                       int(rng.integers(1, 5)))
    params = init(spec, 0.8, float(rng.normal()), rng)
    xs = rng.normal(size=(rows, spec.input_dim))
    actions = rng.integers(spec.output_dim, size=rows)
    targets = rng.normal(size=rows)
    batched = td_gradient(params, xs, actions, targets)
    looped = sum(td_gradient(params, x, int(a), float(t))
                 for x, a, t in zip(xs, actions, targets))
    assert batched.shape == (n_params(spec),)
    assert np.abs(batched - looped).max() <= 1e-12
    q_rows = np.array([forward(params, x) for x in xs])
    assert np.abs(forward_batch(params, xs) - q_rows).max() <= 1e-12


# ---------------------------------------------------------------------------
# greedy_rows: one network's GreedyStack, the certified argmax of forward
# ---------------------------------------------------------------------------

def forward_argmax(params, xs):
    """The reference for every greedy decision: `forward(...).argmax()` on
    each row of `xs`, the call `simulate` makes through `QPolicy`."""
    return [int(forward(params, x).argmax())
            for x in np.ascontiguousarray(xs, dtype=float)]


def greedy_rows(params, xs, bound):
    """`forward_argmax(params, xs)` from a one-network `GreedyStack`, whose
    bound is `bound`, on the columns of `xs.T`."""
    stack = neural.GreedyStack([params])
    assert stack.bound == bound
    xs = np.asarray(xs, dtype=float)
    return stack.greedy(xs.T[None], [len(xs)])[0]


def _spy_on_forward(monkeypatch, quiet=False):
    """The columns a stack computes again with `neural.forward`, as a list
    of rows, one per call; each must be handed over as a contiguous 1-D
    array.  With `quiet`, `forward` runs under `np.errstate`, so that a row
    which overflows there, as it would in `simulate`, raises no warning."""
    rows, real = [], neural.forward

    def spy(params, x):
        assert x.ndim == 1 and x.flags.c_contiguous
        rows.append(x.tolist())
        if not quiet:
            return real(params, x)
        with np.errstate(over="ignore", invalid="ignore"):
            return real(params, x)
    monkeypatch.setattr(neural, "forward", spy)
    return rows


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 64),
       hidden=st.lists(st.integers(1, 32), max_size=3),
       input_dim=st.integers(1, 12), output_dim=st.integers(1, 12),
       scale=st.floats(0.01, 10.0), x_scale=st.floats(0.01, 100.0))
@example(seed=4, rows=50, hidden=[16, 16], input_dim=6, output_dim=11,
         scale=0.1, x_scale=1.0)
def test_greedy_rows_is_the_argmax_of_forward(
        seed, rows, hidden, input_dim, output_dim, scale, x_scale):
    rng = np.random.default_rng(seed)
    params = init(NetworkSpec(input_dim, tuple(hidden), output_dim), scale,
                  float(rng.normal()), rng)
    xs = rng.normal(size=(rows, input_dim)) * x_scale
    actions = greedy_rows(params, xs, greedy_bound(params))
    assert actions.dtype == np.intp
    assert actions.tolist() == forward_argmax(params, xs)


def _tied_network(second_bias):
    """Q = (x0, x1 + 0.5, x1 + `second_bias`): units 1 and 2 share their
    weights, so they tie exactly at `second_bias` 0.5."""
    return NetworkParams([np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])],
                         [np.array([0.0, 0.5, second_bias])])


@pytest.mark.parametrize("second_bias", [0.5, np.nextafter(0.5, 1.0)],
                         ids=["exact tie", "one ulp apart"])
def test_greedy_rows_computes_tied_and_near_tied_rows_exactly(
        monkeypatch, second_bias):
    """Rows where unit 0 wins by far are certified from the product; rows where
    units 1 and 2 tie, or lie 1 ulp apart, go to `forward`, and an exact
    tie goes to the lower index."""
    params = _tied_network(second_bias)
    xs = np.array([[3.0, -1.0], [0.1, 0.7], [-2.0, 0.25], [5.0, 1.0],
                   [0.0, -0.3]])
    exact = _spy_on_forward(monkeypatch)
    actions = greedy_rows(params, xs, greedy_bound(params))
    assert exact == xs[[1, 2, 4]].tolist()
    assert actions.tolist() == forward_argmax(params, xs)
    assert actions[[0, 3]].tolist() == [0, 0]
    if second_bias == 0.5:
        assert actions[[1, 2, 4]].tolist() == [1, 1, 1]


@pytest.mark.parametrize("params, xs", [
    (NetworkParams([[[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]]],
                   [[0.0, 0.0, 0.0]]), [[1e10, 1.0], [1e10, 2.0]]),
    (NetworkParams([[[1.0, 0.0], [0.0, 1.0]],
                    [[1e308, 0.0], [0.0, 1.0], [0.0, 0.0]]],
                   [[0.0, 0.0], [1e308, 0.0, 1.0]]), [[10.0, 1.0], [20.0, 0.0]]),
], ids=["first layer", "after a tanh"])
def test_greedy_rows_falls_back_when_the_batched_product_overflows(
        monkeypatch, params, xs):
    """Huge but finite weights overflow the batched product, here to one
    infinite Q-value per row, its top.  No row is certified from it: every
    row goes to `forward`."""
    xs = np.array(xs)
    exact = _spy_on_forward(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(forward_batch(params, xs)).all()
        actions = greedy_rows(params, xs, greedy_bound(params))
        expected = forward_argmax(params, xs)
    assert exact == xs.tolist()
    assert actions.tolist() == expected


@pytest.mark.parametrize("bias, finite", [(1e307, True), (2e307, False)])
def test_greedy_bound_is_infinite_where_a_later_sum_could_overflow(bias, finite):
    """A layer after a tanh sums at most R + β, which must stay within a
    quarter of the largest double; here R = 3e307."""
    params = NetworkParams([[[1.0]], [[3e307], [0.0]]], [[0.0], [bias, 0.0]])
    e0, e1, reach = greedy_bound(params)
    assert math.isfinite(e0) == finite
    assert reach == np.finfo(float).max / 4


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 64),
       hidden=st.lists(st.integers(1, 32), max_size=3),
       input_dim=st.integers(1, 12), output_dim=st.integers(1, 12),
       scale=st.floats(0.01, 10.0), x_scale=st.floats(0.01, 100.0))
def test_forward_batch_is_within_the_greedy_bound_of_forward(
        seed, rows, hidden, input_dim, output_dim, scale, x_scale):
    """`greedy_bound` also holds for `forward_batch`, training's batched
    pass, which no greedy decision uses; the certificate's premise is
    `test_stacked_product_is_within_the_greedy_bound_of_forward`."""
    rng = np.random.default_rng(seed)
    params = init(NetworkSpec(input_dim, tuple(hidden), output_dim), scale,
                  float(rng.normal()), rng)
    xs = rng.normal(size=(rows, input_dim)) * x_scale
    e0, e1, reach = greedy_bound(params)
    x_max = np.abs(xs).max()
    assert x_max <= reach
    exact = np.array([forward(params, x) for x in xs])
    assert np.abs(forward_batch(params, xs) - exact).max() <= e0 + e1 * x_max


def test_numpy_tanh_is_within_the_greedy_bounds_tanh_error():
    """`greedy_bound` takes `np.tanh` to be within 2⁻⁴⁰ of tanh and at most
    1 in absolute value; on a numpy build where it is not, this fails.  Its
    bits differ from `math.tanh` on about a quarter of inputs."""
    rng = np.random.default_rng(0)
    xs = np.concatenate([rng.normal(size=20_000) * scale
                         for scale in (1e-300, 1e-8, 0.01, 0.3, 1.0, 3.0, 30.0)]
                        + [rng.uniform(-20.0, 20.0, 20_000)])
    ys = np.tanh(xs)
    exact = np.array([math.tanh(x) for x in xs.tolist()])
    assert np.abs(ys - exact).max() <= neural._TANH_ERROR
    assert np.abs(ys).max() <= 1.0


# ---------------------------------------------------------------------------
# GreedyStack: every network's greedy_rows from one stacked product per layer
# ---------------------------------------------------------------------------

def _assert_stack_decides_as_forward(stack, xs, sizes):
    actions = stack.greedy(xs, sizes)
    assert actions.dtype == np.intp
    assert actions.shape == (len(sizes), xs.shape[2])
    for net, x, size, decided in zip(stack.nets, xs, sizes, actions,
                                     strict=True):
        assert decided[:size].tolist() == forward_argmax(net, x[:, :size].T)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       hidden=st.lists(st.integers(1, 32), max_size=3),
       input_dim=st.integers(1, 12), output_dim=st.integers(1, 12),
       scales=st.lists(st.floats(0.01, 10.0), min_size=4, max_size=4),
       x_scales=st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4))
@example(seed=4, sizes=[150, 100], hidden=[16, 16], input_dim=7, output_dim=3,
         scales=[0.1] * 4, x_scales=[1.0] * 4)
@example(seed=5, sizes=[0, 0, 3], hidden=[2], input_dim=1, output_dim=1,
         scales=[10.0] * 4, x_scales=[100.0] * 4)
@example(seed=6, sizes=[12, 4, 9], hidden=[16, 16], input_dim=7, output_dim=3,
         scales=[0.01, 10.0, 0.1, 1.0], x_scales=[1.0, 0.01, 100.0, 1.0])
def test_greedy_stack_decides_as_forward_for_every_network(
        seed, sizes, hidden, input_dim, output_dim, scales, x_scales):
    """Networks of equal shapes, each at its own weight scale, so that their
    bounds may differ by orders of magnitude, with groups of unequal sizes
    (0 included) padded to the largest at the group's own input scale:
    each network's real columns take the argmax of its own `forward`."""
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(input_dim, tuple(hidden), output_dim)
    nets = [init(spec, scale, float(rng.normal()), rng)
            for scale in scales[:len(sizes)]]
    xs = np.stack([rng.normal(size=(input_dim, max(sizes))) * x_scale
                   for x_scale in x_scales[:len(sizes)]])
    _assert_stack_decides_as_forward(neural.GreedyStack(nets), xs, sizes)


def test_greedy_stack_refuses_networks_of_unequal_shapes():
    rng = np.random.default_rng(0)
    nets = [init(NetworkSpec(3, hidden, 2), 1.0, 0.0, rng)
            for hidden in [(4,), (5,)]]
    with pytest.raises(ValueError, match="equal layer shapes"):
        neural.GreedyStack(nets)
    with pytest.raises(ValueError, match="equal layer shapes"):
        neural.GreedyStack([])


def _columns(rows, width):
    """`rows` as the columns of an in×`width` block, padded with the last."""
    rows = rows + rows[-1:] * (width - len(rows))
    return np.array(rows, dtype=float).T


@pytest.mark.parametrize("second_bias", [0.5, np.nextafter(0.5, 1.0)],
                         ids=["exact tie", "one ulp apart"])
def test_greedy_stack_computes_only_one_networks_tied_rows_exactly(
        monkeypatch, second_bias):
    """Beside a network whose every row is certified, the tied network's
    rows where units 1 and 2 tie, or lie 1 ulp apart, go to its own
    `forward`, and an exact tie goes to the lower index.  Its padding is a
    tied row too, and is not computed again."""
    clear = NetworkParams([np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])],
                          [np.array([0.0, 0.0, 0.0])])
    tied = _tied_network(second_bias)
    clear_rows = [[3.0, 0.0], [-2.0, 0.5], [0.0, 4.0], [1.0, -1.0], [-1.0, 2.0]]
    tied_rows = [[3.0, -1.0], [0.1, 0.7], [5.0, 1.0], [-2.0, 0.25]]
    xs = np.stack([_columns(clear_rows, 5), _columns(tied_rows + [[0.0, -0.3]], 5)])
    sizes = [5, 4]
    exact = _spy_on_forward(monkeypatch)
    stack = neural.GreedyStack([clear, tied])
    actions = stack.greedy(xs, sizes)
    assert exact == [[0.1, 0.7], [-2.0, 0.25]]
    _assert_stack_decides_as_forward(stack, xs, sizes)
    assert actions[0].tolist() == [0, 1, 2, 0, 2]
    assert actions[1, [0, 2]].tolist() == [0, 0]
    if second_bias == 0.5:
        assert actions[1, [1, 3]].tolist() == [1, 1]


def _spy_on_the_stacked_product(monkeypatch):
    """The inputs of every `GreedyStack._forward` call."""
    calls, real = [], neural.GreedyStack._forward
    monkeypatch.setattr(neural.GreedyStack, "_forward",
                        lambda self, xs: calls.append(xs) or real(self, xs))
    return calls


def _assert_only_forward_decides(monkeypatch, nets, xs, sizes):
    """No stacked product is made: `forward` computes exactly the real
    columns of every network, in order, and decides them; `greedy` itself
    raises no warning, and only `forward`, run as `simulate` runs it, may."""
    products = _spy_on_the_stacked_product(monkeypatch)
    exact = _spy_on_forward(monkeypatch, quiet=True)
    stack = neural.GreedyStack(nets)
    actions = stack.greedy(xs, sizes)
    assert products == []
    assert exact == [column.tolist() for x, size in zip(xs, sizes)
                     for column in x.T[:size]]
    with np.errstate(over="ignore", invalid="ignore"):
        for net, x, size, decided in zip(nets, xs, sizes, actions):
            assert decided[:size].tolist() == forward_argmax(net, x[:, :size].T)
    return stack


@pytest.mark.parametrize("huge, rows", [
    (NetworkParams([[[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]]],
                   [[0.0, 0.0, 0.0]]), [[1e10, 1.0], [1e10, 2.0]]),
    (NetworkParams([[[1.0, 0.0], [0.0, 1.0]],
                    [[1e308, 0.0], [0.0, 1.0], [0.0, 0.0]]],
                   [[0.0, 0.0], [1e308, 0.0, 1.0]]), [[10.0, 1.0], [20.0, 0.0]]),
], ids=["first layer", "after a tanh"])
def test_greedy_stack_with_an_unbounded_network_makes_no_product(
        monkeypatch, huge, rows):
    """A network whose E is infinite, from an input past its reach or from
    a later sum that could overflow, leaves its stack without a finite
    bound: no stacked product is made, and the real columns of the two
    ordinary networks beside it go to `forward` too, but no pad does."""
    rng = np.random.default_rng(3)
    others = [init(huge.spec, 1.0, 0.0, rng) for _ in range(2)]
    xs = np.stack([rng.normal(size=(2, 3)), _columns(rows, 3),
                   rng.normal(size=(2, 3))])
    e0, _, reach = greedy_bound(huge)
    assert not math.isfinite(e0) or np.abs(rows).max() > reach
    _assert_only_forward_decides(monkeypatch, [others[0], huge, others[1]],
                                 xs, [3, 2, 2])


# Its first layer's row sum overflows to inf, so its reach is 0 and its e1
# is 0·inf, NaN: no input certifies it, not even all zeros.
_NAN_BOUND = NetworkParams([[[1e308, 1e308], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]],
                           [[0.0, 0.0], [0.5, 0.25]])


@pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
@pytest.mark.parametrize("x_scale", [0.0, 1.0], ids=["x_max 0", "x_max > 0"])
def test_greedy_stack_with_a_nan_bound_makes_no_product(
        monkeypatch, first, x_scale):
    """A NaN in one network's bound leaves the stack without a finite bound
    wherever that network sits: every real column goes to `forward`."""
    e0, e1, reach = greedy_bound(_NAN_BOUND)
    assert math.isfinite(e0) and math.isnan(e1) and reach == 0.0
    rng = np.random.default_rng(4)
    nets = [_NAN_BOUND, init(_NAN_BOUND.spec, 1.0, 0.0, rng)]
    sizes = [3, 2]
    if not first:
        nets, sizes = nets[::-1], sizes[::-1]
    xs = rng.normal(size=(2, 2, 3)) * x_scale
    stack = _assert_only_forward_decides(monkeypatch, nets, xs, sizes)
    assert math.isnan(stack.bound[1])


def test_greedy_stack_with_a_huge_finite_bound_makes_no_product(monkeypatch):
    """A margin 2E past a quarter of the largest double certifies nothing:
    `top - margin` could overflow.  Here E is finite, about 0.4 of the
    largest double, and the Q-values sit near minus a quarter of it."""
    big = float(np.finfo(float).max)
    r = big * 0.4 / 256
    bias = -(big / 4 - r) * 0.999
    net = NetworkParams([[[1.0]], [[r], [r]]], [[2.0 ** 60], [bias, bias]])
    e0, _, reach = greedy_bound(net)
    assert big / 8 < e0 < big and reach > 2.0
    _assert_only_forward_decides(monkeypatch, [net], np.array([[[1.0, 2.0]]]),
                                 [2])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), networks=st.integers(1, 4),
       rows=st.integers(1, 64), hidden=st.lists(st.integers(1, 32), max_size=3),
       input_dim=st.integers(1, 12), output_dim=st.integers(1, 12),
       scale=st.floats(0.01, 10.0), x_scale=st.floats(0.01, 100.0))
def test_stacked_product_is_within_the_greedy_bound_of_forward(
        seed, networks, rows, hidden, input_dim, output_dim, scale, x_scale):
    """`GreedyStack`'s certificate rests on this bound on the rounding of
    its transposed, stacked product: where it fails, a certified column
    could take another action than `forward`, so this fails first."""
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(input_dim, tuple(hidden), output_dim)
    stack = neural.GreedyStack([init(spec, scale, float(rng.normal()), rng)
                                for _ in range(networks)])
    xs = rng.normal(size=(networks, input_dim, rows)) * x_scale
    q = stack._forward(xs)
    for net, x, q_net in zip(stack.nets, xs, q):
        e0, e1, reach = greedy_bound(net)
        x_max = np.abs(x).max()
        assert x_max <= reach
        exact = np.array([forward(net, column) for column in x.T])
        assert np.abs(q_net.T - exact).max() <= e0 + e1 * x_max


def test_batched_gradient_needs_one_action_and_target_per_row():
    spec = NetworkSpec(2, (3,), 3)
    params = init(spec, 0.5, 0.0, np.random.default_rng(0))
    xs = np.zeros((2, 2))
    with pytest.raises(ValueError, match="one action and one target"):
        td_gradient(params, xs, [0], [1.0, 1.0])
    with pytest.raises(ValueError, match="one action and one target"):
        td_gradient(params, xs, [0, 1], [1.0])
    with pytest.raises(ValueError, match="action index 3"):
        td_gradient(params, xs, [0, 3], [1.0, 1.0])


# ---------------------------------------------------------------------------
# apply_update
# ---------------------------------------------------------------------------

def test_zero_gradient_leaves_params_unchanged():
    spec, params = random_network(np.random.default_rng(9))
    updated = apply_update(params, np.zeros(n_params(spec)), 0.5)
    assert params_equal(updated, params)


def test_full_step_on_own_params_zeroes_them():
    spec, params = random_network(np.random.default_rng(10))
    updated = apply_update(params, params.to_vector(), 1.0)
    assert np.allclose(updated.to_vector(), 0.0, atol=0)


def test_gradient_descent_minimizes_quadratic():
    # loss 0.5*(3 - b)^2 over the single bias of a 1x1 zero-weight net
    params = NetworkParams([np.zeros((1, 1))], [np.array([0.0])])
    for _ in range(200):
        grad = td_gradient(params, [0.0], 0, 3.0)
        params = apply_update(params, grad, 0.3)
    assert abs(forward(params, [0.0])[0] - 3.0) < 1e-6


def test_non_finite_gradient_rejected():
    spec, params = random_network(np.random.default_rng(11))
    grad = np.zeros(n_params(spec))
    grad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        apply_update(params, grad, 0.1)


def test_vector_round_trip():
    spec, params = random_network(np.random.default_rng(12))
    rebuilt = params.from_vector(params.to_vector())
    assert params_equal(rebuilt, params)
    with pytest.raises(ValueError):
        params.from_vector(np.zeros(n_params(spec) + 1))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_network_dict_round_trip_is_exact():
    rng = np.random.default_rng(13)
    spec, params = random_network(rng)
    params2 = network_from_dict(network_to_dict(params))
    assert params2.spec == spec
    assert params_equal(params2, params)


def test_shape_mismatch_rejected():
    # layer 1 expects the 3 outputs of layer 0 but takes 2 inputs
    with pytest.raises(ValueError, match="layer 1.*chain onto width 3"):
        NetworkParams([np.zeros((3, 2)), np.zeros((1, 2))],
                      [np.zeros(3), np.zeros(1)])
    with pytest.raises(ValueError, match="layer 0"):
        NetworkParams([np.zeros((2, 2))], [np.zeros(1)])
    with pytest.raises(ValueError, match="at least one layer"):
        NetworkParams([], [])
    with pytest.raises(ValueError, match="layer 0"):  # zero input width
        NetworkParams([np.zeros((1, 0))], [np.zeros(1)])
    assert NetworkParams([np.zeros((3, 2)), np.zeros((1, 3))],
                         [np.zeros(3), np.zeros(1)]).spec == NetworkSpec(2, (3,), 1)


@pytest.mark.parametrize("data, message", [
    ([], "must be a JSON object"),
    ({"biases": [[0.0]]}, "needs a 'weights' list"),
    ({"weights": [[0.0]]}, "needs a 'biases' list"),
    ({"weights": {"0": [[0.0]]}, "biases": [[0.0]]}, "needs a 'weights' list"),
    ({"weights": [[[0.0, 1.0], [2.0]]], "biases": [[0.0, 0.0]]}, "sequence"),
    ({"weights": [5.0], "biases": [[0.0]]}, "layer 0"),
    ({"weights": [[[0.0]]], "biases": [[0.0], [0.0]]}, "pair up"),
], ids=["list", "no-weights", "no-biases", "weights-object", "ragged",
        "scalar-layer", "unpaired"])
def test_malformed_network_dict_rejected(data, message):
    with pytest.raises(ValueError, match=message):
        network_from_dict(data)
