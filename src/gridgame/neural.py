"""Small feed-forward network used as a Q-value approximator.

One output unit per discrete action, tanh hidden layers, linear output.
Gradients are computed analytically for the one-sided TD loss
½·(target − Q(x)[a])², for one input or summed over a batch of inputs, and
are verified against finite differences in the test suite.  Parameters
flatten to a single vector in layer order (W0, b0, W1, b1, ...), which is
also the gradient layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_layers, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError(f"all layer dims must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_layers, self.output_dim)


class NetworkParams:
    """Weight matrices (out x in) and bias vectors, one pair per layer.  The
    layers must chain, so their shapes alone fix the network's `spec`."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up layer by layer")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if not self.weights:
            raise ValueError("a network needs at least one layer")
        first = self.weights[0]
        width = first.shape[1] if first.ndim == 2 else None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if b.ndim != 1 or w.shape != (b.size, width) or not w.size:
                raise ValueError(f"layer {i}: weights {w.shape} and biases "
                                 f"{b.shape} do not chain onto width {width}")
            width = b.size

    @property
    def spec(self) -> NetworkSpec:
        return NetworkSpec(self.weights[0].shape[1],
                           tuple(b.size for b in self.biases[:-1]),
                           self.biases[-1].size)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def to_vector(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def from_vector(self, vector: np.ndarray) -> "NetworkParams":
        """New params with this object's shapes and `vector`'s values."""
        vector = np.asarray(vector, dtype=float)
        weights, biases, offset = [], [], 0
        for w, b in zip(self.weights, self.biases):
            weights.append(vector[offset:offset + w.size].reshape(w.shape))
            offset += w.size
            biases.append(vector[offset:offset + b.size])
            offset += b.size
        if offset != vector.size:
            raise ValueError(f"vector has {vector.size} entries, expected {offset}")
        return NetworkParams(weights, biases)

    def all_finite(self) -> bool:
        return all(np.isfinite(w).all() for w in self.weights) and \
            all(np.isfinite(b).all() for b in self.biases)


def init(spec: NetworkSpec, scale: float, output_bias: float,
         rng: np.random.Generator) -> NetworkParams:
    """Uniform[-scale, scale] weights and hidden biases; output biases set to
    `output_bias` so that initial Q-values sit at the optimistic level."""
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    dims = spec.layer_dims
    weights, biases = [], []
    for i in range(len(dims) - 1):
        weights.append(rng.uniform(-scale, scale, size=(dims[i + 1], dims[i])))
        if i == len(dims) - 2:
            biases.append(np.full(dims[i + 1], float(output_bias)))
        else:
            biases.append(rng.uniform(-scale, scale, size=dims[i + 1]))
    return NetworkParams(weights, biases)


def forward(params: NetworkParams, x: Sequence[float]) -> np.ndarray:
    """Q-values for every action: tanh hidden layers, linear output.

    Each layer's `w.dot(a)` is a new array, so the bias add and tanh run in
    place on it without touching `x`; the float operations are those of
    `tanh(w @ a + b)`.  For one input `dot` makes the same matrix-vector
    product as `@` with less call overhead, and a positional `out` costs less
    than the keyword.
    """
    a = np.asarray(x, dtype=float)
    weights, biases = params.weights, params.biases
    last = len(weights) - 1
    for i in range(last):
        a = weights[i].dot(a)
        a += biases[i]
        np.tanh(a, a)
    a = weights[last].dot(a)
    a += biases[last]
    return a


def forward_batch(params: NetworkParams, xs: Sequence[Sequence[float]]) -> np.ndarray:
    """Q-values for every action, one row per row of the 2-D batch `xs`.

    Matrix products sum in another order than `forward`'s `w.dot(x)`, so a row
    may differ from `forward` on that input in the last bits.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"expected a 2-D batch of inputs, got shape {xs.shape}")
    return _forward_activations(params, xs)[-1]


# The rounding constants of `greedy_bound`: the unit roundoff of a double, a
# generous bound on the absolute error of `np.tanh` (tests/test_neural.py
# checks it against `math.tanh`), the absolute error a product can lose to
# gradual underflow, and a relative allowance for rounding the bound itself.
_U = 2.0 ** -53
_TANH_ERROR = 2.0 ** -40
_UNDERFLOW = 2.0 ** -1074
_SLACK = 1.0 + 2.0 ** -20
_NO_OVERFLOW = float(np.finfo(float).max) / 4


def greedy_bound(params: NetworkParams) -> tuple[float, float, float]:
    """`(e0, e1, reach)`: on a batch whose entries are at most X in absolute
    value, with X <= `reach`, `forward` on each row and `GreedyStack`'s
    stacked product (or `forward_batch`) differ by at most E = e0 + e1·X on
    every output.  Past `reach` the bound is infinite.

    Take any two evaluations of the network that round every sum of a
    layer's product in their own order, with or without FMA, as the stacked
    `W @ X`, `forward_batch`'s `a @ w.T` and `forward`'s `w.dot(a)` may.  A
    layer has input width K, largest absolute row sum R of W, β = max|b|,
    and its inputs are at most A in absolute value (A = X for the first
    layer, 1 after a tanh) and differ between the evaluations by at most d
    (d = 0 for the first).  With u = 2⁻⁵³ and γ_K = Ku/(1 − Ku), each evaluation's dot
    product is within γ_K·Σ|w||a| <= γ_K·R·A of the exact product of its own
    inputs (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., §3.1), plus K·2⁻¹⁰⁷⁴ lost to underflow, and the exact products of
    the two inputs differ by at most R·d.  Each bias add rounds by at most
    u·((1 + γ_K)·R·A + β).  So the pre-activations differ by at most

        d' = R·d + 2γ_K·R·A + 2u·((1 + γ_K)·R·A + β) + 2K·2⁻¹⁰⁷⁴,

    and after a tanh, which is 1-Lipschitz and which `np.tanh` misses by at
    most τ = 2⁻⁴⁰ in each evaluation, by at most d' + 2τ.  E is the output
    layer's d'.  Only the first layer's terms carry X, so E is affine in X.
    No sum or bias add can overflow while R·A + β <= max/4, which holds
    for every later layer or the bound is infinite, and for the first while
    X <= `reach`.  The constants, rounded themselves, are scaled by
    1 + 2⁻²⁰."""
    e0 = e1 = 0.0
    reach = np.inf
    last = params.n_layers - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            k = w.shape[1]
            gamma = k * _U / (1.0 - k * _U)
            r = float(np.abs(w).sum(axis=1).max())
            beta = float(np.abs(b).max())
            per_a = 2.0 * (gamma + _U * (1.0 + gamma)) * r  # d' per unit of A
            fixed = 2.0 * (_U * beta + k * _UNDERFLOW)
            if i == 0:
                e0, e1 = fixed, per_a
                if r > 0.0:
                    reach = (_NO_OVERFLOW - beta) / r
            else:
                e0, e1 = r * e0 + per_a + fixed, r * e1
                if not r + beta <= _NO_OVERFLOW:
                    e0 = np.inf
            if i != last:
                e0 += 2.0 * _TANH_ERROR
    return e0 * _SLACK, e1 * _SLACK, reach


class GreedyStack:
    """Networks of equal layer shapes, stacked once to be decided together:
    each layer's weights as one G×out×in array and its biases as G×out×1, so
    that `greedy` runs one `np.matmul` per layer for all G networks."""

    def __init__(self, nets: Sequence[NetworkParams]):
        self.nets = tuple(nets)
        if len({net.spec for net in self.nets}) != 1:
            raise ValueError("a stack needs one or more networks of equal "
                             "layer shapes")
        # numpy's max and min keep a NaN; Python floats overflow quietly
        e0, e1, reach = np.array([greedy_bound(net) for net in self.nets]).T
        self.bound = (float(e0.max()), float(e1.max()), float(reach.min()))
        layers = zip(*(zip(net.weights, net.biases) for net in self.nets))
        self.layers = [(np.stack([w for w, _ in layer]),
                        np.stack([b for _, b in layer])[:, :, None])
                       for layer in layers]
        self.units = np.arange(self.nets[0].spec.output_dim, dtype=float)

    def greedy(self, xs: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
        """A G×R array whose row g starts with `forward(nets[g], x).argmax()`
        for each of g's first `sizes[g]` columns x of `xs[g]`.

        `xs` is G×in×R: network g's inputs as columns, its first `sizes[g]`
        real and the rest padding, which counts towards the largest input X
        and decides nothing.  `bound`, the loosest of the networks' bounds,
        holds for each: g's inputs are at most X_g <= X <= reach <= reach_g,
        so its stacked values are within e0_g + e1_g·X_g <= E = e0 + e1·X of
        `forward`.  The product is transposed, `W @ X` per layer, so the
        bias add broadcasts along the long axis and the top is a reduction
        over the short output axis.  A column whose top beats each of its
        other Q-values by more than the margin 2E has that top in `forward`
        too (`top - margin` rounds to nearest, so a double below it is below
        the exact difference too).  Every other real column is computed
        again by `forward` of its own network on a contiguous copy of the
        column, the call `simulate` makes, so ties still go to the lowest
        index.  With E finite no sum overflows, so each column has its top
        within the margin, and with 2E at most a quarter of the largest
        double `top - margin` does not overflow either: `greedy` never needs
        `np.errstate`.  Any other margin (an input past `reach`, a NaN or
        huge bound, non-finite weights) certifies nothing: no product is
        made, and every real column is computed again."""
        e0, e1, reach = self.bound
        x_max = float(np.abs(xs).max(initial=0.0))
        # Python floats overflow to inf quietly; a NaN fails both tests
        margin = 2.0 * (e0 + e1 * x_max) if x_max <= reach else np.inf
        if margin <= _NO_OVERFLOW:
            q = self._forward(xs)
            near = q >= (q.max(axis=1) - margin)[:, None]
            # a column's one unit near its top is its top, and its index is
            # Σ k·near[k]: one small product, cheaper than an argmax
            actions = np.matmul(self.units, near).astype(np.intp)
            if np.count_nonzero(near) == actions.size:
                return actions
            unsure = np.count_nonzero(near, axis=1) != 1
        else:
            actions = np.zeros((len(self.nets), xs.shape[2]), dtype=np.intp)
            unsure = np.ones(actions.shape, dtype=bool)
        unsure &= np.arange(xs.shape[2]) < np.asarray(sizes)[:, None]
        for g, c in zip(*np.nonzero(unsure)):
            actions[g, c] = forward(self.nets[g], xs[g, :, c].copy()).argmax()
        return actions

    def _forward(self, xs: np.ndarray) -> np.ndarray:
        """The stacked Q-values, G×out×R."""
        a = xs
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            a = np.matmul(w, a)
            a += b
            if i != last:
                np.tanh(a, a)
        return a


def _forward_activations(params: NetworkParams,
                         x: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    """Layer inputs [x, h1, ..., h_last] plus the final output, pre-backprop.

    A 1-D `x` is one input, evaluated with `w.dot(a)` exactly as `forward`
    does; a 2-D `x` holds one input per row.
    """
    activations = [np.asarray(x, dtype=float)]
    single = activations[0].ndim == 1
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = activations[-1]
        z = (w.dot(a) if single else a @ w.T) + b
        activations.append(np.tanh(z) if i != last else z)
    return activations


def td_gradient(params: NetworkParams, x: Sequence[float] | np.ndarray,
                action_index: int | Sequence[int],
                target: float | Sequence[float]) -> np.ndarray:
    """Gradient of ½·(target − Q(x)[action_index])² w.r.t. the flat vector.

    The target is treated as a constant.  With a 2-D `x` (one input per row),
    `action_index` and `target` hold one entry per row, and the result is the
    sum of the per-row gradients, from one batched forward pass and backprop.
    """
    activations = _forward_activations(params, x)
    if activations[0].ndim == 1:
        activations = [a[np.newaxis] for a in activations]
    output = activations[-1]
    rows = np.arange(output.shape[0])
    actions = np.asarray(action_index).reshape(-1)
    targets = np.asarray(target, dtype=float).reshape(-1)
    if actions.shape != rows.shape or targets.shape != rows.shape:
        raise ValueError(f"need one action and one target per input row, got "
                         f"{actions.size} and {targets.size} for {rows.size}")
    out_of_range = (actions < 0) | (actions >= output.shape[1])
    if out_of_range.any():
        raise ValueError(f"action index {actions[out_of_range][0]} out of range")
    # delta over output layer: residual only on each row's trained action unit.
    delta = np.zeros_like(output)
    delta[rows, actions] = output[rows, actions] - targets
    parts: list[np.ndarray] = []
    for i in range(params.n_layers - 1, -1, -1):
        parts.append(delta.sum(axis=0))
        parts.append((delta.T @ activations[i]).ravel())
        if i > 0:
            back = delta @ params.weights[i]
            delta = back * (1.0 - activations[i] ** 2)  # tanh'
    return np.concatenate(parts[::-1])


def apply_update(params: NetworkParams, gradient: np.ndarray,
                 learning_rate: float) -> NetworkParams:
    """One plain gradient-descent step; returns new params."""
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be > 0, got {learning_rate}")
    gradient = np.asarray(gradient, dtype=float)
    if not np.isfinite(gradient).all():
        raise ValueError("non-finite gradient")
    return params.from_vector(params.to_vector() - learning_rate * gradient)


# ---------------------------------------------------------------------------
# Serialization (full round-trip float precision via JSON repr)
# ---------------------------------------------------------------------------

def network_to_dict(params: NetworkParams) -> dict:
    return {"weights": [w.tolist() for w in params.weights],
            "biases": [b.tolist() for b in params.biases]}


def network_from_dict(data: object) -> NetworkParams:
    if not isinstance(data, dict):
        raise ValueError(f"a network must be a JSON object, got {data!r}")
    for key in ("weights", "biases"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"a network needs a '{key}' list")
    params = NetworkParams(data["weights"], data["biases"])
    # A JSON null reads as NaN, and json.load accepts NaN and Infinity.
    if not params.all_finite():
        raise ValueError("a network's weights and biases must all be finite")
    return params
