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

FORMAT_VERSION = 1


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
    """Weight matrices (out x in) and bias vectors, one pair per layer."""

    def __init__(self, weights: Sequence[np.ndarray], biases: Sequence[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("weights and biases must pair up layer by layer")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "NetworkParams":
        return NetworkParams([w.copy() for w in self.weights],
                             [b.copy() for b in self.biases])

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
    product as `@` with less call overhead.
    """
    a = np.asarray(x, dtype=float)
    last = params.n_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = w.dot(a)
        a += b
        if i != last:
            np.tanh(a, out=a)
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
# Serialization (versioned, full round-trip float precision via JSON repr)
# ---------------------------------------------------------------------------

def network_to_dict(spec: NetworkSpec, params: NetworkParams) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "spec": {
            "input_dim": spec.input_dim,
            "hidden_layers": list(spec.hidden_layers),
            "output_dim": spec.output_dim,
        },
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def network_from_dict(data: dict) -> tuple[NetworkSpec, NetworkParams]:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported network format version {version!r}")
    spec = NetworkSpec(
        input_dim=int(data["spec"]["input_dim"]),
        hidden_layers=tuple(int(h) for h in data["spec"]["hidden_layers"]),
        output_dim=int(data["spec"]["output_dim"]),
    )
    params = NetworkParams([np.array(w, dtype=float) for w in data["weights"]],
                           [np.array(b, dtype=float) for b in data["biases"]])
    expected = [(spec.layer_dims[i + 1], spec.layer_dims[i])
                for i in range(len(spec.layer_dims) - 1)]
    if [w.shape for w in params.weights] != expected:
        raise ValueError("stored weight shapes do not match the stored spec")
    return spec, params

