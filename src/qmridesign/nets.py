"""Small dense networks with hand-written backprop, float64 throughout.

Forward passes cache activations so gradients come from exact reverse
accumulation through the same computation; the test suite pins them
against central finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Mlp", "Adam", "orthogonal", "softmax", "log_softmax"]


def orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    """Gain-scaled orthogonal matrix (rows x cols)."""
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity for determinism
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


class Mlp:
    """Fully connected net with tanh hidden layers and a linear head.

    Hidden weights use orthogonal init with gain sqrt(2); the head gain is
    caller-chosen (small for policy logits, 1 for value heads). All weights
    and biases are views into one flat ``params`` vector laid out as
    (W0, b0, W1, b1, ...); ``backward`` returns gradients in that layout.
    """

    def __init__(self, sizes, rng: np.random.Generator, out_gain: float = 1.0):
        self.sizes = tuple(int(s) for s in sizes)
        self.params = np.zeros(sum(o * (i + 1) for i, o in zip(self.sizes[:-1], self.sizes[1:])))
        self.weights, self.biases = self._split(self.params)
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            w[...] = orthogonal(rng, *w.shape, out_gain if i == last else np.sqrt(2.0))

    def _split(self, flat: np.ndarray):
        """(weights, biases) as views into a vector laid out like ``params``."""
        weights, biases, offset = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[offset : offset + fan_out * fan_in].reshape(fan_out, fan_in))
            offset += fan_out * fan_in
            biases.append(flat[offset : offset + fan_out])
            offset += fan_out
        return weights, biases

    def forward(self, x: np.ndarray):
        """Returns (output, activations); x is (batch, in_dim)."""
        activations = [np.atleast_2d(np.asarray(x, dtype=float))]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w.T + b
            activations.append(z if i == last else np.tanh(z))
        return activations[-1], activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, activations, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. ``params`` for d(loss)/d(output) = grad_out."""
        grad = np.empty_like(self.params)
        d_weights, d_biases = self._split(grad)
        delta = np.atleast_2d(grad_out)
        for i in range(len(self.weights) - 1, -1, -1):
            d_weights[i][...] = delta.T @ activations[i]
            d_biases[i][...] = delta.sum(axis=0)
            if i > 0:
                # tanh'(z) = 1 - tanh(z)^2, read from the cached activation
                delta = (delta @ self.weights[i]) * (1.0 - activations[i] ** 2)
        return grad


class Adam:
    """Adaptive-moment gradient descent over a list of parameter arrays."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(self, params, lr: float, eps: float):
        self.params = list(params)
        self.lr = lr
        self.eps = eps
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
