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
    and biases are views into the caller's flat ``params`` vector of
    ``n_params(sizes)`` entries, laid out as (W0, b0, W1, b1, ...);
    ``backward`` writes gradients in that layout.
    """

    def __init__(self, sizes, params: np.ndarray, rng: np.random.Generator, out_gain: float):
        self.sizes = tuple(int(s) for s in sizes)
        self.params = params
        self.weights, self.biases = self._split(self.params)
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            w[...] = orthogonal(rng, *w.shape, out_gain if i == last else np.sqrt(2.0))

    @staticmethod
    def n_params(sizes) -> int:
        """Length of the parameter vector of a net with these layer sizes."""
        return sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:]))

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
        """Returns (output, activations); x is a (batch, in_dim) float array.

        Each hidden layer is ``tanh(a @ w.T + b)``; the head is ``a @ w.T + b``.
        """
        activations = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = activations[-1] @ w.T + b
            activations.append(z if i == last else np.tanh(z))
        return activations[-1], activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, activations, grad_out: np.ndarray, grad: np.ndarray) -> None:
        """Write into ``grad`` (laid out like ``params``) the gradient of the
        loss w.r.t. ``params`` for d(loss)/d(output) = grad_out."""
        d_weights, d_biases = self._split(grad)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, activations[i], out=d_weights[i])
            delta.sum(axis=0, out=d_biases[i])
            if i > 0:
                # tanh'(z) = 1 - tanh(z)^2, read from the cached activation
                delta = (delta @ self.weights[i]) * (1.0 - activations[i] ** 2)


class Adam:
    """Adaptive-moment gradient descent (Kingma & Ba 2015) on one parameter
    vector, stepped in place: the textbook update's elementwise operations,
    in its order, on two preallocated scratch vectors."""

    beta1 = 0.9
    beta2 = 0.999

    def __init__(self, params: np.ndarray, lr: float, eps: float):
        self.params = params
        self.lr = lr
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        a, b = self._scratch
        # m = beta1 * m + (1 - beta1) * g
        m *= self.beta1
        np.multiply(1.0 - self.beta1, grad, out=a)
        m += a
        # v = beta2 * v + (1 - beta2) * g^2
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        # params -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, bc1, out=b)
        b *= self.lr
        b /= a
        self.params -= b
