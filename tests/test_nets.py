"""Network primitives: gradient correctness against central finite differences."""

import numpy as np

from qmridesign.nets import Adam, Mlp, log_softmax, orthogonal, softmax


def make_mlp(sizes, rng, out_gain=1.0):
    return Mlp(sizes, np.zeros(Mlp.n_params(sizes)), rng, out_gain)


def test_orthogonal_rows_orthonormal():
    rng = np.random.default_rng(0)
    w = orthogonal(rng, 4, 12, gain=1.0)
    np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-12)
    w2 = orthogonal(rng, 12, 4, gain=2.0)
    np.testing.assert_allclose(w2.T @ w2, 4.0 * np.eye(4), atol=1e-12)


def test_softmax_normalized():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(7, 11)) * 30.0
    p = softmax(logits)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)
    np.testing.assert_allclose(np.log(p), log_softmax(logits), atol=1e-12)


def test_forward_is_tanh_of_affine_bit_for_bit():
    """The in-place forward gives the bytes of ``tanh(x @ w.T + b)`` on every
    hidden layer and of ``x @ w.T + b`` at the head, for a batch and for the
    ``(1, n)`` view a single observation takes."""
    rng = np.random.default_rng(20)
    mlp = make_mlp((12, 64, 64, 1001), rng, out_gain=0.01)
    for b in mlp.biases:
        b[:] = rng.normal(scale=0.1, size=b.size)
    for x in (rng.normal(size=(37, 12)), rng.normal(size=12)[None, :]):
        out, activations = mlp.forward(x)
        a = x
        for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            a = a @ w.T + b
            if i != len(mlp.weights) - 1:
                a = np.tanh(a)
            assert activations[i + 1].tobytes() == a.tobytes()
        assert out is activations[-1]


def test_backward_matches_finite_differences():
    """Scalar loss sum(out^2): analytic grads vs central differences, 1e-7."""
    rng = np.random.default_rng(2)
    mlp = make_mlp((5, 4, 4, 3), rng, out_gain=0.7)
    x = rng.normal(size=(6, 5))

    def loss_of(flat):
        mlp.params[...] = flat
        out, _ = mlp.forward(x)
        return float((out**2).sum())

    flat0 = mlp.params.copy()
    out, cache = mlp.forward(x)
    analytic = np.empty_like(flat0)
    mlp.backward(cache, 2.0 * out, analytic)

    numeric = np.empty_like(flat0)
    h = 1e-6
    for i in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[i] += h
        down[i] -= h
        numeric[i] = (loss_of(up) - loss_of(down)) / (2.0 * h)
    mlp.params[...] = flat0
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_backward_batch_is_sum_of_singles():
    rng = np.random.default_rng(3)
    mlp = make_mlp((4, 3, 2), rng)
    x = rng.normal(size=(5, 4))
    grad_out = rng.normal(size=(5, 2))
    _, cache = mlp.forward(x)
    batch = np.empty_like(mlp.params)
    mlp.backward(cache, grad_out, batch)
    acc = np.zeros_like(batch)
    single = np.empty_like(batch)
    for i in range(5):
        _, cache_i = mlp.forward(x[i : i + 1])
        mlp.backward(cache_i, grad_out[i : i + 1], single)
        acc += single
    np.testing.assert_allclose(batch, acc, rtol=1e-12)


def test_state_roundtrip():
    """The flat params vector is the whole state: weights and biases are
    views into it, so copying it copies the network."""
    rng = np.random.default_rng(4)
    a = make_mlp((3, 4, 2), rng)
    b = make_mlp((3, 4, 2), np.random.default_rng(99))
    assert a.params.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    assert all(np.shares_memory(p, b.params) for p in b.weights + b.biases)
    b.params[...] = a.params
    x = rng.normal(size=(2, 3))
    np.testing.assert_array_equal(a(x), b(x))


def test_adam_matches_reference_formula():
    """One step against the textbook bias-corrected update."""
    p = np.array([1.0, -2.0])
    g = np.array([0.5, 0.25])
    opt = Adam(p, lr=1e-2, eps=1e-5)
    opt.step(g)
    m = 0.1 * g
    v = 0.001 * g**2
    expected = np.array([1.0, -2.0]) - 1e-2 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-5)
    np.testing.assert_allclose(p, expected, rtol=1e-12)


def test_adam_descends_quadratic():
    rng = np.random.default_rng(5)
    p = rng.normal(size=(8,)) * 3.0
    opt = Adam(p, lr=0.05, eps=1e-5)
    for _ in range(800):
        opt.step(2.0 * p)
    assert float(np.abs(p).max()) < 1e-2


def test_adam_in_place_equals_textbook_steps():
    """25 steps from t = 1 against an out-of-place textbook Adam, bit for bit."""
    rng = np.random.default_rng(6)
    p = rng.normal(size=50)
    opt = Adam(p, lr=1e-3, eps=1e-5)
    ref_p, ref_m, ref_v = p.copy(), np.zeros(50), np.zeros(50)
    for t in range(1, 26):
        g = rng.normal(size=50) * 10.0 ** rng.uniform(-6, 2)
        opt.step(g)
        ref_m = 0.9 * ref_m + (1.0 - 0.9) * g
        ref_v = 0.999 * ref_v + (1.0 - 0.999) * g**2
        ref_p = ref_p - 1e-3 * (ref_m / (1.0 - 0.9**t)) / (np.sqrt(ref_v / (1.0 - 0.999**t)) + 1e-5)
        assert opt.t == t
        np.testing.assert_array_equal(opt.m, ref_m)
        np.testing.assert_array_equal(opt.v, ref_v)
        np.testing.assert_array_equal(p, ref_p)
