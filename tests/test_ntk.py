"""Tangent-kernel gradients, Gram matrices, and the bound term."""

import math

import numpy as np
import pytest

from mixval.errors import DomainError, NumericalError
from mixval.ntk import (
    MLPSpec,
    Model,
    NTKGram,
    ParamVector,
    _sigmoid,
    bound_term,
    default_ridge,
    forward,
    gradients,
    init_params,
    ntk_gram,
    predict,
)


def per_example_gradient(spec: MLPSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Gradient of the scalar output for one input vector: the one row of
    a one-point ``gradients`` batch."""
    return gradients(spec, params, x)[0]


def finite_difference_gradient(spec, params, x, h: float = 1e-6) -> np.ndarray:
    base = params.values
    out = np.zeros_like(base)
    for j in range(len(base)):
        up, down = base.copy(), base.copy()
        up[j] += h
        down[j] -= h
        f_up = forward(spec, type(params)(up, params.weight_shapes), x)
        f_down = forward(spec, type(params)(down, params.weight_shapes), x)
        out[j] = (f_up - f_down) / (2 * h)
    return out


# ---------------------------------------------------------------------------
# Spec and initialization.


def test_spec_validation():
    with pytest.raises(DomainError):
        MLPSpec(layer_widths=(4,))
    with pytest.raises(DomainError):
        MLPSpec(layer_widths=(4, 8, 2))
    with pytest.raises(DomainError):
        MLPSpec(layer_widths=(4, 0, 1))
    with pytest.raises(DomainError):
        MLPSpec(layer_widths=(4, 8, 1), activation="relu6")
    with pytest.raises(DomainError):
        MLPSpec(layer_widths=(4, 8, 1), output_squash="softmax")
    spec = MLPSpec(layer_widths=(4, 8, 1))
    assert spec.input_dim == 4
    assert spec.weight_shapes() == [(8, 4), (1, 8)]
    assert spec.n_params == 8 * 4 + 8 + 1 * 8 + 1


def test_init_determinism_and_bias_zero():
    spec = MLPSpec(layer_widths=(3, 5, 1), init_seed=42)
    a = init_params(spec)
    b = init_params(spec)
    assert np.array_equal(a.values, b.values)
    c = init_params(MLPSpec(layer_widths=(3, 5, 1), init_seed=43))
    assert not np.array_equal(a.values, c.values)
    for w, bias in a.layers():
        assert np.all(bias == 0.0)


def test_init_variance_tracks_fan_in():
    spec = MLPSpec(layer_widths=(256, 256, 1), init_seed=0)
    w0, _ = init_params(spec).layers()[0]
    assert w0.var() == pytest.approx(1.0 / 256, rel=0.10)


# ---------------------------------------------------------------------------
# Forward pass.


def test_linear_identity_model_exact_forward():
    # identity squash, identity activation would need a hidden layer;
    # with no hidden layers the net is w @ x + b exactly
    spec = MLPSpec(layer_widths=(3, 1), output_squash="identity")
    params = type(init_params(spec))(
        np.array([2.0, -1.0, 0.5, 0.25]), ((1, 3),)
    )
    x = np.array([1.0, 2.0, 4.0])
    assert forward(spec, params, x) == pytest.approx(2.0 - 2.0 + 2.0 + 0.25, abs=1e-15)


def test_sigmoid_squash_at_zero_input():
    spec = MLPSpec(layer_widths=(4, 6, 1), init_seed=1)
    params = init_params(spec)
    # zero input meets zero biases: tanh(0) = 0 end to end, sigmoid(0) = 0.5
    assert forward(spec, params, np.zeros(4)) == pytest.approx(0.5, abs=1e-15)


def test_predict_batch_matches_forward():
    spec = MLPSpec(layer_widths=(3, 7, 1), init_seed=5)
    model = Model.at_init(spec)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 3))
    batch = model.predict(x)
    rows = np.array([forward(spec, model.params, xi) for xi in x])
    assert batch == pytest.approx(rows, abs=1e-14)
    assert np.all((batch > 0.0) & (batch < 1.0))


def test_output_scale_is_order_one_at_init():
    spec = MLPSpec(layer_widths=(8, 64, 1), init_seed=3, output_squash="identity")
    rng = np.random.default_rng(1)
    x = rng.standard_normal((400, 8))
    out = predict(spec, init_params(spec), x)
    assert 0.3 < out.std() < 3.0


def test_batch_validation():
    spec = MLPSpec(layer_widths=(3, 1))
    params = init_params(spec)
    with pytest.raises(DomainError):
        predict(spec, params, np.zeros((4, 2)))
    # non-finite inputs propagate; the Gram constructor is the checkpoint
    with pytest.raises(NumericalError):
        ntk_gram(spec, params, np.array([[np.nan, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Gradients.


@pytest.mark.parametrize("widths", [(2, 1), (3, 4, 1), (2, 4, 4, 1)])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("squash", ["sigmoid", "identity"])
def test_gradients_match_finite_differences(widths, activation, squash):
    spec = MLPSpec(
        layer_widths=widths, activation=activation, output_squash=squash, init_seed=7
    )
    params = init_params(spec)
    rng = np.random.default_rng(11)
    for x in rng.standard_normal((2, widths[0])):
        analytic = per_example_gradient(spec, params, x)
        numeric = finite_difference_gradient(spec, params, x)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_linear_model_gradient_is_input():
    spec = MLPSpec(layer_widths=(3, 1), output_squash="identity")
    params = type(init_params(spec))(np.array([0.3, -0.2, 0.9, 0.0]), ((1, 3),))
    x = np.array([1.5, -2.0, 0.25])
    grad = per_example_gradient(spec, params, x)
    # d(wx + b)/dw = x, d/db = 1
    assert grad == pytest.approx(np.array([1.5, -2.0, 0.25, 1.0]), abs=1e-14)


def test_gradients_batch_matches_per_example():
    spec = MLPSpec(layer_widths=(4, 6, 1), init_seed=2)
    params = init_params(spec)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 4))
    batch = gradients(spec, params, x)
    assert batch.shape == (7, spec.n_params)
    rows = np.stack([per_example_gradient(spec, params, xi) for xi in x])
    assert batch == pytest.approx(rows, abs=1e-13)


def masked_sigmoid(z):
    # the masked-index form _sigmoid had before it went mask-free
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def einsum_hstack_gradients(spec, params, x):
    """Per-example gradients the way ``gradients`` computed them before its
    single reverse pass: derivatives recomputed from pre-activations, each
    layer's rows built by einsum and joined by two hstacks."""
    dact = {"tanh": lambda z: 1.0 - np.tanh(z) ** 2, "identity": np.ones_like}[spec.activation]
    dsquash = {
        "sigmoid": lambda z: masked_sigmoid(z) * (1.0 - masked_sigmoid(z)),
        "identity": np.ones_like,
    }[spec.output_squash]
    act = np.tanh if spec.activation == "tanh" else (lambda z: z)
    layers = params.layers()
    h, pre, post = x, [], [x]
    for li, (w, b) in enumerate(layers):
        z = h @ w.T + b
        pre.append(z)
        h = act(z) if li < len(layers) - 1 else z
        post.append(h)
    delta = dsquash(pre[-1])
    grads = [None] * len(layers)
    for li in range(len(layers) - 1, -1, -1):
        gw = np.einsum("no,ni->noi", delta, post[li]).reshape(len(x), -1)
        grads[li] = np.hstack([gw, delta])
        if li > 0:
            delta = (delta @ layers[li][0]) * dact(pre[li - 1])
    return np.hstack(grads)


@pytest.mark.parametrize("widths", [(8, 16, 1), (3, 5, 4, 1)])
@pytest.mark.parametrize("activation", ["tanh", "identity"])
@pytest.mark.parametrize("squash", ["sigmoid", "identity"])
def test_gradients_equal_einsum_hstack_oracle(widths, activation, squash):
    spec = MLPSpec(
        layer_widths=widths, activation=activation, output_squash=squash, init_seed=5
    )
    base = init_params(spec)
    rng = np.random.default_rng(21)
    # nonzero biases and large inputs reach both sigmoid tails
    params = ParamVector(base.values + 0.3 * rng.standard_normal(spec.n_params), base.weight_shapes)
    x = 4.0 * rng.standard_normal((41, widths[0]))
    got = gradients(spec, params, x)
    want = einsum_hstack_gradients(spec, params, x)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sigmoid_equals_masked_form_bit_for_bit():
    rng = np.random.default_rng(3)
    z = np.concatenate([
        rng.standard_normal(500), 40.0 * rng.standard_normal(500),
        [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 709.0, -709.0, 745.0, -745.0,
         800.0, -800.0, np.inf, -np.inf],
    ])
    for shape in ((len(z),), (len(z), 1)):
        got = _sigmoid(z.reshape(shape))
        assert got.shape == shape and got.tobytes() == masked_sigmoid(z.reshape(shape)).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))[0])


# ---------------------------------------------------------------------------
# Gram matrix.


def test_gram_matches_explicit_outer_product():
    spec = MLPSpec(layer_widths=(3, 5, 1), init_seed=9)
    params = init_params(spec)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 3))
    gram = ntk_gram(spec, params, x)
    j = np.stack([per_example_gradient(spec, params, xi) for xi in x])
    assert np.abs(gram.matrix - j @ j.T).max() < 1e-10
    assert gram.n == 5
    assert gram.gradient_norm_bound == pytest.approx(
        np.linalg.norm(j, axis=1).max(), rel=1e-12
    )


def test_gram_symmetric_and_psd():
    # exactly symmetric below and above the parameter count (P = 161, 641)
    rng = np.random.default_rng(13)
    for n, widths in ((40, (6, 16, 1)), (300, (8, 16, 1)), (120, (8, 64, 1))):
        spec = MLPSpec(layer_widths=widths, init_seed=14)
        model = Model.at_init(spec)
        x = rng.standard_normal((n, widths[0]))
        gram = ntk_gram(spec, model.params, x)
        assert np.array_equal(gram.matrix, gram.matrix.T)
        eigs = np.linalg.eigvalsh(gram.matrix)
        assert eigs.min() >= -1e-8 * gram.trace() / gram.n


def test_gram_validation():
    with pytest.raises(DomainError):
        NTKGram(matrix=np.zeros((2, 3)), gradient_norm_bound=1.0)
    with pytest.raises(NumericalError):
        NTKGram(matrix=np.array([[1.0, 0.5], [0.1, 1.0]]), gradient_norm_bound=2.0)
    with pytest.raises(NumericalError):
        NTKGram(matrix=np.array([[1.0, np.nan], [np.nan, 1.0]]), gradient_norm_bound=2.0)
    with pytest.raises(NumericalError):
        # diagonal exceeds the claimed B^2
        NTKGram(matrix=np.eye(2) * 9.0, gradient_norm_bound=1.0)
    with pytest.raises(DomainError, match="nonempty"):
        NTKGram(matrix=np.zeros((0, 0)), gradient_norm_bound=1.0)
    spec = MLPSpec(layer_widths=(3, 4, 1))
    with pytest.raises(DomainError, match="empty batch"):
        ntk_gram(spec, init_params(spec), np.zeros((0, 3)))


def test_gram_symmetry_tolerance():
    base = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
    for gap, accepted in ((0.0, True), (1e-12, True), (1e-8, False)):
        m = base.copy()
        m[0, 2] += gap
        if accepted:
            assert NTKGram(matrix=m, gradient_norm_bound=2.0).n == 3
        else:
            with pytest.raises(NumericalError, match="asymmetry"):
                NTKGram(matrix=m, gradient_norm_bound=2.0)


# ---------------------------------------------------------------------------
# Bound term.


def test_bound_term_matches_explicit_solve():
    a = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
    gram = NTKGram(matrix=a, gradient_norm_bound=2.0)
    r = np.array([1.0, -1.0, 2.0])
    ridge = 0.1
    want = math.sqrt(r @ np.linalg.solve(a + ridge * np.eye(3), r) / 3)
    assert bound_term(gram, r, ridge) == pytest.approx(want, abs=1e-10)


def test_bound_term_identity_gram():
    gram = NTKGram(matrix=np.eye(4), gradient_norm_bound=1.0)
    assert bound_term(gram, np.ones(4), ridge=0.0) == pytest.approx(1.0, abs=1e-14)
    assert bound_term(gram, np.zeros(4), ridge=0.0) == 0.0


def test_bound_term_monotonic_in_residual_scale_and_ridge():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((6, 10))
    gram_matrix = g @ g.T
    gram = NTKGram(
        matrix=(gram_matrix + gram_matrix.T) / 2,
        gradient_norm_bound=float(np.sqrt(np.diag(gram_matrix).max())),
    )
    r = rng.standard_normal(6)
    small = bound_term(gram, r, 0.01)
    assert bound_term(gram, 2 * r, 0.01) == pytest.approx(2 * small, rel=1e-12)
    assert bound_term(gram, r, 1.0) < small


def test_bound_term_default_ridge():
    gram = NTKGram(matrix=np.diag([1.0, 2.0, 3.0]), gradient_norm_bound=2.0)
    assert default_ridge(gram) == pytest.approx(1e-6 * 6.0 / 3.0, rel=1e-15)
    explicit = bound_term(gram, np.ones(3), default_ridge(gram))
    assert bound_term(gram, np.ones(3)) == pytest.approx(explicit, rel=1e-15)


def test_bound_term_validation():
    gram = NTKGram(matrix=np.eye(2), gradient_norm_bound=1.0)
    with pytest.raises(DomainError):
        bound_term(gram, np.ones(3))
    with pytest.raises(DomainError):
        bound_term(gram, np.array([np.inf, 0.0]))
    for ridge in (-0.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            bound_term(gram, np.ones(2), ridge=ridge)
    singular = NTKGram(matrix=np.zeros((3, 3)), gradient_norm_bound=0.0)
    with pytest.raises(NumericalError, match="singular"):
        bound_term(singular, np.ones(3), ridge=0.0)
