"""Tangent-kernel gradients, Gram matrices, and the bound term."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from mixval.errors import DomainError, NumericalError
from mixval.ntk import (
    MLPSpec,
    Model,
    NTKGram,
    _sigmoid,
    bound_term,
    default_ridge,
    gradients,
    init_params,
    ntk_gram,
    predict,
)

from conftest import forward


def per_example_gradient(spec: MLPSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of the scalar output for one input vector: the one row of
    a one-point ``gradients`` batch."""
    return gradients(spec, params, x)[0]


def finite_difference_gradient(spec, params, x, h: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(params)
    for j in range(len(params)):
        up, down = params.copy(), params.copy()
        up[j] += h
        down[j] -= h
        f_up = forward(spec, up, x)
        f_down = forward(spec, down, x)
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
    assert np.array_equal(a, b)
    c = init_params(MLPSpec(layer_widths=(3, 5, 1), init_seed=43))
    assert not np.array_equal(a, c)
    for w, bias in spec.layers(a):
        assert np.all(bias == 0.0)


def test_init_variance_tracks_fan_in():
    spec = MLPSpec(layer_widths=(256, 256, 1), init_seed=0)
    w0, _ = spec.layers(init_params(spec))[0]
    assert w0.var() == pytest.approx(1.0 / 256, rel=0.10)


# ---------------------------------------------------------------------------
# Forward pass.


def test_linear_identity_model_exact_forward():
    # identity squash, identity activation would need a hidden layer;
    # with no hidden layers the net is w @ x + b exactly
    spec = MLPSpec(layer_widths=(3, 1), output_squash="identity")
    params = np.array([2.0, -1.0, 0.5, 0.25])
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



@pytest.mark.parametrize("widths", [(3.5, 4, 1), (3, True, 1), (3, 4.0, 1), (3, "4", 1)])
def test_spec_rejects_non_integer_widths(widths):
    # True would build a 1-unit layer, 3.5 a bare numpy TypeError later
    at = next(i for i, w in enumerate(widths) if type(w) is not int)
    message = f"layer_widths[{at}] must be an integer, got {widths[at]!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        MLPSpec(layer_widths=widths)


def test_spec_accepts_numpy_integer_widths():
    spec = MLPSpec(layer_widths=(np.int64(3), np.int32(4), 1))
    assert init_params(spec).shape == (spec.n_params,) == (21,)


def test_batch_validation():
    spec = MLPSpec(layer_widths=(3, 1))
    params = init_params(spec)
    with pytest.raises(DomainError):
        predict(spec, params, np.zeros((4, 2)))
    # a non-finite input is bad input, rejected before any gradient is taken
    with pytest.raises(DomainError, match="^inputs must be finite, got nan$"):
        ntk_gram(spec, params, np.array([[np.nan, 0.0, 0.0]]))


def test_parameters_must_fit_the_spec():
    # a (4, 32, 1) vector read as (4, 8, 1) would predict with 32 hidden units
    spec = MLPSpec(layer_widths=(4, 8, 1))
    wide = init_params(MLPSpec(layer_widths=(4, 32, 1)))
    x = np.zeros((3, 4))
    for call in (predict, gradients, ntk_gram):
        with pytest.raises(DomainError, match=f"need {spec.n_params}"):
            call(spec, wide, x)
    with pytest.raises(DomainError, match=f"need {spec.n_params}"):
        Model(spec, wide).predict(x)


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
    params = np.array([0.3, -0.2, 0.9, 0.0])
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
    layers = spec.layers(params)
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
    params = base + 0.3 * rng.standard_normal(spec.n_params)
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


def test_gram_diagonal_check_is_relative_at_large_scale():
    # B = sqrt(max diag) squares back to max diag only within an ulp,
    # more than 1e-9 once the diagonal reaches ~1e7
    spec = MLPSpec((4, 8, 1), activation="identity", output_squash="identity")
    params = init_params(spec)
    rng = np.random.default_rng(3)
    for _ in range(50):
        gram = ntk_gram(spec, params, rng.standard_normal((5, 4)) * 1e3)
        assert gram.gradient_norm_bound**2 == pytest.approx(np.diag(gram.matrix).max(), rel=1e-15)


def test_gram_above_parameter_count_keeps_the_jacobian():
    # P = 16: n = 16 is held as the matrix, n = 17 and 30 as the Jacobian
    spec = MLPSpec(layer_widths=(3, 3, 1), init_seed=1)
    params = init_params(spec)
    x = np.random.default_rng(2).standard_normal((30, 3))
    for n, held_as_jacobian in ((16, False), (17, True), (30, True)):
        gram = ntk_gram(spec, params, x[:n])
        g = gradients(spec, params, x[:n])
        assert (gram.jacobian is not None) == held_as_jacobian
        # the n x n matrix, and so gram.csv, has the bytes of g @ g.T
        assert gram.matrix.tobytes() == (g @ g.T).tobytes()
        assert gram.n == n
        assert gram.trace() == pytest.approx(np.trace(gram.matrix), rel=1e-14)
        assert gram.gradient_norm_bound == pytest.approx(
            np.linalg.norm(g, axis=1).max(), rel=1e-14
        )


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


def exact_quadratic_form(j: np.ndarray, r: np.ndarray, ridge: float) -> Fraction:
    """r' (J J' + ridge I)^-1 r in exact rationals of the float64 inputs,
    by Gaussian elimination of the P x P system (J'J + ridge I) s = J'r."""
    jf = [[Fraction(v) for v in row] for row in j.tolist()]
    rf = [Fraction(v) for v in r.tolist()]
    lam = Fraction(ridge)
    p = j.shape[1]
    b = [sum((row[a] * ri for row, ri in zip(jf, rf)), Fraction(0)) for a in range(p)]
    m = [
        [sum((row[a] * row[c] for row in jf), Fraction(0)) + (lam if a == c else 0)
         for c in range(p)] + [b[a]]
        for a in range(p)
    ]
    for c in range(p):
        for k in range(c + 1, p):
            f = m[k][c] / m[c][c]
            m[k] = [mk - f * mc for mk, mc in zip(m[k], m[c])]
    sol = [Fraction(0)] * p
    for a in range(p - 1, -1, -1):
        rest = sum((m[a][c] * sol[c] for c in range(a + 1, p)), Fraction(0))
        sol[a] = (m[a][p] - rest) / m[a][a]
    # push-through: (J J' + ridge I)^-1 = (I - J (J'J + ridge I)^-1 J') / ridge
    rr = sum((ri * ri for ri in rf), Fraction(0))
    return (rr - sum((bi * si for bi, si in zip(b, sol)), Fraction(0))) / lam


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bound_term_above_parameter_count_matches_exact_solve(seed):
    # n = 30 > P = 16 at the default ridge: an n x n Cholesky misses by
    # up to 3.6e-11 relative on these seeds, the P x P solve by 2e-16
    spec = MLPSpec(layer_widths=(3, 3, 1))
    params = init_params(spec)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 3))
    r = rng.uniform(size=30) - predict(spec, params, x)
    gram = ntk_gram(spec, params, x)
    ridge = default_ridge(gram)
    want = math.sqrt(exact_quadratic_form(gradients(spec, params, x), r, ridge) / 30)
    assert bound_term(gram, r) == pytest.approx(want, rel=1e-11)


def test_gram_from_held_rows_equals_gram_from_inputs():
    # P = 16: n = 10 is held as the matrix, n = 30 as the Jacobian
    spec = MLPSpec(layer_widths=(3, 3, 1), init_seed=1)
    params = init_params(spec)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 3))
    for n in (10, 30):
        held = ntk_gram(spec, params, rows=gradients(spec, params, x[:n]))
        plain = ntk_gram(spec, params, x[:n])
        assert held.matrix.tobytes() == plain.matrix.tobytes()
        assert held.gradient_norm_bound == plain.gradient_norm_bound
        assert held.trace() == plain.trace()
        r = rng.uniform(size=n) - predict(spec, params, x[:n])
        assert bound_term(held, r) == bound_term(plain, r)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bound_term_solves_with_the_carried_jtj(seed):
    # J'J summed over two row blocks, as coalition_value_fn sums its
    # members'; the term still matches the exact solve, and J'J is read,
    # never written
    spec = MLPSpec(layer_widths=(3, 3, 1))
    params = init_params(spec)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 3))
    g = gradients(spec, params, x)
    jtj = g[:12].T @ g[:12] + g[12:].T @ g[12:]
    kept = jtj.copy()
    gram = ntk_gram(spec, params, rows=g, jtj=jtj)
    assert gram.jtj is jtj
    r = rng.uniform(size=30) - predict(spec, params, x)
    want = math.sqrt(exact_quadratic_form(g, r, default_ridge(gram)) / 30)
    assert bound_term(gram, r) == pytest.approx(want, rel=1e-11)
    assert np.array_equal(jtj, kept)
    # a J'J that is not J's moves the term: the carried one is what is solved
    assert bound_term(ntk_gram(spec, params, rows=g, jtj=2.0 * jtj), r) != bound_term(gram, r)


def test_gram_from_rows_validation():
    spec = MLPSpec(layer_widths=(3, 3, 1))
    params = init_params(spec)
    x = np.random.default_rng(6).standard_normal((20, 3))
    g = gradients(spec, params, x)
    with pytest.raises(DomainError, match="exactly one"):
        ntk_gram(spec, params)
    with pytest.raises(DomainError, match="exactly one"):
        ntk_gram(spec, params, x, rows=g)
    with pytest.raises(DomainError, match="need 16 per row"):
        ntk_gram(spec, params, rows=g[:, :-1])
    with pytest.raises(DomainError, match="16 parameters need"):
        ntk_gram(spec, params, rows=g, jtj=np.eye(15))
    jtj = g.T @ g
    asymmetric = jtj + np.triu(np.full_like(jtj, 1e-12), 1)
    for bad in (asymmetric, np.where(jtj == jtj.max(), np.inf, jtj)):
        with pytest.raises(NumericalError, match="finite and exactly symmetric"):
            ntk_gram(spec, params, rows=g, jtj=bad)


def test_bound_term_above_parameter_count_needs_a_ridge():
    # J J' has rank <= P < n: singular without a ridge in either form
    spec = MLPSpec(layer_widths=(3, 3, 1))
    x = np.random.default_rng(4).standard_normal((30, 3))
    gram = ntk_gram(spec, init_params(spec), x)
    assert gram.jacobian is not None
    with pytest.raises(NumericalError, match="singular after ridge 0"):
        bound_term(gram, np.ones(30), ridge=0.0)
    assert bound_term(gram, np.zeros(30)) == 0.0


@pytest.mark.filterwarnings("error")
def test_bound_term_failure_above_parameter_count_reports_the_solved_system():
    # 40 rows at P = 19 whose last three features are zero, so J'J is
    # singular, and a subnormal ridge: the form overflows.  The error names
    # the condition number of J'J + ridge I, the P x P system solved, with
    # no n x n product formed and no overflow warning escaping first.
    spec = MLPSpec(layer_widths=(4, 3, 1))
    params = init_params(spec)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 4))
    x[:, 1:] = 0.0
    gram = ntk_gram(spec, params, x)
    assert gram.jacobian is not None
    g = gradients(spec, params, x)
    want = f"{np.linalg.cond(g.T @ g + 5e-324 * np.eye(19)):.3e}"
    with pytest.raises(NumericalError, match=f"condition number ~ {re.escape(want)}"):
        bound_term(gram, 0.1 * rng.standard_normal(40), ridge=5e-324)
    assert gram._matrix is None
