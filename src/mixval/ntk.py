"""Scalar-output feedforward model and its empirical tangent kernel.

A small MLP with smooth activations produces a scalar in [0, 1] (via a
sigmoid squash on the final layer, so the boundedness assumptions of
the generalization bound hold by construction).  Its parameters are
one flat float array; ``MLPSpec.layers`` alone declares how it splits
into each layer's weights and bias.  One reverse pass,
``backprop``, serves both per-example parameter gradients (each
example's output weighted by 1) and the full-batch training step of
``evalharness.train_model`` (outputs weighted by their residuals).  It
takes every derivative from the forward pass's outputs, so nothing is
recomputed from pre-activations.  The Gram matrix K = J J' of the
per-example gradients J is the empirical NTK at the given parameters,
and the bound term is the quadratic form sqrt(r' (K + ridge I)^-1 r / n),
solved in the smaller of the n x n and P x P spaces.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._seeds import substream
from .errors import DomainError, NumericalError, check_count, check_real, check_reals

_INIT_STREAM = "ntk-init"


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # stable in both tails: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
    # below, with e = e^-|z| serving both sides without masked indexing
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


# name -> (map, derivative as a function of the map's output)
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda h: 1.0 - h * h),
    "identity": (lambda z: z, np.ones_like),
}
_SQUASHES = {
    "sigmoid": (_sigmoid, lambda f: f * (1.0 - f)),
    "identity": (lambda z: z, np.ones_like),
}


@dataclass(frozen=True)
class MLPSpec:
    """Architecture of the scalar-output model.

    layer_widths is (input dim, hidden widths..., 1); the output width
    is fixed at 1.  ``output_squash='identity'`` disables the [0, 1]
    squashing for linear-model verification; the sigmoid default keeps
    outputs bounded.
    """

    layer_widths: tuple[int, ...]
    activation: str = "tanh"
    output_squash: str = "sigmoid"
    init_seed: int = 0

    def __post_init__(self) -> None:
        if len(self.layer_widths) < 2:
            raise DomainError("layer_widths needs at least (input dim, 1)")
        for i, width in enumerate(self.layer_widths):
            check_count(width, f"layer_widths[{i}]", 1)
        if self.layer_widths[-1] != 1:
            raise DomainError(f"output width must be 1, got {self.layer_widths[-1]}")
        if self.activation not in _ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        if self.output_squash not in _SQUASHES:
            raise DomainError(f"unknown output squash {self.output_squash!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    def weight_shapes(self) -> list[tuple[int, int]]:
        """(out, in) shape of each layer's weight matrix."""
        return [
            (self.layer_widths[i + 1], self.layer_widths[i])
            for i in range(len(self.layer_widths) - 1)
        ]

    @property
    def n_params(self) -> int:
        return sum(o * i + o for o, i in self.weight_shapes())

    def layers(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, bias) views per layer into the last axis of ``flat``.

        The one declaration of the parameter layout: per layer, the
        weight matrix row major, then the bias vector.  ``flat`` is a
        parameter vector or a matrix with one such row per example, as
        ``gradients`` returns.  Writing through the views writes
        ``flat``: only its owner may, as ``evalharness.train_model``
        does with the fresh parameters it trains.
        """
        if flat.shape[-1:] != (self.n_params,):
            raise DomainError(
                f"parameter array has shape {flat.shape}, "
                f"layers {self.layer_widths} need {self.n_params} per row"
            )
        lead = flat.shape[:-1]
        out = []
        pos = 0
        for o, i in self.weight_shapes():
            w = flat[..., pos : pos + o * i].reshape(*lead, o, i)
            pos += o * i
            out.append((w, flat[..., pos : pos + o]))
            pos += o
        return out


def init_params(spec: MLPSpec) -> np.ndarray:
    """Draw weights i.i.d. zero mean with variance 1/fan-in; biases zero."""
    rng = substream(spec.init_seed, _INIT_STREAM)
    params = np.zeros(spec.n_params)
    for w, _ in spec.layers(params):
        w[...] = rng.standard_normal(w.shape) / math.sqrt(w.shape[1])
    return params


def _check_batch(spec: MLPSpec, x: np.ndarray) -> np.ndarray:
    a = check_reals(x, "inputs")
    if a.ndim == 1:
        a = a[None, :]
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise DomainError(
            f"inputs must have {spec.input_dim} features, got shape {np.shape(x)}"
        )
    return a


def layer_outputs(
    spec: MLPSpec, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray
) -> list[np.ndarray]:
    """Forward pass over a checked batch: [x, h_1, ..., squashed output].

    ``layers`` is ``spec.layers(params)``; the last entry has shape
    (n, 1).  ``backprop`` takes its derivatives from these outputs.
    """
    act, _ = _ACTIVATIONS[spec.activation]
    squash, _ = _SQUASHES[spec.output_squash]
    outputs = [x]
    for w, b in layers[:-1]:
        outputs.append(act(outputs[-1] @ w.T + b))
    w, b = layers[-1]
    outputs.append(squash(outputs[-1] @ w.T + b))
    return outputs


def backprop(
    spec: MLPSpec,
    layers: list[tuple[np.ndarray, np.ndarray]],
    outputs: list[np.ndarray],
    weight: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Reverse pass of sum_i weight_i * f(x_i) from ``layer_outputs``.

    ``weight`` has shape (n, 1): ones give per-example output
    gradients, residuals give the gradient of the squared loss.  Yields
    (layer index, delta, layer input) from the last layer to the first;
    row i of delta (n, out) is weight_i times the derivative of f(x_i)
    with respect to that layer's pre-activation, so example i adds
    delta_i outer input_i to the weight gradient and delta_i to the bias
    gradient.  The delta of the layer below is computed before a layer
    is yielded, so the caller may update that layer's parameters in place.
    """
    _, dact = _ACTIVATIONS[spec.activation]
    _, dsquash = _SQUASHES[spec.output_squash]
    delta = dsquash(outputs[-1]) * weight
    for li in range(len(layers) - 1, -1, -1):
        below = (delta @ layers[li][0]) * dact(outputs[li]) if li else None
        yield li, delta, outputs[li]
        delta = below


def predict(spec: MLPSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Model outputs for a batch (or single vector) of inputs."""
    xb = _check_batch(spec, x)
    return layer_outputs(spec, spec.layers(params), xb)[-1][:, 0]


def gradients(spec: MLPSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-example gradients of the output w.r.t. all parameters.

    Returns an (n, n_params) matrix, each row in the parameter layout:
    one ``backprop`` over the batch writes each layer's weight and bias
    blocks into it in place.
    """
    xb = _check_batch(spec, x)
    layers = spec.layers(params)
    outputs = layer_outputs(spec, layers, xb)
    g = np.empty((len(xb), spec.n_params))
    blocks = spec.layers(g)
    for li, delta, h_in in backprop(spec, layers, outputs, np.ones((len(xb), 1))):
        gw, gb = blocks[li]
        np.multiply(delta[:, :, None], h_in[:, None, :], out=gw)
        gb[...] = delta
    return g


class NTKGram:
    """Empirical tangent-kernel Gram K = J J' with the gradient-norm bound B.

    J is the (n, P) matrix of per-example gradients.  A Gram holds one
    of two forms:

    - the n x n matrix, as ``NTKGram(matrix, gradient_norm_bound)``
      builds it and ``ntk_gram`` does when n <= P.  Cheap structural
      invariants (square, symmetric, nonnegative diagonal bounded by
      B^2) are validated here; positive semidefiniteness holds by
      construction as a gradient Gram matrix and is asserted
      spectrally in tests, not per instance;
    - J itself (``jacobian``), as ``ntk_gram`` keeps it when n > P.  B
      is then the largest row norm and the trace the sum of J's squared
      entries; ``matrix`` is formed as J @ J' on first read.  ``jtj`` is
      J'J when the caller already holds it (as a sum over row blocks,
      exactly symmetric), so ``bound_term`` need not form it.
    """

    def __init__(self, matrix: np.ndarray, gradient_norm_bound: float) -> None:
        m = matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DomainError(f"Gram matrix must be square and nonempty, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalError("Gram matrix contains non-finite entries")
        # syrk Grams are exactly symmetric: skip the n x n temporaries then
        if not np.array_equal(m, m.T) and np.abs(m - m.T).max() > 1e-9:
            raise NumericalError("Gram matrix asymmetry exceeds 1e-9")
        d = np.diag(m)
        # B = sqrt(max d) squares back to max d only to within an ulp,
        # which outgrows an absolute slack at large gradient scale
        b2 = gradient_norm_bound**2
        if d.min() < -1e-12 or d.max() > b2 + max(1e-9, 1e-12 * b2):
            raise NumericalError("Gram diagonal outside [0, B^2]")
        self._matrix = m
        self.jacobian: np.ndarray | None = None
        self.jtj: np.ndarray | None = None
        self.gradient_norm_bound = gradient_norm_bound
        self.n = len(m)
        self._trace = float(np.trace(m))

    @classmethod
    def of_jacobian(cls, jacobian: np.ndarray, jtj: np.ndarray | None = None) -> "NTKGram":
        """The Gram J J' of a nonempty (n, P) Jacobian, held as J (and J'J if given)."""
        sq_norms = np.einsum("ij,ij->i", jacobian, jacobian)
        if not np.all(np.isfinite(sq_norms)):
            raise NumericalError("Gram matrix contains non-finite entries")
        p = jacobian.shape[1]
        if jtj is not None:
            if jtj.shape != (p, p):
                raise DomainError(f"J'J has shape {jtj.shape}, {p} parameters need ({p}, {p})")
            if not (np.all(np.isfinite(jtj)) and np.array_equal(jtj, jtj.T)):
                raise NumericalError("J'J must be finite and exactly symmetric")
        gram = cls.__new__(cls)
        gram._matrix = None
        gram.jacobian = jacobian
        gram.jtj = jtj
        gram.gradient_norm_bound = float(np.sqrt(sq_norms.max()))
        gram.n = len(jacobian)
        gram._trace = float(sq_norms.sum())
        return gram

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self.jacobian @ self.jacobian.T  # syrk: exactly symmetric
        return self._matrix

    def trace(self) -> float:
        return self._trace


def ntk_gram(
    spec: MLPSpec,
    params: np.ndarray,
    x: np.ndarray | None = None,
    *,
    rows: np.ndarray | None = None,
    jtj: np.ndarray | None = None,
) -> NTKGram:
    """Gram[i][j] = <grad f(x_i), grad f(x_j)>, held as J when n > P.

    Either ``x`` is given, or ``rows``: the gradients of the batch when
    the caller already holds them.  ``jtj`` is their J'J, also held by
    the caller; the Gram carries it for ``bound_term`` when n > P.
    """
    if (x is None) == (rows is None):
        raise DomainError("ntk_gram takes exactly one of inputs x and gradient rows")
    if rows is None:
        g = gradients(spec, params, x)
    elif rows.ndim != 2 or rows.shape[1] != spec.n_params:
        raise DomainError(
            f"gradient rows have shape {rows.shape}, layers {spec.layer_widths} "
            f"need {spec.n_params} per row"
        )
    else:
        g = rows
    if len(g) == 0:
        raise DomainError("NTK Gram of an empty batch is undefined")
    if len(g) > spec.n_params:
        return NTKGram.of_jacobian(g, jtj)
    m = g @ g.T  # numpy computes g @ g.T with syrk: exactly symmetric
    bound = float(np.sqrt(np.maximum(np.diag(m), 0.0).max()))
    return NTKGram(matrix=m, gradient_norm_bound=bound)


def default_ridge(gram: NTKGram) -> float:
    """Relative ridge 1e-6 * trace / n (scale invariant)."""
    return 1e-6 * gram.trace() / gram.n


def _condition(gram: NTKGram, ridge: float) -> float:
    # for error messages only, of the system that was solved (the solve
    # overwrites its ridged copy): K + ridge I when the Gram holds K, else
    # J'J + ridge I, so that no n x n product is formed above P
    j = gram.jacobian
    a = gram.matrix if j is None else j.T @ j if gram.jtj is None else gram.jtj
    return float(np.linalg.cond(a + ridge * np.eye(len(a))))


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b for symmetric positive definite ``a``, factored in place.

    scipy.linalg is imported here, on the first solve, not with the
    package: it takes about 0.3 s and 28 MB to load.
    """
    from scipy.linalg import cho_factor, cho_solve

    return cho_solve(cho_factor(a, overwrite_a=True), b)


def _push_through(j: np.ndarray, r: np.ndarray, ridge: float, jtj: np.ndarray | None) -> float:
    """r' (J J' + ridge I)^-1 r through the P x P system J'J + ridge I.

    By the push-through identity (J J' + ridge I)^-1 = (I - J (J'J +
    ridge I)^-1 J') / ridge, ridge times the form is r'r - b'x with
    b = J'r and x = (J'J + ridge I)^-1 b: the minimum over x of
    ||r - J x||^2 + ridge ||x||^2.  It is evaluated as that sum at the
    solved x, where the solve's error enters squared, rather than as
    the difference r'r - b'x, which cancels.  ``jtj`` is J'J when the
    Gram carries it; it is copied, never written.
    """
    # J'J is exactly symmetric (from syrk, or summed from syrk blocks), so
    # its transpose is the same matrix in Fortran order, which cho_factor
    # factors in place: a carried J'J in a copy
    a = (j.T @ j).T if jtj is None else jtj.T.copy(order="F")
    a.flat[:: len(a) + 1] += ridge
    x = _cholesky_solve(a, j.T @ r)
    e = r - j @ x
    return float((e @ e + ridge * (x @ x)) / ridge)


def bound_term(
    gram: NTKGram, residuals: np.ndarray, ridge: float | None = None
) -> float:
    """sqrt(r' (Gram + ridge I)^-1 r / n) via a linear solve.

    ``ridge=None`` applies the relative default.  The system is solved
    with a Cholesky factorization, never an explicit inverse: of the
    n x n matrix K + ridge I when the Gram holds its matrix (n <= P),
    of the P x P matrix J'J + ridge I when it holds J (n > P), which
    is cheaper there and rounds less.  Above P, K has rank <= P < n,
    so ridge 0 is singular.
    """
    r = check_reals(residuals, "residuals").ravel()
    if len(r) != gram.n:
        raise DomainError(f"{len(r)} residuals for a {gram.n}-point Gram matrix")
    if ridge is None:
        ridge = default_ridge(gram)
    check_real(ridge, "ridge", ge=0)
    j = gram.jacobian
    if j is not None and ridge == 0:
        raise NumericalError(
            f"Gram system singular after ridge 0: rank <= {j.shape[1]} parameters "
            f"< {gram.n} points"
        )
    # a form that overflows is reported below as a NumericalError, not a warning
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if j is None:
                a = gram.matrix.copy(order="F")  # Fortran order: cho_factor works in place
                a.flat[:: gram.n + 1] += ridge
                quad = float(r @ _cholesky_solve(a, r))
            else:
                quad = _push_through(j, r, ridge, gram.jtj)
    except np.linalg.LinAlgError as exc:  # scipy.linalg raises this class too
        raise NumericalError(
            f"Gram system singular after ridge {ridge:g} "
            f"(condition number ~ {_condition(gram, ridge):.3e})"
        ) from exc
    if not math.isfinite(quad) or quad < -1e-8 * max(1.0, gram.trace()):
        raise NumericalError(
            f"quadratic form {quad!r} unusable; Gram condition number "
            f"~ {_condition(gram, ridge):.3e}"
        )
    return math.sqrt(max(quad, 0.0) / gram.n)


@dataclass(frozen=True)
class Model:
    """A spec bound to its flat parameter array."""

    spec: MLPSpec
    params: np.ndarray

    @classmethod
    def at_init(cls, spec: MLPSpec) -> "Model":
        return cls(spec=spec, params=init_params(spec))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return predict(self.spec, self.params, x)
