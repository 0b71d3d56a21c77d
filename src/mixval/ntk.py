"""Scalar-output feedforward model and its empirical tangent kernel.

A small MLP with smooth activations produces a scalar in [0, 1] (via a
sigmoid squash on the final layer, so the boundedness assumptions of
the generalization bound hold by construction).  One reverse pass,
``backprop``, serves both per-example parameter gradients (each
example's output weighted by 1) and the full-batch training step of
``evalharness.train_model`` (outputs weighted by their residuals).  It
takes every derivative from the forward pass's outputs, so nothing is
recomputed from pre-activations.  The Gram matrix of the per-example
gradients is the empirical NTK at the given parameters, and the bound
term is the quadratic form sqrt(r' (Gram + ridge I)^-1 r / n).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from ._seeds import substream
from .errors import DomainError, NumericalError

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
        if any(w < 1 for w in self.layer_widths):
            raise DomainError(f"all widths must be >= 1, got {self.layer_widths}")
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


@dataclass(frozen=True)
class ParamVector:
    """Flat parameter sequence with its layer-shape manifest.

    Layout per layer: weight matrix (row major), then bias vector.
    """

    values: np.ndarray
    weight_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        expected = sum(o * i + o for o, i in self.weight_shapes)
        if self.values.ndim != 1 or len(self.values) != expected:
            raise DomainError(
                f"parameter vector has {self.values.shape}, manifest needs {expected}"
            )

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Unflatten into (weights, bias) per layer.

        Views: writing through them writes ``values``.  Only the owner of
        the vector may write, as ``evalharness.train_model`` does with the
        fresh parameters it trains; everyone else only reads.
        """
        return _layer_views(self.values, self.weight_shapes)


def _layer_views(flat: np.ndarray, weight_shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    # (weights, bias) views per layer into the last axis of flat, which
    # holds the ParamVector layout: a vector, or one row per example
    lead = flat.shape[:-1]
    out = []
    pos = 0
    for o, i in weight_shapes:
        w = flat[..., pos : pos + o * i].reshape(*lead, o, i)
        pos += o * i
        b = flat[..., pos : pos + o]
        pos += o
        out.append((w, b))
    return out


def init_params(spec: MLPSpec) -> ParamVector:
    """Draw weights i.i.d. zero mean with variance 1/fan-in; biases zero."""
    rng = substream(spec.init_seed, _INIT_STREAM)
    parts = []
    for o, i in spec.weight_shapes():
        parts.append(rng.standard_normal(o * i) / math.sqrt(i))
        parts.append(np.zeros(o))
    return ParamVector(
        values=np.concatenate(parts), weight_shapes=tuple(spec.weight_shapes())
    )


def _check_batch(spec: MLPSpec, x: np.ndarray) -> np.ndarray:
    a = np.asarray(x, dtype=float)
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

    ``layers`` is ``ParamVector.layers()``; the last entry has shape
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


def predict(spec: MLPSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Model outputs for a batch (or single vector) of inputs."""
    xb = _check_batch(spec, x)
    return layer_outputs(spec, params.layers(), xb)[-1][:, 0]


def forward(spec: MLPSpec, params: ParamVector, x: np.ndarray) -> float:
    """Scalar model output for one input vector."""
    return float(predict(spec, params, x)[0])


def gradients(spec: MLPSpec, params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Per-example gradients of the output w.r.t. all parameters.

    Returns an (n, n_params) matrix in the ParamVector layout: one
    ``backprop`` over the batch writes each layer's weight and bias
    blocks into it in place.
    """
    xb = _check_batch(spec, x)
    layers = params.layers()
    outputs = layer_outputs(spec, layers, xb)
    g = np.empty((len(xb), len(params.values)))
    blocks = _layer_views(g, params.weight_shapes)
    for li, delta, h_in in backprop(spec, layers, outputs, np.ones((len(xb), 1))):
        gw, gb = blocks[li]
        np.multiply(delta[:, :, None], h_in[:, None, :], out=gw)
        gb[...] = delta
    return g


@dataclass(frozen=True)
class NTKGram:
    """Empirical tangent-kernel Gram matrix with the gradient-norm bound B.

    Cheap structural invariants (square, symmetric, nonnegative
    diagonal bounded by B^2) are validated here; positive
    semidefiniteness holds by construction as a gradient Gram matrix
    and is asserted spectrally in tests, not per instance.
    """

    matrix: np.ndarray
    gradient_norm_bound: float

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DomainError(f"Gram matrix must be square and nonempty, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericalError("Gram matrix contains non-finite entries")
        # syrk Grams are exactly symmetric: skip the n x n temporaries then
        if not np.array_equal(m, m.T) and np.abs(m - m.T).max() > 1e-9:
            raise NumericalError("Gram matrix asymmetry exceeds 1e-9")
        d = np.diag(m)
        if d.min() < -1e-12 or d.max() > self.gradient_norm_bound**2 + 1e-9:
            raise NumericalError("Gram diagonal outside [0, B^2]")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def trace(self) -> float:
        return float(np.trace(self.matrix))


def ntk_gram(spec: MLPSpec, params: ParamVector, x: np.ndarray) -> NTKGram:
    """Gram[i][j] = <grad f(x_i), grad f(x_j)> at the given parameters."""
    g = gradients(spec, params, x)
    if len(g) == 0:
        raise DomainError("NTK Gram of an empty batch is undefined")
    m = g @ g.T  # numpy computes g @ g.T with syrk: exactly symmetric
    bound = float(np.sqrt(np.maximum(np.diag(m), 0.0).max()))
    return NTKGram(matrix=m, gradient_norm_bound=bound)


def default_ridge(gram: NTKGram) -> float:
    """Relative ridge 1e-6 * trace / n (scale invariant)."""
    return 1e-6 * gram.trace() / gram.n


def _condition(gram: NTKGram, ridge: float) -> float:
    # for error messages only: the solve overwrites its ridged copy
    return float(np.linalg.cond(gram.matrix + ridge * np.eye(gram.n)))


def bound_term(
    gram: NTKGram, residuals: np.ndarray, ridge: float | None = None
) -> float:
    """sqrt(r' (Gram + ridge I)^-1 r / n) via a linear solve.

    ``ridge=None`` applies the relative default; the system is solved
    with a Cholesky factorization (never an explicit inverse).
    """
    r = np.asarray(residuals, dtype=float).ravel()
    if len(r) != gram.n:
        raise DomainError(f"{len(r)} residuals for a {gram.n}-point Gram matrix")
    if not np.all(np.isfinite(r)):
        raise DomainError("residuals must be finite")
    if ridge is None:
        ridge = default_ridge(gram)
    if not (math.isfinite(ridge) and ridge >= 0):
        raise DomainError(f"ridge must be finite and >= 0, got {ridge}")
    a = gram.matrix.copy(order="F")  # Fortran order: cho_factor works in place
    a.flat[:: gram.n + 1] += ridge
    try:
        sol = cho_solve(cho_factor(a, overwrite_a=True), r)
    except LinAlgError as exc:
        raise NumericalError(
            f"Gram system singular after ridge {ridge:g} "
            f"(condition number ~ {_condition(gram, ridge):.3e})"
        ) from exc
    quad = float(r @ sol)
    if not math.isfinite(quad) or quad < -1e-8 * max(1.0, gram.trace()):
        raise NumericalError(
            f"quadratic form {quad!r} unusable; Gram condition number "
            f"~ {_condition(gram, ridge):.3e}"
        )
    return math.sqrt(max(quad, 0.0) / gram.n)


@dataclass(frozen=True)
class Model:
    """A spec bound to concrete parameters."""

    spec: MLPSpec
    params: ParamVector

    @classmethod
    def at_init(cls, spec: MLPSpec) -> "Model":
        return cls(spec=spec, params=init_params(spec))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return predict(self.spec, self.params, x)
