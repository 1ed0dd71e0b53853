"""Shallow feed-forward networks trained by backpropagation.

Each neuron computes z = w0 + sum_i w_i x_i followed by an activation; the
output layer is identity because targets are standardized reals. Training
minimizes mean squared error with L-BFGS-B on the full training batch,
restores the parameters with the best validation loss and is bitwise
deterministic for a given seed. Training keeps every weight and bias in one
flat vector, of which the model's arrays are views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from surrkit.blas import _one_scipy_blas_thread
from surrkit.data import as_matrix, write_csv
from surrkit.errors import InputError, NumericError

ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(int(w) for w in self.hidden_layers))
        if self.input_dim < 1 or self.output_dim < 1:
            raise InputError("input_dim and output_dim must be >= 1")
        if len(self.hidden_layers) < 1:
            raise InputError("at least one hidden layer is required")
        if any(w < 1 for w in self.hidden_layers):
            raise InputError(f"hidden widths must be >= 1, got {self.hidden_layers}")
        if self.activation not in ACTIVATIONS:
            raise InputError(f"unknown activation {self.activation!r}; use one of {ACTIVATIONS}")

    def layer_dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_layers, self.output_dim]

    def parameter_count(self) -> int:
        dims = self.layer_dims()
        return sum(dims[i] * dims[i + 1] + dims[i + 1] for i in range(len(dims) - 1))

    def describe(self) -> str:
        return (
            f"mlp({self.input_dim}-" + "-".join(map(str, self.hidden_layers))
            + f"-{self.output_dim}, {self.activation})"
        )


@dataclass(frozen=True)
class TrainConfig:
    """How ``mlp_train`` trains: at most ``max_epochs`` L-BFGS-B iterations
    from the initial parameters of ``seed``.

    ``learning_rate``, ``batch_size`` and ``early_stop_patience`` are
    accepted so that configs that set them keep loading; no training reads
    them.
    """

    learning_rate: float = 1e-3
    max_epochs: int = 500
    batch_size: int = 32
    early_stop_patience: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(eq=False)
class MlpModel:
    """Weights and biases per layer; treated as immutable once trained."""

    architecture: MlpArchitecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    training_history: list[tuple[int, float, float]] = field(default_factory=list)

    def parameter_count(self) -> int:
        return self.architecture.parameter_count()

    def describe(self) -> str:
        return self.architecture.describe()

    def predict(self, X_scaled: np.ndarray) -> np.ndarray:
        """Network output at inputs in scaled space."""
        dim = self.architecture.input_dim
        return self._predict(as_matrix(X_scaled, "X_scaled", dim, finite=False))

    def _predict(self, X_scaled: np.ndarray) -> np.ndarray:
        """``predict`` at a matrix of the network's width, as
        ``GprModel._predict`` takes it.

        Non-finite inputs raise ``InputError``, as in ``GprModel.predict``:
        a finite raw site can overflow when its scaler divides it.
        """
        if not np.isfinite(X_scaled).all():
            raise InputError("X_scaled contains non-finite entries")
        return _activations(self, X_scaled)[-1]


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _layer_views(flat: np.ndarray, arch: MlpArchitecture):
    """Weight matrices and bias vectors as views, layer by layer, into ``flat``."""
    weights, biases, at = [], [], 0
    dims = arch.layer_dims()
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


def _model_at(arch: MlpArchitecture, theta: np.ndarray) -> MlpModel:
    """A model whose weights and biases are views into the parameter vector ``theta``."""
    weights, biases = _layer_views(theta, arch)
    return MlpModel(architecture=arch, weights=weights, biases=biases)


def init_model(arch: MlpArchitecture, seed: int) -> MlpModel:
    """Scaled-uniform fan-in initialization, deterministic per seed."""
    return _model_at(arch, _init_theta(arch, np.random.default_rng(seed)))


def _activations(model: MlpModel, X: np.ndarray) -> list[np.ndarray]:
    """``X`` and each layer's output z = W x + w0 after its activation; the
    output layer's is the identity, so the last entry is the network's output."""
    activations = [X]
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = activations[-1] @ W + b
        activations.append(z if i == last else _activate(z, model.architecture.activation))
    return activations


def mlp_forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Layer-wise z = W x + w0 with identity output activation."""
    X = as_matrix(X, "X", model.architecture.input_dim, finite=False)
    return _activations(model, X)[-1]


def _mean_square(diff: np.ndarray) -> float:
    """``np.mean(diff * diff)``: the same sum and division, without its dispatch."""
    sq = diff * diff
    return float(np.add.reduce(sq, axis=None) / sq.size)


def mse_loss(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> float:
    return _mean_square(mlp_forward(model, X) - Y)


def loss_gradients(
    model: MlpModel, X: np.ndarray, Y: np.ndarray, out: np.ndarray | None = None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE loss and its gradient for every weight matrix and bias vector.

    The gradients are views into ``out``, a flat vector laid out as the
    training parameter vector (a new one when ``None``). The backward pass
    reads the activations the forward pass stored.
    """
    arch = model.architecture
    act = arch.activation
    last = len(model.weights) - 1
    activations = _activations(model, as_matrix(X, "X", arch.input_dim, finite=False))
    diff = activations[-1] - as_matrix(Y, "Y", arch.output_dim, finite=False)
    loss = _mean_square(diff)
    delta = (2.0 / diff.size) * diff

    if out is None:
        out = np.empty(arch.parameter_count())
    grads_w, grads_b = _layer_views(out, arch)
    for i in range(last, -1, -1):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ model.weights[i].T
            if act == "tanh":
                a = activations[i]
                delta *= 1.0 - a * a
            elif act == "relu":
                delta *= activations[i] > 0
    return loss, grads_w, grads_b


def mlp_train(
    arch: MlpArchitecture,
    cfg: TrainConfig,
    X_train: np.ndarray,
    Y_train: np.ndarray,
    X_val: np.ndarray,
    Y_val: np.ndarray,
) -> MlpModel:
    """Train by L-BFGS-B from the seeded initial parameters and keep the best
    validation iterate.

    L-BFGS-B runs on the whole training bin for at most ``max_epochs``
    iterations. Each iteration adds one ``training_history`` row: its
    number, the training MSE and the validation MSE. The parameters with the
    lowest validation MSE are restored at the end; an empty validation set
    keeps the final parameters. A non-finite training loss raises
    ``NumericError`` naming the iteration.
    """
    X_train, Y_train = _checked_bin(arch, X_train, Y_train, "training")
    X_val, Y_val = _checked_bin(arch, X_val, Y_val, "validation")
    if X_train.shape[0] == 0:
        raise InputError("training set is empty")

    history: list[tuple[int, float, float]] = []
    best_val, best_theta = np.inf, None

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        # A new gradient array per call: scipy keeps the last one it was given.
        grad = np.empty_like(x)
        loss = loss_gradients(_model_at(arch, x), X_train, Y_train, out=grad)[0]
        if not math.isfinite(loss):
            raise NumericError(f"training diverged at iteration {len(history) + 1}")
        return loss, grad

    def callback(intermediate_result) -> None:
        nonlocal best_val, best_theta
        x = intermediate_result.x
        # NaN with no validation rows, which never counts as best.
        val_loss = mse_loss(_model_at(arch, x), X_val, Y_val) if len(X_val) else math.nan
        history.append((len(history) + 1, intermediate_result.fun, val_loss))
        if val_loss < best_val:
            best_val, best_theta = val_loss, x.copy()

    with _one_scipy_blas_thread():
        result = minimize(
            objective, _init_theta(arch, np.random.default_rng(cfg.seed)), jac=True,
            method="L-BFGS-B", callback=callback, options={"maxiter": cfg.max_epochs},
        )
    model = _model_at(arch, result.x if best_theta is None else best_theta)
    model.training_history = history
    return model


def _checked_bin(arch: MlpArchitecture, X, Y, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Finite inputs and targets of one bin, as matrices with equal row counts
    and the architecture's column counts; a rank-1 array is one column."""
    X = as_matrix(X, f"{label} input matrix", arch.input_dim)
    Y = as_matrix(Y, f"{label} target matrix", arch.output_dim)
    if X.shape[0] != Y.shape[0]:
        raise InputError(f"{label} set has {X.shape[0]} input rows but {Y.shape[0]} target rows")
    return X, Y


def _init_theta(arch: MlpArchitecture, rng: np.random.Generator) -> np.ndarray:
    """Parameter vector with scaled-uniform fan-in weights and zero biases."""
    theta = np.zeros(arch.parameter_count())
    for W in _layer_views(theta, arch)[0]:
        limit = 1.0 / np.sqrt(W.shape[0])
        W[:] = rng.uniform(-limit, limit, size=W.shape)
    return theta


def export_history_csv(model: MlpModel, path) -> None:
    """Write the training and validation loss of each L-BFGS-B iteration as CSV."""
    write_csv(
        path,
        ["epoch", "train_loss", "val_loss"],
        (
            [epoch, repr(train_loss), repr(val_loss)]
            for epoch, train_loss, val_loss in model.training_history
        ),
    )
