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
from surrkit.data import as_matrix, check_below, write_csv
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

    def serving_plan(self, x_scaler, y_scaler) -> "MlpPlan":
        """This model as a stage from raw sites to raw outputs, between the
        ``preprocess.StandardScaler`` pair it was trained with: a network
        whose first layer takes raw sites, W / sd_x and b - mean_x (W / sd_x),
        and whose last gives raw outputs, W sd_y and b sd_y + mean_y.

        The plan's ``bound`` on a site's entries keeps every step of the
        unfolded stage (scaling, each layer before its activation,
        unscaling) below fmax / 4: a step maps inputs below M to outputs
        below g M + c, g its largest column sum of absolute coefficients
        and c its largest absolute offset, and a tanh caps its layer at 1.
        The same bounds hold the folded products, so none can overflow,
        not even inside BLAS, where no warning would tell.
        """
        sd_x, sd_y = x_scaler.divisor, y_scaler.divisor
        steps = [(1.0 / float(sd_x.min()), float(np.abs(x_scaler.means / sd_x).max()))]
        steps += [(float(np.abs(W).sum(axis=0).max()), float(np.abs(b).max()))
                  for W, b in zip(self.weights, self.biases)]
        steps.append((float(sd_y.max()), float(np.abs(y_scaler.means).max())))
        # Python floats, which overflow to inf without a warning.
        limit = float(np.finfo(np.float64).max) / 4.0
        saturates = self.architecture.activation == "tanh"
        bound, gain, reach = math.inf, 1.0, 0.0  # each output lies below gain |x| + reach
        for i, (g, c) in enumerate(steps):
            gain, reach = gain * g, reach * g + c
            if not reach < limit:
                bound = 0.0
            elif gain > 0.0:
                bound = min(bound, (limit - reach) / gain)
            if saturates and 0 < i < len(steps) - 2:
                gain, reach = 0.0, 1.0
        weights, biases = list(self.weights), list(self.biases)
        first = weights[0] / sd_x[:, np.newaxis]
        weights[0], biases[0] = first, biases[0] - x_scaler.means @ first
        weights[-1], biases[-1] = weights[-1] * sd_y, biases[-1] * sd_y + y_scaler.means
        return MlpPlan(MlpModel(self.architecture, weights, biases), bound)


@dataclass(frozen=True, eq=False)
class MlpPlan:
    """An MLP stage from raw sites to raw outputs, its scalers folded into
    its first and last layers (``MlpModel.serving_plan``)."""

    network: MlpModel
    bound: float

    def __call__(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The network's output at raw sites ``X``, a matrix of its width,
        in raw units, written into ``out`` if given. The sites' one check is
        against ``bound``, before any step can overflow; the forward pass is
        training's."""
        check_below(X, "X_star", self.bound)
        Y = _activations(self.network, X)[-1]
        if out is None:
            return Y
        out[...] = Y
        return out


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
