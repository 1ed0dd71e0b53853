"""Shallow feed-forward networks trained by backpropagation.

Each neuron computes z = w0 + sum_i w_i x_i followed by an activation; the
output layer is identity because targets are standardized reals. Training
minimizes mean squared error with adaptive-moment updates (plain gradient
descent is available for convexity checks), restores the parameters with the
best validation loss, and is bitwise deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from surrkit.data import write_csv
from surrkit.errors import InputError, NumericError

ACTIVATIONS = ("tanh", "relu", "identity")
OPTIMIZERS = ("adam", "sgd")


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
    learning_rate: float = 1e-3
    max_epochs: int = 500
    batch_size: int = 32
    early_stop_patience: int = 50
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise InputError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise InputError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.batch_size < 1:
            raise InputError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 <= self.early_stop_patience <= self.max_epochs:
            raise InputError(
                f"early_stop_patience must lie in [0, max_epochs], got "
                f"{self.early_stop_patience}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise InputError(f"unknown optimizer {self.optimizer!r}; use one of {OPTIMIZERS}")


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
        return mlp_forward(self, X_scaled)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        return np.tanh(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    return z


def _activate_grad(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if kind == "relu":
        return np.where(z > 0, 1.0, 0.0)
    return np.ones_like(z)


def init_model(arch: MlpArchitecture, seed: int) -> MlpModel:
    """Scaled-uniform fan-in initialization, deterministic per seed."""
    return _init_from_rng(arch, np.random.default_rng(seed))


def mlp_forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Layer-wise z = W x + w0 with identity output activation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, np.newaxis]
    if X.shape[1] != model.architecture.input_dim:
        raise InputError(
            f"input has {X.shape[1]} features, network expects "
            f"{model.architecture.input_dim}"
        )
    a = X
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        a = z if i == last else _activate(z, model.architecture.activation)
    return a


def mse_loss(model: MlpModel, X: np.ndarray, Y: np.ndarray) -> float:
    diff = mlp_forward(model, X) - Y
    return float(np.mean(diff * diff))


def loss_gradients(
    model: MlpModel, X: np.ndarray, Y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE loss and its gradient for every weight matrix and bias vector."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, np.newaxis]
    act = model.architecture.activation
    last = len(model.weights) - 1

    pre: list[np.ndarray] = []
    activations: list[np.ndarray] = [X]
    a = X
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        pre.append(z)
        a = z if i == last else _activate(z, act)
        activations.append(a)

    diff = activations[-1] - Y
    loss = float(np.mean(diff * diff))
    delta = (2.0 / diff.size) * diff

    grads_w = [np.empty(0)] * len(model.weights)
    grads_b = [np.empty(0)] * len(model.biases)
    for i in range(last, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * _activate_grad(pre[i - 1], act)
    return loss, grads_w, grads_b


class _Adam:
    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def mlp_train(
    arch: MlpArchitecture,
    cfg: TrainConfig,
    X_train: np.ndarray,
    Y_train: np.ndarray,
    X_val: np.ndarray,
    Y_val: np.ndarray,
) -> MlpModel:
    """Train with minibatch updates and early stopping on validation loss.

    The parameters with the lowest validation MSE are restored at the end.
    An empty validation set disables early stopping and keeps the final
    parameters.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    Y_train = np.asarray(Y_train, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    Y_val = np.asarray(Y_val, dtype=np.float64)
    if Y_train.ndim == 1:
        Y_train = Y_train[:, np.newaxis]
    if Y_val.ndim == 1:
        Y_val = Y_val[:, np.newaxis]
    n = X_train.shape[0]
    if n == 0:
        raise InputError("training set is empty")
    if X_train.shape[1] != arch.input_dim or Y_train.shape[1] != arch.output_dim:
        raise InputError(
            f"data shapes ({X_train.shape[1]} -> {Y_train.shape[1]}) do not match "
            f"architecture ({arch.input_dim} -> {arch.output_dim})"
        )
    have_val = X_val.shape[0] > 0

    rng = np.random.default_rng(cfg.seed)
    model = _init_from_rng(arch, rng)
    params = model.weights + model.biases
    adam = _Adam(params, cfg.learning_rate) if cfg.optimizer == "adam" else None

    best_val = np.inf
    best_params: list[np.ndarray] | None = None
    bad_epochs = 0
    history: list[tuple[int, float, float]] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads_w, grads_b = loss_gradients(model, X_train[idx], Y_train[idx])
            if not np.isfinite(loss):
                raise NumericError(
                    f"training diverged at epoch {epoch} "
                    f"(learning_rate={cfg.learning_rate})"
                )
            grads = grads_w + grads_b
            if adam is not None:
                adam.step(params, grads)
            else:
                for p, g in zip(params, grads):
                    p -= cfg.learning_rate * g

        train_loss = mse_loss(model, X_train, Y_train)
        val_loss = mse_loss(model, X_val, Y_val) if have_val else float("nan")
        if not np.isfinite(train_loss):
            raise NumericError(
                f"training diverged at epoch {epoch} (learning_rate={cfg.learning_rate})"
            )
        history.append((epoch, train_loss, val_loss))

        if have_val:
            if val_loss < best_val:
                best_val = val_loss
                best_params = [p.copy() for p in params]
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.early_stop_patience:
                    break

    if best_params is not None:
        k = len(model.weights)
        model.weights = best_params[:k]
        model.biases = best_params[k:]
    model.training_history = history
    return model


def _init_from_rng(arch: MlpArchitecture, rng: np.random.Generator) -> MlpModel:
    weights, biases = [], []
    dims = arch.layer_dims()
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(architecture=arch, weights=weights, biases=biases)


def export_history_csv(model: MlpModel, path) -> None:
    """Write per-epoch train/val loss as CSV."""
    write_csv(
        path,
        ["epoch", "train_loss", "val_loss"],
        (
            [epoch, repr(train_loss), repr(val_loss)]
            for epoch, train_loss, val_loss in model.training_history
        ),
    )
