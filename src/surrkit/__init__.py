"""Multi-fidelity surrogate modeling toolkit.

Data enters as rank-3 tensors (sample, scalar, coordinate), is flattened to
2-D matrices for training, standardized with stored scalers, and modeled with
exact Gaussian process regression or shallow feed-forward networks. Low- and
high-fidelity datasets are fused by training the high-fidelity surrogate on
inputs augmented with low-fidelity predictions.
"""

__version__ = "0.1.0"

from surrkit.data import DataTensor, FidelityDataset, flatten, unflatten

__all__ = [
    "DataTensor",
    "FidelityDataset",
    "flatten",
    "unflatten",
    "__version__",
]
