"""Markov-chain coordinate sparsifiers for communication-efficient training.

The package has three layers: compressors (mask laws and the sparsifying
operator, on numpy kernels), exact chain analysis (stationary distributions,
mixing times, ergodicity bounds, hitting times), and a distributed-training
stack (logistic-regression objectives, three compressed-gradient optimizers,
an experiment harness with a CLI). The live compressors and the chain
analysis share one coordinate law, ``kernels.coordinate_law``.
"""

from .compressors import (
    ALL_KINDS,
    BANLAST,
    IDENTITY,
    KAWASAKI,
    NATURAL,
    PERMK,
    RAND,
    Compressor,
    sparsify,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InfeasibleSampleError,
    InvalidArgumentError,
    MarkosparseError,
    NonErgodicError,
    NumericalError,
    ParseError,
    TooLargeError,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_KINDS", "BANLAST", "IDENTITY", "KAWASAKI", "NATURAL", "PERMK", "RAND",
    "Compressor", "sparsify",
    "MarkosparseError", "InvalidArgumentError", "InfeasibleSampleError",
    "ConfigError", "ParseError", "NonErgodicError", "TooLargeError",
    "NumericalError", "DivergenceError",
    "__version__",
]
