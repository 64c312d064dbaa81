import os

import numpy as np
import pytest
from hypothesis import settings

from markosparse.objectives import parse_libsvm, partition
from problems import synthetic_binary_dataset

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_LIBSVM = """+1 1:0.5 3:-1.25
-1 2:2.0
+1 1:1.0 2:0.25 4:0.75
-1 3:0.5 4:-0.5
"""


@pytest.fixture
def tiny_dataset():
    return parse_libsvm(TINY_LIBSVM)


@pytest.fixture(scope="session")
def mushrooms_path():
    return os.path.join(REPO_ROOT, "data", "mushrooms_synth.libsvm")


@pytest.fixture(scope="session")
def small_problem():
    """40 rows, d=8, 4 shards, lambda 0.1."""
    ds = synthetic_binary_dataset(n_rows=40, d=8, nnz_per_row=3, seed=11)
    return partition(ds, 4, np.random.default_rng(3), lam=0.1)
