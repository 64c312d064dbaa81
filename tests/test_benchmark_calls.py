"""The benchmark's calls into the package still bind.

perfbench/ calls the package through names that no other caller uses, and
the tier-1 command does not run perfbench/tests, so a change to one of them
would first show as a failed benchmark run. This module checks them without
running the benchmark. ROADMAP item A, which brings the benchmark up to date
with the package, retires it.
"""

import dataclasses
import inspect

from markosparse import chain_analysis, harness, kernels
from markosparse.optimizers import TrainTrace


def test_the_benchmark_calls_into_the_package_still_bind():
    # perfbench/workloads.py: the chain and train workloads
    inspect.signature(chain_analysis.build_transition_matrix).bind(
        "kawasaki", d=6, m=2, K=2, joint_law=True)
    inspect.signature(harness.run_experiment).bind(
        harness.ExperimentConfig(), csv_path="run.csv", quiet=True)
    # perfbench/layers.py reads P; workloads.py reads the trace's wallclock
    # and layers.py its rows
    assert hasattr(chain_analysis.ChainModel, "P")
    assert {"wallclock", "rows"} <= {f.name for f in dataclasses.fields(TrainTrace)}
    # perfbench/child.py records the backend of every run
    assert hasattr(kernels, "backend_name")
