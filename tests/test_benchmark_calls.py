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
from markosparse.compressors import Compressor
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


def test_the_benchmark_workloads_names_still_bind():
    # perfbench/workloads.py, train: the fields _train sets on its base
    # config and those it replaces for each run
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    assert {"path", "dim", "clients", "lam", "gamma", "pct", "T", "seed",
            "optimizer", "compressor", "K", "b", "p"} <= fields
    assert isinstance(harness.CSV_HEADER, str)
    # hitting: the alpha grid, its (d, m) pairs and the exact and formula means
    assert len(harness.ALPHA_GRID) > 0
    inspect.signature(harness.alpha_to_dm).bind(10.0)
    inspect.signature(chain_analysis.optimal_history_size).bind(10.0)
    inspect.signature(chain_analysis.banlast_hitting_time_exact).bind(10.0, 7)
    inspect.signature(chain_analysis.expected_hitting_time_banlast).bind(10.0, 7)
    inspect.signature(chain_analysis.monte_carlo_hitting_time).bind(
        "banlast", 10, m=1, K=7, b=50.0, trials=100, seed=1)
    # chain: the calls analyze-chain makes
    inspect.signature(chain_analysis.stationary_distribution).bind("chain")
    inspect.signature(chain_analysis.newest_mask_marginal).bind("chain", "pi")
    inspect.signature(chain_analysis.mixing_time).bind("chain", 0.05)


def test_the_benchmark_observers_find_their_arguments_and_attributes():
    # perfbench/layers.py reads these names from each call's bound arguments
    def parameters(fn):
        return inspect.signature(fn).parameters

    assert "self" in parameters(Compressor.compress)
    assert "chain" in parameters(chain_analysis.stationary_distribution)
    assert "trials" in parameters(chain_analysis.monte_carlo_hitting_time)
    # ... and these attributes from what the calls return
    stationary = {f.name for f in dataclasses.fields(chain_analysis.StationaryResult)}
    assert {"iterations", "recurrent", "pi"} <= stationary
    assert hasattr(chain_analysis.ChainModel, "n_states")
    assert {"d", "m"} <= {f.name for f in dataclasses.fields(chain_analysis.ChainModel)}
    assert Compressor("rand", d=4, m=1).bits_per_coord == 32
    assert {"t", "coords_sent_cum"} <= {f.name for f in dataclasses.fields(TrainTrace)}
