"""The benchmark's calls into the package still bind.

perfbench/ calls the package through names that no other caller uses, and
the tier-1 command does not run perfbench/tests, so a change to one of them
would first show as a failed benchmark run. This module checks them without
running the benchmark; the chain workload's inputs are read from
perfbench/workloads.py itself, which is loaded but never changed. ROADMAP
item A, which brings the benchmark up to date with the package, retires it.

The chain workload still passes joint_law=True for kawasaki at m > 1.
build_transition_matrix ignores that keyword, since every kind now builds
its table from the law the sampler draws from, and keeps it only so that
call still binds until item A drops it from the workload.
"""

import dataclasses
import importlib.util
import inspect
import os

import pytest

from markosparse import chain_analysis, harness, kernels
from markosparse.compressors import Compressor
from markosparse.optimizers import TrainTrace
from test_chain_analysis import CHAIN_PINS

WORKLOADS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "perfbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_chains_bind_and_its_smoke_chains_build():
    workloads = _workloads()
    signature = inspect.signature(chain_analysis.build_transition_matrix)
    for kind, kwargs in workloads.FULL.chains:
        signature.bind(kind, **kwargs)
    for kind, kwargs in workloads.SMOKE.chains:
        chain_analysis.build_transition_matrix(kind, **kwargs)


@pytest.mark.parametrize("kind, kwargs", [
    pin[:2] for pin in CHAIN_PINS if pin[0] == "kawasaki" and pin[1]["m"] > 1])
def test_joint_law_changes_no_table(kind, kwargs):
    table = chain_analysis.build_transition_matrix(kind, **kwargs).table
    joint = chain_analysis.build_transition_matrix(kind, **kwargs, joint_law=True).table
    assert joint.tobytes() == table.tobytes()


def test_the_benchmark_calls_into_the_package_still_bind():
    # perfbench/workloads.py: the train workload
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
