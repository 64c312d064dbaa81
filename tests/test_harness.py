"""Config loading, CSV emission, caching, sweeps and the hitting-time table."""

import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from markosparse import harness
from markosparse.errors import ConfigError, InvalidArgumentError, ParseError
from markosparse.harness import (
    CSV_HEADER,
    ExperimentConfig,
    alpha_to_dm,
    coords_to_threshold,
    feasible_history_sizes,
    load_config,
    reproduce_hitting_table,
    run_experiment,
    summarize,
    sweep_k,
    trace_to_csv,
    validate_config,
    _fmt,
)
from markosparse.objectives import serialize_libsvm
from markosparse.optimizers import TrainTrace
from problems import synthetic_binary_dataset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture()
def small_file(tmp_path):
    ds = synthetic_binary_dataset(30, 6, 2, seed=21)
    path = tmp_path / "small.libsvm"
    path.write_text(serialize_libsvm(ds), encoding="utf-8")
    return str(path)


def small_cfg(path, **over):
    base = dict(path=path, dim=6, clients=3, lam=0.1, optimizer="mqsgd",
                gamma=0.4, compressor="rand", m=2, T=30, seed=5)
    base.update(over)
    return ExperimentConfig(**base)


def write_yaml(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_config_applies_defaults_and_types(tmp_path, small_file):
    path = write_yaml(tmp_path, f"""
dataset:
  path: {small_file}
  dim: 6
optimizer:
  kind: mqsgd
  gamma: 0.5
compressor:
  kind: banlast
  m: 2
  K: 1
run:
  T: 10
""")
    cfg = load_config(path)
    assert cfg.clients == 10 and cfg.lam == 0.05 and cfg.seed == 42
    assert cfg.compressor == "banlast" and cfg.K == 1
    assert isinstance(cfg.gamma, float)


@pytest.mark.parametrize("snippet,field", [
    ("dataset: {bogus: 1}", "dataset.bogus"),
    ("optimizer: {gamma: -1.0}", "optimizer.gamma"),
    ("optimizer: {gamma: yes}", "optimizer.gamma"),
    ("optimizer: {alpha_shift: 1.5}", "optimizer.alpha_shift"),
    ("compressor: {kind: shrink}", "compressor.kind"),
    ("compressor: {m: 2, pct: 10.0}", "compressor.m"),
    ("compressor: {b: 0.5}", "compressor.b"),
    ("compressor: {activation: relu}", "compressor.activation"),
    ("run: {T: -3}", "run.T"),
    ("run: {seed: -1}", "run.seed"),
    # NaN fails every comparison, and a budget without T that is NaN or
    # infinite is never reached, so training would never stop
    ("run: {budget: .nan}", "run.budget"),
    ("run: {budget: .inf}", "run.budget"),
    ("optimizer: {gamma: .nan}", "optimizer.gamma"),
    ("dataset: {lambda: .nan}", "dataset.lambda"),
    # an infinite step or penalty makes every iterate non-finite
    ("optimizer: {gamma: .inf}", "optimizer.gamma"),
    ("dataset: {lambda: .inf}", "dataset.lambda"),
    ("nonsense: {a: 1}", "nonsense"),
])
def test_load_config_rejects_bad_trees(tmp_path, small_file, snippet, field):
    path = write_yaml(tmp_path, f"dataset:\n  path: {small_file}\n  dim: 6\n" + snippet + "\n")
    if snippet.startswith("dataset"):
        path = write_yaml(tmp_path, snippet + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.field == field


def test_validate_needs_t_or_budget(small_file):
    with pytest.raises(ConfigError):
        validate_config(small_cfg(small_file, T=None, budget=None))


def test_mask_size_resolution(small_file):
    assert small_cfg(small_file, m=None, pct=10.0).mask_size(112) == 11
    assert small_cfg(small_file, m=None, pct=0.1).mask_size(112) == 1
    assert small_cfg(small_file, m=3).mask_size(112) == 3
    assert small_cfg(small_file, m=None, pct=None).mask_size(7) == 7


def test_fmt_compact_number_forms():
    assert _fmt(3) == "3"
    assert _fmt(3.0) == "3"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64(2.5)) == "2.5"
    assert _fmt(np.int64(7)) == "7"


def test_trace_to_csv_layout():
    trace = TrainTrace(np.array([0, 1]), np.array([0.0, 4.0]), np.array([1.0, 0.5]),
                       np.array([1.0, 0.25]), np.array([2.0, 1.0]), np.array([3.0, 1.5]),
                       np.array([0.0, 0.001]))
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,0,1,1,2,3"
    assert lines[2] == "1,4,0.5,0.25,1,1.5"


def test_coords_to_threshold_and_summary():
    trace = TrainTrace(np.arange(4), np.array([0.0, 10.0, 20.0, 30.0]),
                       np.array([1.0, 0.5, 0.2, 0.1]),
                       np.array([1.0, 0.5, 0.009, 0.0005]),
                       np.zeros(4), np.zeros(4), np.zeros(4))
    assert coords_to_threshold(trace, 1e-2) == 20.0
    assert coords_to_threshold(trace, 1e-3) == 30.0
    assert coords_to_threshold(trace, 1e-6) is None
    s = summarize(trace)
    assert s["coords_to"][1e-2] == 20.0
    assert s["final_fdist_ratio"] == 0.0005


def test_run_experiment_writes_deterministic_csv(tmp_path, small_file):
    # nested output path: missing directories are created
    cfg = small_cfg(small_file, output=str(tmp_path / "sub" / "a.csv"))
    run_experiment(cfg, quiet=True)
    again = dataclasses.replace(cfg, output=str(tmp_path / "b.csv"))
    run_experiment(again, quiet=True)
    a = (tmp_path / "sub" / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert a.startswith(CSV_HEADER.encode())


def test_run_experiment_rejects_oversized_mask(small_file):
    with pytest.raises(ConfigError):
        run_experiment(small_cfg(small_file, m=50), quiet=True)


def _refuse(*args, **kwargs):
    pytest.fail("the dataset was parsed, sharded or solved again")


def test_a_second_run_reuses_the_sharded_problem(tmp_path, small_file, monkeypatch):
    harness._MEMO.clear()
    run_experiment(small_cfg(small_file), quiet=True)
    other = small_cfg(small_file, optimizer="diana", compressor="banlast", K=1, T=45)
    monkeypatch.setattr(harness, "load_libsvm", _refuse)
    monkeypatch.setattr(harness, "partition", _refuse)
    monkeypatch.setattr(harness, "reference_minimizer", _refuse)
    run_experiment(other, csv_path=str(tmp_path / "hit.csv"), quiet=True)

    monkeypatch.undo()
    harness._MEMO.clear()
    run_experiment(other, csv_path=str(tmp_path / "cold.csv"), quiet=True)
    assert (tmp_path / "hit.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()


def _count_parses(monkeypatch):
    parses = []
    real_load = harness.load_libsvm
    monkeypatch.setattr(harness, "load_libsvm",
                        lambda *a, **k: parses.append(1) or real_load(*a, **k))
    return parses


def _count_solves(monkeypatch):
    solves = []
    real_solve = harness.reference_minimizer
    monkeypatch.setattr(harness, "reference_minimizer",
                        lambda *a, **k: solves.append(1) or real_solve(*a, **k))
    return solves


def test_only_the_last_dataset_is_kept_in_memory(tmp_path, small_file, monkeypatch):
    # A, B, A in one process: B replaces A's record, so A is parsed and
    # solved again, and the one record holds A's key; the old cache variable
    # is ignored and nothing but the CSVs is written
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("MARKOSPARSE_CACHE_DIR", str(cache))
    other = tmp_path / "other.libsvm"
    other.write_text(serialize_libsvm(synthetic_binary_dataset(30, 6, 2, seed=22)),
                     encoding="utf-8")
    harness._MEMO.clear()
    parses, solves = _count_parses(monkeypatch), _count_solves(monkeypatch)
    run_experiment(small_cfg(small_file), csv_path=str(tmp_path / "a1.csv"), quiet=True)
    run_experiment(small_cfg(str(other)), quiet=True)
    run_experiment(small_cfg(small_file), csv_path=str(tmp_path / "a2.csv"), quiet=True)
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()
    assert parses == [1, 1, 1]
    assert solves == [1, 1, 1]
    with open(small_file, "rb") as fh:
        assert harness._MEMO["key"] == harness._reference_key(small_cfg(small_file), fh.read())
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("change", ["content", "seed", "clients", "lam", "dim"])
def test_the_sharded_problem_is_keyed_by_content_and_sharding(small_file, monkeypatch,
                                                               change):
    harness._MEMO.clear()
    cfg = small_cfg(small_file)
    first = harness.build_problem(cfg)
    parses = _count_parses(monkeypatch)
    assert harness.build_problem(cfg) is first
    assert parses == []
    if change == "content":
        # same path, same size of problem, other rows
        ds = synthetic_binary_dataset(30, 6, 2, seed=22)
        with open(small_file, "w", encoding="utf-8") as fh:
            fh.write(serialize_libsvm(ds))
    else:
        cfg = dataclasses.replace(cfg, **{"seed": dict(seed=6), "clients": dict(clients=2),
                                          "lam": dict(lam=0.2), "dim": dict(dim=8)}[change])
    second = harness.build_problem(cfg)
    assert parses == [1]
    assert second is not first
    assert harness.build_problem(cfg) is second
    assert parses == [1]


@pytest.mark.parametrize("bad", ["parse", "partition"])
def test_a_failed_build_leaves_the_sharded_problem(tmp_path, small_file, monkeypatch, bad):
    harness._MEMO.clear()
    cfg = small_cfg(small_file)
    kept = harness.build_problem(cfg)
    memo = dict(harness._MEMO)
    if bad == "parse":
        broken = tmp_path / "broken.libsvm"
        broken.write_text("+1 1:0.5\n-1 2:x\n", encoding="utf-8")
        failing, error = small_cfg(str(broken)), ParseError
    else:
        failing, error = small_cfg(small_file, clients=31), InvalidArgumentError
    with pytest.raises(error):
        harness.build_problem(failing)
    assert harness._MEMO == memo
    parses = _count_parses(monkeypatch)
    assert harness.build_problem(cfg) is kept
    assert parses == []


def test_reference_cache_key_varies_with_sharding(small_file):
    cfg = small_cfg(small_file)
    key_a = harness._reference_key(cfg, b"data")
    key_b = harness._reference_key(dataclasses.replace(cfg, seed=6), b"data")
    key_c = harness._reference_key(dataclasses.replace(cfg, lam=0.2), b"data")
    assert len({key_a, key_b, key_c}) == 3


def test_golden_csv_matches(mushrooms_path, tmp_path):
    cfg = ExperimentConfig(path=mushrooms_path, dim=112, clients=10, lam=0.05,
                           optimizer="mqsgd", gamma=0.855, compressor="rand",
                           pct=10.0, T=5, seed=7, output=str(tmp_path / "out.csv"))
    run_experiment(cfg, quiet=True)
    produced = (tmp_path / "out.csv").read_text(encoding="utf-8")
    golden = open(os.path.join(GOLDEN, "train_small.csv"), encoding="utf-8").read()
    assert produced == golden


@pytest.mark.parametrize("extra,digest", [
    (dict(optimizer="amqsgd", compressor="kawasaki", K=7, p=0.5),
     "4a1a0e39b8dc8dee413fee0effd3c79442507360b1b1c9df24ca4c83c677e568"),
    (dict(optimizer="diana", compressor="banlast", K=7),
     "4baba88b8e6a4a139f9fa2899c06496b914359acf3c37fbfe74ba68c7721a321"),
    (dict(optimizer="diana", compressor="rand"),
     "2f760c1a4bb71835dffc56e0f3600d17f89ac9bd3c96c4cc6ce4536116fc3bdd"),
    (dict(optimizer="mqsgd", compressor="natural"),
     "f31abefedeba4020c0f57751b2dfd95b6e4a174ebaa767927814bc8698034c88"),
    (dict(optimizer="mqsgd", compressor="identity"),
     "6c5801ea07cee508a839e9dec400d005243c6158bd56f214173acb05a3acbd8c"),
    (dict(optimizer="mqsgd", compressor="banlast", K=7),
     "5c7f47c48bcf9dada1d43d3c55744c7c7a17b36141d4ce0dd39c2e031faf4e49"),
    (dict(optimizer="mqsgd", compressor="kawasaki", K=7),
     "c4617b4ec86a6209126d65b5a337c0f14956129128fdc8672aafd6d944fa2747"),
    (dict(optimizer="mqsgd", compressor="permk"),
     "ea1a80fe498ceb687427fd28d19a845fba4006236cd2bb5aef047434a2f730c3"),
    # 2000 rows over 7 clients: shards of 286 and 285 rows
    (dict(optimizer="mqsgd", compressor="banlast", K=7, clients=7),
     "c66d619d64ea648cbecd42bd9f4800e7309b72bd10c32062c0aeac202539b2bf"),
], ids=["amqsgd-kawasaki", "diana-banlast", "diana-rand", "mqsgd-natural", "mqsgd-identity",
        "mqsgd-banlast", "mqsgd-kawasaki", "mqsgd-permk", "mqsgd-banlast-7-clients"])
def test_training_csv_is_pinned(mushrooms_path, tmp_path, extra, digest):
    # SHA-256 of the CSV bytes; every method and compressor family is pinned
    settings = dict(path=mushrooms_path, dim=112, clients=10, lam=0.05,
                    gamma=0.855, pct=10.0, T=20, seed=7)
    cfg = ExperimentConfig(**{**settings, **extra})
    out = tmp_path / "out.csv"
    run_experiment(cfg, csv_path=str(out), quiet=True)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_feasible_history_sizes(small_file):
    cfg = small_cfg(small_file, compressor="banlast")
    feasible, skipped = feasible_history_sizes(cfg, d=6, k_values=[0, 1, 2, 3])
    assert feasible == [0, 1]   # m=2: d > (K+1)*2 caps K at 1
    assert skipped == [2, 3]


def test_sweep_k_baseline_row_equals_rand(small_file, capsys):
    cfg = small_cfg(small_file, compressor="banlast", T=60)
    rows = sweep_k(cfg, [0, 1, 99])
    assert [r["K"] for r in rows] == [0, 1]
    assert sum(r["best"] for r in rows) <= 1
    rand_run = run_experiment(small_cfg(small_file, compressor="rand", T=60), quiet=True)
    base = rows[0]
    for thr, coords in rand_run["summary"]["coords_to"].items():
        assert base[f"coords_to_{thr:g}"] == coords
    assert "skipping infeasible K=99" in capsys.readouterr().err


def test_sweep_k_shards_the_dataset_once(small_file, monkeypatch):
    calls = []
    real_build = harness.build_problem
    monkeypatch.setattr(harness, "build_problem",
                        lambda cfg: calls.append(cfg.K) or real_build(cfg))
    rows = sweep_k(small_cfg(small_file, compressor="banlast", T=5), [0, 1])
    assert [r["K"] for r in rows] == [0, 1]
    assert len(calls) == 1


def test_each_run_hashes_the_dataset_once(small_file, monkeypatch):
    # the key build_problem computes also names the reference: one hash of
    # the file per run_experiment, and one per sweep_k over all its K
    calls = []
    real_key = harness._reference_key
    monkeypatch.setattr(harness, "_reference_key",
                        lambda cfg, data: calls.append(cfg.K) or real_key(cfg, data))
    run_experiment(small_cfg(small_file, T=5), quiet=True)
    assert len(calls) == 1
    rows = sweep_k(small_cfg(small_file, compressor="kawasaki", T=5), [0, 1, 2])
    assert [r["K"] for r in rows] == [0, 1, 2]
    assert len(calls) == 2


def test_alpha_grid_maps_to_integer_ratios():
    assert alpha_to_dm(10.0) == (10, 1)
    assert alpha_to_dm(5.3) == (53, 10)
    assert alpha_to_dm(16.7) == (167, 10)
    assert alpha_to_dm(11.1) == (111, 10)


def test_reproduce_hitting_table_report(tmp_path):
    out = tmp_path / "table.csv"
    report = reproduce_hitting_table(trials=4000, seed=11, output=str(out))
    rows = report["rows"]
    assert [r["K_star"] for r in rows] == [4, 5, 6, 7, 8, 9, 10, 12, 15]
    assert 0.6 <= report["slope"] <= 0.85
    for r in rows:
        assert r["rand"] == pytest.approx(r["alpha"])
        assert r["exact_vs_mc"] < 0.05
        assert r["banlast_formula"] < r["banlast_exact"] <= r["rand"]
    text = out.read_text(encoding="utf-8")
    assert text.startswith("alpha,d,m,K_star,rand,")
    assert "# zero-intercept slope," in text
