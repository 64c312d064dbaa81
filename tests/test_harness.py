"""Config loading, CSV emission, caching, sweeps and the hitting-time table."""

import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest

from markosparse import harness
from markosparse.errors import ConfigError
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
from markosparse.objectives import serialize_libsvm, synthetic_binary_dataset
from markosparse.optimizers import TrainTrace

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


def test_reference_cache_round_trip(tmp_path, small_file, monkeypatch):
    monkeypatch.setenv(harness.CACHE_ENV, str(tmp_path / "cache"))
    harness._REFERENCE_MEMORY.clear()
    cfg = small_cfg(small_file)
    run_experiment(cfg, quiet=True)
    files = list((tmp_path / "cache").glob("ref_*.npz"))
    assert len(files) == 1
    # a fresh process would miss the in-memory map but hit the disk blob
    harness._REFERENCE_MEMORY.clear()
    monkeypatch.setattr(harness, "reference_minimizer",
                        lambda *a, **k: pytest.fail("cache miss"))
    run_experiment(cfg, quiet=True)


def test_reference_cache_write_is_atomic(tmp_path, small_file, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv(harness.CACHE_ENV, str(cache))
    harness._REFERENCE_MEMORY.clear()
    real_savez = np.savez

    def torn_savez(file, **arrays):
        # a write that dies half way leaves a truncated file behind
        with open(file, "wb") as fh:
            fh.write(b"PK\x03\x04 truncated")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", torn_savez)
    cfg = small_cfg(small_file)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, quiet=True)
    assert list(cache.glob("ref_*.npz")) == []
    assert list(cache.iterdir()) == []

    monkeypatch.setattr(np, "savez", real_savez)
    solves = []
    real_solve = harness.reference_minimizer
    monkeypatch.setattr(harness, "reference_minimizer",
                        lambda *a, **k: solves.append(1) or real_solve(*a, **k))
    run_experiment(cfg, quiet=True)
    assert solves == [1]
    assert len(list(cache.glob("ref_*.npz"))) == 1


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
     "64098d93bc3d570d10141bf1fe654b31c24238538a23e164cd399fdacc9d4fce"),
    (dict(optimizer="diana", compressor="banlast", K=7),
     "1dc4fa90d29b61b4584c38eb8b3bfd049e152beb683ebdafa68836983a6735ad"),
    (dict(optimizer="diana", compressor="rand"),
     "89e8eece73cf996c1b127c5797f2405467690ecefe900c55e38078b914f4e1cc"),
    (dict(optimizer="mqsgd", compressor="natural"),
     "f31abefedeba4020c0f57751b2dfd95b6e4a174ebaa767927814bc8698034c88"),
    (dict(optimizer="mqsgd", compressor="identity"),
     "6c5801ea07cee508a839e9dec400d005243c6158bd56f214173acb05a3acbd8c"),
], ids=["amqsgd-kawasaki", "diana-banlast", "diana-rand", "mqsgd-natural", "mqsgd-identity"])
def test_training_csv_is_pinned(mushrooms_path, tmp_path, extra, digest):
    # SHA-256 of the CSV bytes; every method and compressor family is pinned
    cfg = ExperimentConfig(path=mushrooms_path, dim=112, clients=10, lam=0.05,
                           gamma=0.855, pct=10.0, T=20, seed=7, **extra)
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
    rows = sweep_k(cfg, [0, 1, 99], quiet=True)
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
    rows = sweep_k(small_cfg(small_file, compressor="banlast", T=5), [0, 1], quiet=True)
    assert [r["K"] for r in rows] == [0, 1]
    assert len(calls) == 1


def test_alpha_grid_maps_to_integer_ratios():
    assert alpha_to_dm(10.0) == (10, 1)
    assert alpha_to_dm(5.3) == (53, 10)
    assert alpha_to_dm(16.7) == (167, 10)
    assert alpha_to_dm(11.1) == (111, 10)


def test_reproduce_hitting_table_report(tmp_path):
    out = tmp_path / "table.csv"
    report = reproduce_hitting_table(trials=4000, seed=11, output=str(out), quiet=True)
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
