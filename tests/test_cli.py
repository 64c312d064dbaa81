"""Exit codes and wiring of the command-line front end."""

import os
import re

import pytest

from markosparse.cli import _parse_k_list, main
from markosparse.errors import InvalidArgumentError
from markosparse.harness import CSV_HEADER
from markosparse.objectives import serialize_libsvm, synthetic_binary_dataset


@pytest.fixture()
def small_file(tmp_path):
    ds = synthetic_binary_dataset(30, 6, 2, seed=21)
    path = tmp_path / "small.libsvm"
    path.write_text(serialize_libsvm(ds), encoding="utf-8")
    return str(path)


def write_cfg(tmp_path, small_file, gamma="0.4", extra=""):
    p = tmp_path / "train.yaml"
    p.write_text(f"""
dataset:
  path: {small_file}
  dim: 6
  clients: 3
  lambda: 0.1
optimizer:
  kind: mqsgd
  gamma: {gamma}
compressor:
  kind: rand
  m: 2
run:
  T: 25
  seed: 3
{extra}""", encoding="utf-8")
    return str(p)


def test_parse_k_list_ranges():
    assert _parse_k_list("0,2,5-7") == [0, 2, 5, 6, 7]
    with pytest.raises(InvalidArgumentError):
        _parse_k_list(",")


def test_train_writes_csv_and_summary(tmp_path, small_file, capsys):
    cfg = write_cfg(tmp_path, small_file)
    out = tmp_path / "metrics.csv"
    assert main(["train", "--config", cfg, "--output", str(out)]) == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "final fdist_ratio" in stdout
    assert "iterations: 25" in stdout


def test_train_reports_config_errors(tmp_path, small_file, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset:\n  pathological: 1\n", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "dataset.pathological" in capsys.readouterr().err
    bad.write_text(f"dataset:\n  path: {small_file}\noptimizer:\n  alpha_shift: 1.5\n",
                   encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "optimizer.alpha_shift" in capsys.readouterr().err


def test_train_reports_divergence(tmp_path, small_file, capsys):
    # overflow needs (gamma * 2 * lambda)^t past 1e308 within T=25 steps
    cfg = write_cfg(tmp_path, small_file, gamma="1.0e+18")
    out = tmp_path / "partial.csv"
    assert main(["train", "--config", cfg, "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert "divergence" in err
    # the partial trace is still written, up to the iteration that diverged
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == CSV_HEADER
    t_failed = int(re.search(r"at (?:iteration |t=)(\d+)", err).group(1))
    assert int(lines[-1].split(",")[0]) == t_failed


@pytest.mark.parametrize("args", [
    ["--kind", "kawasaki", "--d", "10", "--K", "3", "--activation", "bogus"],
    ["--kind", "kawasaki", "--d", "10", "--K", "3", "--b", "0.5"],
    ["--kind", "banlast", "--d", "4", "--m", "2", "--K", "2"],  # d < (K+1)m
    # 0.5/b^2 underflows to 0 and a window of 5 can zero both coordinates
    ["--kind", "kawasaki", "--d", "2", "--K", "5", "--b", "1e300"],
], ids=["unknown-activation", "kawasaki-b-below-1", "banlast-infeasible",
        "kawasaki-support-underflow"])
def test_hitting_time_rejects_bad_parameters(args, capsys):
    assert main(["hitting-time", *args, "--trials", "50"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_k_prints_rows(tmp_path, small_file, capsys):
    cfg = write_cfg(tmp_path, small_file)
    assert main(["sweep-k", "--config", cfg, "--k", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "K=0:" in out and "K=1:" in out


def test_analyze_chain_reports_structure(capsys):
    assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1", "--K", "1"]) == 0
    out = capsys.readouterr().out
    assert "stationary range" in out
    assert "rho=" in out


def test_analyze_chain_nonergodic_is_a_structural_failure(capsys):
    assert main(["analyze-chain", "--kind", "banlast", "--d", "2", "--m", "1", "--K", "1"]) == 4
    assert "periodic" in capsys.readouterr().err


def test_analyze_chain_writes_deviation_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1",
                 "--K", "1", "--t-max", "20", "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) == 22


def test_hitting_time_command(capsys):
    code = main(["hitting-time", "--kind", "banlast", "--d", "10", "--m", "1",
                 "--K", "7", "--trials", "5000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "monte carlo" in out


def test_optimal_k_command(capsys):
    assert main(["optimal-k", "--alpha", "10"]) == 0
    out = capsys.readouterr().out
    assert "optimal K: 7" in out
    assert main(["optimal-k", "--d", "112", "--m", "11"]) == 0
    assert "optimal K: 7" in capsys.readouterr().out


def test_optimal_k_rejects_tiny_alpha(capsys):
    assert main(["optimal-k", "--alpha", "1.5"]) == 2


def test_reproduce_appendix_b_writes_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["reproduce-appendix-b", "--trials", "2000", "--seed", "2",
                 "--output", str(out)])
    assert code == 0
    assert "zero-intercept slope" in capsys.readouterr().out
    assert out.exists()
