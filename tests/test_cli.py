"""Exit codes and wiring of the command-line front end."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import markosparse
from markosparse import chain_analysis as chains, harness, kernels, optimizers
from markosparse.cli import _parse_k_list, main
from markosparse.errors import InvalidArgumentError, NumericalError
from markosparse.harness import CSV_HEADER
from markosparse.objectives import serialize_libsvm
from problems import synthetic_binary_dataset


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
    with pytest.raises(InvalidArgumentError, match="reversed K range '5-3'"):
        _parse_k_list("1,5-3")


@pytest.mark.parametrize("argv,message", [
    (["hitting-time", "--d", "10", "--m", "0"], "need m >= 1"),
    (["optimal-k", "--d", "10", "--m", "0"], "need m >= 1"),
    (["sweep-k", "--k", "a"], "bad K value 'a'"),
    (["sweep-k", "--k", "3-x"], "bad K value '3-x'"),
    (["sweep-k", "--k", "1,5-3"], "reversed K range '5-3'"),
    (["optimal-k", "--alpha", "nan"], "finite alpha > 2"),
    (["optimal-k", "--alpha", "inf"], "finite alpha > 2"),
    (["optimal-k", "--alpha", "10", "--k-max", "-5"], "need K_max >= 0"),
    (["optimal-k", "--alpha", "10", "--d", "100", "--m", "1"], "not both"),
    (["optimal-k", "--alpha", "10", "--m", "3"], "not both"),
], ids=["hitting-m0", "optimal-m0", "k-word", "k-bad-range-end", "k-reversed-in-list",
        "alpha-nan", "alpha-inf", "k-max-negative", "alpha-and-d", "alpha-and-m"])
def test_bad_arguments_exit_2(argv, message, tmp_path, small_file, capsys):
    if argv[0] == "sweep-k":
        argv = [*argv, "--config", write_cfg(tmp_path, small_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err


def test_optimal_k_refuses_a_huge_search(monkeypatch, capsys):
    def refused(alpha):  # a missing cap fails here instead of searching
        raise AssertionError("searched past the cap")
        yield

    monkeypatch.setattr(chains, "_banlast_estimates", refused)
    assert main(["optimal-k", "--alpha", "1e300"]) == 4
    assert f"exceeds cap {chains.HISTORY_SEARCH_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hitting-time", "--d", "10", "--K", "3"],
    ["reproduce-appendix-b"],
], ids=["hitting-time", "reproduce-appendix-b"])
def test_huge_trial_counts_exit_4(argv, capsys):
    # without the cap numpy refuses the 80 TB times array at once
    assert main([*argv, "--trials", "10000000000000"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("failure: 10000000000000 hitting-time trials, exceeds cap")
    assert captured.out == ""


@pytest.mark.parametrize("case", [
    "analyze-chain-output", "reproduce-appendix-b-output", "train-output", "train-dataset-dir",
    "analyze-chain-output-dir", "reproduce-appendix-b-output-dir", "train-output-dir",
])
def test_a_file_the_command_cannot_use_exits_2(case, tmp_path, small_file, monkeypatch,
                                              capsys):
    # an --output under a regular file cannot be created, an --output that
    # is a directory cannot be written, and a directory cannot be read as a
    # dataset; each fails before any training, Monte Carlo or chain, and
    # before any report line
    monkeypatch.setattr(harness, "run_training",
                        lambda *a, **k: pytest.fail("trained before the output was checked"))
    monkeypatch.setattr(chains, "monte_carlo_hitting_time",
                        lambda *a, **k: pytest.fail("sampled before the output was checked"))
    monkeypatch.setattr(chains, "build_transition_matrix",
                        lambda *a, **k: pytest.fail("built a chain before the output was checked"))
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    output = ["--output", str(blocker / "x.csv")]
    culprit = blocker
    if case.endswith("-dir"):
        culprit = tmp_path / "taken"
        culprit.mkdir()
        output = ["--output", str(culprit)]
        case = case[:-len("-dir")]
    if case == "analyze-chain-output":
        argv = ["analyze-chain", "--kind", "banlast", "--d", "4", "--K", "1", *output]
    elif case == "reproduce-appendix-b-output":
        argv = ["reproduce-appendix-b", "--trials", "50", *output]
    elif case == "train-output":
        argv = ["train", "--config", write_cfg(tmp_path, small_file), *output]
    else:
        argv, culprit = ["train", "--config", write_cfg(tmp_path, str(tmp_path))], tmp_path
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error: [Errno ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(culprit) in err


@pytest.mark.parametrize("argv, code", [
    (["analyze-chain", "--kind", "banlast", "--d", "4", "--K", "9",
      "--output", "nd1/sub/x.csv"], 2),
    (["analyze-chain", "--kind", "banlast", "--d", "40", "--K", "9",
      "--output", "nd2/x.csv"], 4),
    (["analyze-chain", "--kind", "kawasaki", "--d", "4", "--K", "2", "--eps", "nan",
      "--output", "nd4/x.csv"], 2),
    (["reproduce-appendix-b", "--seed", "-1", "--trials", "10",
      "--output", "nd3/sub/t.csv"], 2),
], ids=["analyze-chain-bad-K", "analyze-chain-state-cap", "analyze-chain-nan-eps",
        "reproduce-appendix-b-negative-seed"])
def test_a_refused_command_leaves_no_output_directory(argv, code, tmp_path, monkeypatch,
                                                     capsys):
    # an --output's missing directories are made at the write, so a command
    # refused before it leaves the directory as it found it
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def fresh_env():
    # the environment of a fresh interpreter that imports this package
    src = os.path.dirname(os.path.dirname(os.path.abspath(markosparse.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_chain_commands_load_no_scipy_sparse_special_or_yaml():
    # a fresh interpreter, so that nothing this suite imported counts
    program = (
        "import json, sys\n"
        "import markosparse, markosparse.harness, markosparse.cli as cli\n"
        "code = cli.main(['optimal-k', '--alpha', '10'])\n"
        "print(json.dumps([code, [name for name in ('scipy.sparse', 'scipy.special', 'yaml')"
        " if name in sys.modules]]))\n")
    done = subprocess.run([sys.executable, "-c", program], env=fresh_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == [0, []]


def test_train_writes_csv_and_summary(tmp_path, small_file, capsys):
    cfg = write_cfg(tmp_path, small_file)
    out = tmp_path / "metrics.csv"
    assert main(["train", "--config", cfg, "--output", str(out)]) == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "final fdist_ratio" in stdout
    assert "iterations: 25" in stdout


def test_train_exits_4_at_the_reference_cap_and_caches_nothing(tmp_path, small_file,
                                                              monkeypatch, capsys):
    monkeypatch.setattr(harness, "_MEMO", {})
    cap = optimizers.REFERENCE_MAX_ITER
    monkeypatch.setattr(optimizers, "REFERENCE_MAX_ITER", 1)
    cfg = write_cfg(tmp_path, small_file)
    out = tmp_path / "metrics.csv"
    assert main(["train", "--config", cfg, "--output", str(out)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("failure: reference minimizer stalled at ")
    assert err[0].endswith(" > 1e-10")
    assert not out.exists()
    # the failed solve left no reference behind: the next run solves once
    monkeypatch.setattr(optimizers, "REFERENCE_MAX_ITER", cap)
    solves = []
    solve = harness.reference_minimizer
    monkeypatch.setattr(harness, "reference_minimizer",
                        lambda problem: solves.append(1) or solve(problem))
    assert main(["train", "--config", cfg]) == 0
    assert solves == [1]


def test_train_reports_config_errors(tmp_path, small_file, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("dataset:\n  pathological: 1\n", encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "dataset.pathological" in capsys.readouterr().err
    bad.write_text(f"dataset:\n  path: {small_file}\noptimizer:\n  alpha_shift: 1.5\n",
                   encoding="utf-8")
    assert main(["train", "--config", str(bad)]) == 2
    assert "optimizer.alpha_shift" in capsys.readouterr().err


def test_train_refuses_an_infinite_lambda_before_any_arithmetic(tmp_path, small_file):
    # .inf passed the ">= 0" check and ran into numpy overflow warnings and
    # a collapsed line search (exit 4); a fresh process, so that any
    # RuntimeWarning reaches stderr
    cfg = write_cfg(tmp_path, small_file)
    with open(cfg, encoding="utf-8") as f:
        text = f.read().replace("lambda: 0.1", "lambda: .inf")
    with open(cfg, "w", encoding="utf-8") as f:
        f.write(text)
    done = subprocess.run([sys.executable, "-m", "markosparse.cli", "train", "--config", cfg],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    err = done.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "dataset.lambda" in err[0]
    assert "RuntimeWarning" not in done.stderr


def test_train_reports_bytes_that_are_not_utf8(tmp_path, capsys):
    data = tmp_path / "latin1.libsvm"
    data.write_bytes(b"+1 1:1\n-1 2:1\r\n+1 1:1 3:\xff\n-1 1:1\n")
    assert main(["train", "--config", write_cfg(tmp_path, str(data))]) == 2
    assert "line 3: invalid UTF-8 byte 0xff" in capsys.readouterr().err


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


@pytest.mark.parametrize("args,message", [
    (["--kind", "kawasaki", "--d", "10", "--K", "3", "--activation", "bogus"],
     "unknown activation 'bogus'"),
    (["--kind", "kawasaki", "--d", "10", "--K", "3", "--b", "0.5"],
     "forgetting rate b must exceed 1"),
    (["--kind", "banlast", "--d", "4", "--m", "2", "--K", "2"],  # d < (K+1)m
     "cannot fill a mask"),
    # 0.5/b^2 underflows to 0 and a window of 5 can zero both coordinates
    (["--kind", "kawasaki", "--d", "2", "--K", "5", "--b", "1e300"], "underflows to 0 at c=2"),
    # the parameters are checked before the target, which d = 0 leaves no room for
    (["--kind", "rand", "--d", "0"], "d must be positive"),
], ids=["unknown-activation", "kawasaki-b-below-1", "banlast-infeasible",
        "kawasaki-support-underflow", "d-zero"])
def test_hitting_time_rejects_bad_parameters(args, message, capsys):
    assert main(["hitting-time", *args, "--trials", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert captured.out == ""


def test_hitting_time_checks_the_pool_history_against_the_cap(monkeypatch, capsys):
    # kawasaki keeps K masks of m per trial, in a pool of min(trials,
    # HITTING_BLOCK) rows: 5 x 100 x 1 entries here. rand's law reads no
    # counts, so its pool keeps no history, whatever K
    simulate = kernels.simulate_hitting_times

    def no_rand_history(rng, kind, act, d, m, K, *args):
        assert kind != "rand" or K == 0, "a rand pool allocated a history"
        return simulate(rng, kind, act, d, m, K, *args)

    monkeypatch.setattr(kernels, "simulate_hitting_times", no_rand_history)
    argv = ["hitting-time", "--kind", "kawasaki", "--d", "10", "--K", "5", "--trials", "100"]
    monkeypatch.setattr(chains, "ARRAY_CAP", 500)
    assert main(argv) == 0  # at the cap: simulated
    capsys.readouterr()
    monkeypatch.setattr(chains, "ARRAY_CAP", 499)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == ("failure: a hitting pool history of 5 masks x 100 trials x m=1: "
                            "500 entries, exceeds cap 499\n")
    assert captured.out == ""
    # rand at a K whose history would be 10^10 entries: the same Monte Carlo
    # as a pool that keeps its K = 3 history
    rand = chains.monte_carlo_hitting_time("rand", 10, K=10**8, trials=100, seed=4)
    times, _ = simulate(np.random.Generator(np.random.PCG64(4)), "rand", "normalize", 10, 1,
                        3, 50.0, 0, 100, chains.HITTING_STEPS_CAP)
    assert rand == (float(times.mean()), float(times.std(ddof=1) / math.sqrt(100)))


def run_timed(argv):
    """(exit code, stdout, stderr, seconds inside main) of the command in a
    fresh interpreter, which a hang fails at a 60 s timeout instead of
    stalling the suite."""
    program = ("import sys, time\n"
               "from markosparse.cli import main\n"
               "start = time.perf_counter()\n"
               "code = main(sys.argv[1:])\n"
               "print(time.perf_counter() - start, file=sys.stderr)\n"
               "sys.exit(code)\n")
    done = subprocess.run([sys.executable, "-c", program, *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    *err, seconds = done.stderr.splitlines()
    return done.returncode, done.stdout, "".join(line + "\n" for line in err), float(seconds)


@pytest.mark.parametrize("K,digits", [("5000", "5007"), ("100000000", "100000016")])
def test_analyze_chain_refuses_an_astronomically_large_chain_at_once(K, digits):
    # the largest array, the window's C(10,1)^K (K m)^2 entries, is sized by
    # its logarithm: 10^K itself had 5001 digits, past Python's int-to-string
    # limit, or took minutes to compute
    code, out, err, seconds = run_timed(["analyze-chain", "--kind", "rand", "--d", "10",
                                         "--K", K])
    assert code == 4
    assert out == ""
    assert err == (f"failure: the chain over C(10,1)^{K} states of C(10,1) masks: "
                   f"about 10^{digits} entries, exceeds cap {chains.ARRAY_CAP}\n")
    assert seconds < 1.0


@pytest.mark.parametrize("command", ["hitting-time", "analyze-chain"])
def test_a_huge_kawasaki_window_is_refused_at_its_first_zero_weight(command):
    # the weight table stops at its first 0.0, c = 190, not at K
    code, out, err, seconds = run_timed([command, "--kind", "kawasaki", "--d", "10",
                                         "--K", "100000000"])
    assert code == 2
    assert out == ""
    assert err == ("error: kawasaki weight (1/d)/b^c underflows to 0 at c=190: a full window "
                   "of K=100000000 masks can leave fewer than m=1 of d=10 coordinates "
                   "drawable; lower b or K\n")
    assert seconds < 1.0


@pytest.mark.parametrize("argv", [
    ["hitting-time", "--kind", "kawasaki", "--d", "10", "--K", "3", "--trials", "100"],
    ["analyze-chain", "--kind", "kawasaki", "--d", "4"],
], ids=["hitting-time", "analyze-chain"])
def test_a_nan_forgetting_rate_exits_2_at_once(argv):
    # a NaN b made an all-NaN law: the Monte Carlo never drew its target and
    # ran on, and the chain came out reducible (exit 4); a fresh process, so
    # that a hang fails at the timeout instead of stalling the suite
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "markosparse.cli", *argv, "--b", "nan"],
                          env=fresh_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr == "error: forgetting rate b must exceed 1\n"
    assert time.perf_counter() - start < 30.0


def test_sweep_k_prints_rows(tmp_path, small_file, capsys):
    cfg = write_cfg(tmp_path, small_file)
    assert main(["sweep-k", "--config", cfg, "--k", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "K=0:" in out and "K=1:" in out


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("ks, rows, tie", [
    ("0-9", ["K=0: coords to 1e-3 = 2860", "K=1: coords to 1e-3 = 2860",
             "K=2: coords to 1e-3 = 2860", "K=3: coords to 1e-3 = 2750",
             "K=4: coords to 1e-3 = 2750", "K=5: coords to 1e-3 = 2640",
             "K=6: coords to 1e-3 = 2640", "K=7: coords to 1e-3 = 2530 *",
             "K=8: coords to 1e-3 = 2530", "K=9: coords to 1e-3 = 2530"],
     ["tied minimum: K=7, 8, 9 at 2530 coords"]),
    ("6,7", ["K=6: coords to 1e-3 = 2640", "K=7: coords to 1e-3 = 2530 *"], []),
], ids=["tie", "no-tie"])
def test_sweep_k_names_every_k_tied_at_the_marked_minimum(ks, rows, tie, monkeypatch,
                                                          capsys):
    # the shipped config, whose dataset path is relative to the repository;
    # the marker still breaks a tie toward the smallest K
    monkeypatch.chdir(REPO_ROOT)
    assert main(["sweep-k", "--config", "configs/mushrooms_mqsgd.yaml", "--k", ks]) == 0
    assert capsys.readouterr().out.splitlines() == rows + tie


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                 "and data type float64"),
     "failure: out of memory (Unable to allocate 7.28 TiB for an array with shape "
     "(1000000000000,) and data type float64)"),
    (MemoryError(), "failure: out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("command", ["train", "analyze-chain"])
def test_a_memory_error_exits_4_with_one_failure_line(command, error, line, tmp_path,
                                                      small_file, monkeypatch, capsys):
    # the allocation is stubbed: the reference solve's np.zeros(d), or the
    # chain build, raises as numpy does when the machine cannot give the memory
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(harness, "reference_minimizer", out_of_memory)
    monkeypatch.setattr(chains, "build_transition_matrix", out_of_memory)
    argv = {
        "train": ["train", "--config", write_cfg(tmp_path, small_file),
                  "--output", str(tmp_path / "out.csv")],
        "analyze-chain": ["analyze-chain", "--kind", "banlast", "--d", "10", "--K", "3"],
    }[command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    assert not (tmp_path / "out.csv").exists()


def test_sweep_k_with_no_feasible_k_exits_2_before_any_solve(tmp_path, small_file,
                                                             monkeypatch, capsys):
    # banlast with d=6, m=2 needs d > (K+1)m, so K=2 and K=5 are both skipped
    cfg = tmp_path / "banlast.yaml"
    with open(write_cfg(tmp_path, small_file), encoding="utf-8") as fh:
        cfg.write_text(fh.read().replace("kind: rand", "kind: banlast"), encoding="utf-8")
    monkeypatch.setattr(harness, "reference_minimizer",
                        lambda problem: pytest.fail("solved with no K to sweep"))
    monkeypatch.setattr(harness, "run_training",
                        lambda *a, **k: pytest.fail("trained with no K to sweep"))
    assert main(["sweep-k", "--config", str(cfg), "--k", "2,5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["warning: skipping infeasible K=2",
                                         "warning: skipping infeasible K=5",
                                         "error: no feasible K to sweep"]


@pytest.mark.parametrize("argv", [["train"], ["sweep-k", "--k", "0,1,2,20"]],
                         ids=["train", "sweep-k"])
def test_a_refused_compressor_fails_before_any_solve_or_training(argv, tmp_path, small_file,
                                                                 monkeypatch, capsys):
    # (1/6)/b^2 underflows to 0 at b=1e300, so a window of K=20 can zero
    # every coordinate and K=20 is refused; K=0, 1 and 2 are valid alone
    cfg = tmp_path / "refused.yaml"
    cfg.write_text(f"""
dataset:
  path: {small_file}
  clients: 3
compressor:
  kind: kawasaki
  m: 1
  K: 20
  b: 1.0e+300
run:
  T: 5
""", encoding="utf-8")
    monkeypatch.setattr(harness, "_MEMO", {})
    solves = []
    monkeypatch.setattr(harness, "reference_minimizer", lambda problem: solves.append(1))
    trained = []
    run_training = harness.run_training

    def counted(problem, cfg, reference=None):
        trained.append(cfg.K)
        return run_training(problem, cfg, reference=reference)

    monkeypatch.setattr(harness, "run_training", counted)
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert trained == []
    assert solves == []
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def _refuse_solve(problem):
    pytest.fail("the reference was solved")


@pytest.mark.parametrize("argv", [["train"], ["sweep-k", "--k", "0,7"]],
                         ids=["train", "sweep-k"])
def test_amqsgd_without_ridge_is_refused_before_the_reference_solve(argv, tmp_path,
                                                                    mushrooms_path,
                                                                    monkeypatch, capsys):
    # the shipped config as amqsgd at lambda 0: its schedule needs mu = 2
    # lambda > 0, and the separable data has no minimizer to solve for
    with open(os.path.join(REPO_ROOT, "configs", "mushrooms_mqsgd.yaml"),
              encoding="utf-8") as fh:
        text = fh.read()
    out = tmp_path / "metrics.csv"
    for old, new in [("data/mushrooms_synth.libsvm", mushrooms_path),
                     ("lambda: 0.05", "lambda: 0"), ("kind: mqsgd", "kind: amqsgd"),
                     ("runs/mushrooms_banlast.csv", str(out))]:
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "amqsgd.yaml"
    cfg.write_text(text, encoding="utf-8")
    monkeypatch.setattr(harness, "_MEMO", {})
    monkeypatch.setattr(harness, "reference_minimizer", _refuse_solve)
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("kind,K", [("kawasaki", 5), ("banlast", 4)])
@pytest.mark.parametrize("command", ["train", "sweep-k"])
def test_the_compressor_history_is_checked_against_the_cap(command, kind, K, tmp_path,
                                                           small_file, monkeypatch, capsys):
    # 3 workers keep their last K masks of m = 1: 3K entries, checked before
    # the reference solve and, for sweep-k, before the first run
    cfg = tmp_path / "history.yaml"
    cfg.write_text(f"""
dataset:
  path: {small_file}
  clients: 3
compressor:
  kind: {kind}
  m: 1
  K: {K}
run:
  T: 5
""", encoding="utf-8")
    out = tmp_path / "metrics.csv"
    argv = {"train": ["train", "--output", str(out)],
            "sweep-k": ["sweep-k", "--k", f"0,1,{K}"]}[command]
    monkeypatch.setattr(harness, "_MEMO", {})
    monkeypatch.setattr(chains, "ARRAY_CAP", 3 * K)
    assert main([*argv, "--config", str(cfg)]) == 0  # at the cap: trained
    capsys.readouterr()
    out.unlink(missing_ok=True)
    monkeypatch.setattr(harness, "_MEMO", {})
    monkeypatch.setattr(chains, "ARRAY_CAP", 3 * K - 1)
    monkeypatch.setattr(harness, "reference_minimizer", _refuse_solve)
    assert main([*argv, "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"failure: a compressor history of {K} masks x 3 workers x m=1: "
                            f"{3 * K} entries, exceeds cap {3 * K - 1}\n")
    assert not out.exists()


def test_analyze_chain_reports_structure(capsys):
    assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1", "--K", "1"]) == 0
    out = capsys.readouterr().out
    assert "stationary range" in out
    assert "rho=" in out


def test_analyze_chain_reports_the_column_sum_defect(capsys):
    # kawasaki K=2 column sums on the class run from about 0.577 to 89/78,
    # so P is not doubly stochastic; banlast's are exactly 1
    def defect(argv):
        assert main(["analyze-chain", *argv]) == 0
        out = capsys.readouterr().out
        return float(re.search(r"column-sum defect on the recurrent class: (\S+)", out)[1])

    assert defect(["--kind", "kawasaki", "--d", "4", "--m", "1", "--K", "2", "--b", "2"]) \
        == pytest.approx(0.4231, abs=1e-4)
    assert defect(["--kind", "banlast", "--d", "6", "--m", "1", "--K", "2"]) == 0.0


def test_analyze_chain_prints_its_start_orbits(capsys):
    # one line added after the recurrent class; every other line as before
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "4", "--m", "1",
                 "--K", "2", "--b", "2"]) == 0
    assert capsys.readouterr().out == """\
states: 16
recurrent class: 16 states (0 unreachable)
start orbits: 2
stationary range: [0.0382352941, 0.0705882353] (uniform would be 0.0625000000)
column-sum defect on the recurrent class: 0.4230769231
newest-mask marginal range: [0.2500000000, 0.2500000000] (m/d = 0.2500000000)
mixing time (eps=0.05): 7
ergodicity bound: rho=0.9940828402 C=1.0059523810 gap=5.9171597633e-03
"""


def test_analyze_chain_with_an_infinite_b_has_no_bound(capsys):
    # the b -> inf limit law is uniform and analysed as such; its bound,
    # inf - inf, printed rho=nan C=nan gap=nan
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "4", "--b", "inf"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "mixing time (eps=0.05): 4",
        "ergodicity bound: not applicable (bound needs a finite b**K, got b=inf, K=1)"]


def test_analyze_chain_prints_no_vacuous_bound(tmp_path, capsys):
    # d*b**K overflows at b=1e308, so the gap is 0: this printed
    # rho=1.0000000000 C=1.0000000000 gap=0.0000000000e+00 and wrote a
    # bound column of 1
    out = tmp_path / "curve.csv"
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "4", "--K", "1",
                 "--b", "1e308", "--output", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "ergodicity bound: not applicable "
        "(vacuous bound: its gap 1 - rho rounds to 0 in double precision)")
    assert out.read_text(encoding="utf-8").splitlines()[0] == "t,deviation"


def test_analyze_chain_stops_when_rounding_cannot_reach_the_threshold(capsys):
    # eps*pi_min = 1.4e-16, while rounding holds the deviation near 3.9e-16:
    # the mixing loop stops instead of running to its 10^6-step cap
    started = time.perf_counter()
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "7", "--m", "1",
                 "--K", "4", "--eps", "1e-3"]) == 4
    assert time.perf_counter() - started < 10
    err = capsys.readouterr().err
    lowest, threshold = map(float, re.search(
        r"stalled at (\S+) above eps\*pi_min = (\S+):", err).groups())
    assert threshold == pytest.approx(1.428e-16, rel=1e-3)
    assert lowest > threshold


def test_analyze_chain_stalls_with_the_mixing_time_error(capsys):
    # the command takes tau, and so its stall error, from mixing_time
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "7", "--m", "1",
                 "--K", "4", "--eps", "1e-3"]) == 4
    err = capsys.readouterr().err
    chain = chains.build_transition_matrix("kawasaki", 7, 1, 4)
    with pytest.raises(NumericalError) as stalled:
        chains.mixing_time(chain, 1e-3)
    assert err == f"failure: {stalled.value}\n"


def test_analyze_chain_without_output_steps_no_curve(monkeypatch, capsys):
    def no_curve(chain, t_max):
        raise AssertionError("stepped a deviation curve")

    monkeypatch.setattr(chains, "deviation_curve", no_curve)
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "6", "--m", "1",
                 "--K", "4"]) == 0
    assert "mixing time (eps=0.05): 191" in capsys.readouterr().out


def test_analyze_chain_counts_the_mixing_time_from_one(capsys):
    # the K=0 chain has one state, at pi from t = 0, and tau is checked from t = 1
    assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--K", "0"]) == 0
    assert "mixing time (eps=0.05): 1\n" in capsys.readouterr().out


def test_analyze_chain_exits_4_at_the_power_iteration_cap(monkeypatch, capsys):
    # pi is not uniform on kawasaki(4,1,2) at b=2: power iteration needs 12 steps
    monkeypatch.setattr(chains, "STATIONARY_MAX_ITER", 11)
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "4", "--K", "2",
                 "--b", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: power iteration residual > 1e-12 after 11 iterations\n"


def test_analyze_chain_builds_kawasaki_with_multicoordinate_masks(tmp_path, capsys):
    # kawasaki at m > 1 is analysed on the sequential-draw law the sampler
    # runs, the chain the API builds
    out = tmp_path / "curve.csv"
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "6", "--m", "2",
                 "--K", "2", "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:3] == ["states: 225", "recurrent class: 225 states (0 unreachable)",
                         "start orbits: 3"]
    assert "column-sum defect on the recurrent class: 1.4225465175" in lines
    assert ("newest-mask marginal range: [0.3333333333, 0.3333333333] "
            "(m/d = 0.3333333333)") in lines
    assert "mixing time (eps=0.05): 184" in lines
    # the CSV's deviation column is the API chain's curve
    curve = chains.deviation_curve(chains.build_transition_matrix("kawasaki", 6, 2, 2), 200)
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "t,deviation,bound"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        [str(t), harness._fmt(dev)] for t, dev in enumerate(curve)]


def test_analyze_chain_nonergodic_is_a_structural_failure(capsys):
    assert main(["analyze-chain", "--kind", "banlast", "--d", "2", "--m", "1", "--K", "1"]) == 4
    assert "periodic" in capsys.readouterr().err


def test_analyze_chain_refuses_a_memoryless_chain_with_too_many_masks(capsys):
    # K=0 has one state, but its one-step law spans C(30,6) = 593775 masks
    # of 30 memberships each
    assert main(["analyze-chain", "--kind", "rand", "--d", "30", "--m", "6", "--K", "0"]) == 4
    assert "exceeds cap" in capsys.readouterr().err


def test_analyze_chain_writes_deviation_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1",
                 "--K", "1", "--t-max", "20", "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].startswith("t,")
    assert len(lines) == 22


def _number(cell):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


@pytest.mark.parametrize("command", ["train", "reproduce-appendix-b", "analyze-chain",
                                     "analyze-chain-bound"])
def test_every_csv_cell_is_a_number(command, tmp_path, small_file, capsys):
    # every command's CSV through one number format: each cell below the
    # header reads back with int() or float(), never a numpy repr
    out = tmp_path / "out.csv"
    argv = {
        "train": ["train", "--config", write_cfg(tmp_path, small_file)],
        "reproduce-appendix-b": ["reproduce-appendix-b", "--trials", "50"],
        "analyze-chain": ["analyze-chain", "--kind", "kawasaki", "--d", "4", "--K", "1",
                          "--activation", "softmax", "--t-max", "20"],
        "analyze-chain-bound": ["analyze-chain", "--kind", "banlast", "--d", "4", "--K", "1",
                                "--t-max", "20"],
    }[command]
    assert main([*argv, "--output", str(out)]) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    # the appendix table ends on a commented slope row
    table = [row for row in rows if not row.startswith("# zero-intercept slope,")]
    assert table and all(row.count(",") == header.count(",") for row in table)
    for row in rows:
        for cell in row.removeprefix("# zero-intercept slope,").split(","):
            assert isinstance(_number(cell), (int, float)), (row, cell)


def test_analyze_chain_curve_csv_is_pinned(tmp_path, capsys):
    # SHA-256 of the CSV bytes, recorded when every cell went through the
    # one number format of the other commands' CSVs
    out = tmp_path / "curve.csv"
    assert main(["analyze-chain", "--kind", "kawasaki", "--d", "6", "--m", "1", "--K", "4",
                 "--t-max", "200", "--output", str(out)]) == 0
    assert "mixing time (eps=0.05): 191" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9e99f6b6f9e21fe07296fccfd39e64ddc380945168f3c8cf091809b19cd33402")


def test_appendix_b_csv_is_pinned(tmp_path, capsys):
    # SHA-256 of the whole table's bytes, its rows and slope footer alike
    out = tmp_path / "table.csv"
    assert main(["reproduce-appendix-b", "--trials", "300", "--seed", "2024",
                 "--output", str(out)]) == 0
    assert "zero-intercept slope: 0.7256" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0953d1c3b3d638bfbbd5aeb6c4da895f34074e30f0aed16feba808a44eff4248")


def _bound_deviations(monkeypatch):
    """Cuts every deviation stream at 10^4 steps, so an unchecked t_max
    fails fast instead of stepping for hours."""
    deviations = chains._deviations

    def bounded(*args):
        for _, pair in zip(range(10**4), deviations(*args)):
            yield pair
        raise AssertionError("more than 10^4 deviation steps")

    monkeypatch.setattr(chains, "_deviations", bounded)


@pytest.mark.parametrize("t_max", ["-1", "-2"])
def test_analyze_chain_rejects_a_negative_t_max(t_max, tmp_path, monkeypatch, capsys):
    _bound_deviations(monkeypatch)
    out = tmp_path / "curve.csv"
    # with and without --output
    for tail in (["--output", str(out)], []):
        assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1", "--K", "1",
                     "--t-max", t_max, *tail]) == 2
        captured = capsys.readouterr()
        assert "t_max must be >= 0" in captured.err
        assert captured.out == ""
    assert not out.exists()


def test_analyze_chain_refuses_a_t_max_above_the_step_cap(tmp_path, monkeypatch, capsys):
    _bound_deviations(monkeypatch)
    cap = chains.MIXING_STEPS_CAP
    out = tmp_path / "curve.csv"
    # with and without --output
    for tail in (["--output", str(out)], []):
        assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1", "--K", "1",
                     "--t-max", str(cap + 1), *tail]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"failure: a deviation curve to t_max={cap + 1}, exceeds cap {cap}\n")
    assert not out.exists()


def test_analyze_chain_rejects_a_nan_eps(capsys):
    assert main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1", "--K", "1",
                 "--eps", "nan"]) == 2
    assert "eps must be positive" in capsys.readouterr().err


def test_analyze_chain_solves_the_stationary_law_once(tmp_path, monkeypatch, capsys):
    calls = []
    solve = chains.stationary_distribution

    def counted(chain, *args, **kwargs):
        calls.append(chain.n_states)
        return solve(chain, *args, **kwargs)

    monkeypatch.setattr(chains, "stationary_distribution", counted)
    orbit_calls = []
    find_orbits = chains.orbit_starts

    def counted_orbits(chain, recurrent):
        orbit_calls.append(chain.n_states)
        return find_orbits(chain, recurrent)

    monkeypatch.setattr(chains, "orbit_starts", counted_orbits)
    code = main(["analyze-chain", "--kind", "banlast", "--d", "4", "--m", "1",
                 "--K", "2", "--output", str(tmp_path / "curve.csv")])
    assert code == 0
    assert calls == [16]
    # the deviation curve, the mixing time and the printed count share one
    assert orbit_calls == [16]


@pytest.mark.parametrize("command", ["train", "sweep-k", "hitting-time",
                                     "reproduce-appendix-b"])
def test_a_negative_seed_exits_2_before_any_output(command, tmp_path, small_file, capsys):
    with open(write_cfg(tmp_path, small_file), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "seed.yaml"
    cfg.write_text(text.replace("seed: 3", "seed: -1"), encoding="utf-8")
    argv = {
        "train": ["train", "--config", str(cfg)],
        "sweep-k": ["sweep-k", "--config", str(cfg), "--k", "0,1"],
        "hitting-time": ["hitting-time", "--kind", "banlast", "--d", "10", "--K", "3",
                         "--trials", "100", "--seed", "-1"],
        "reproduce-appendix-b": ["reproduce-appendix-b", "--trials", "10", "--seed", "-1"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "seed" in captured.err


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
