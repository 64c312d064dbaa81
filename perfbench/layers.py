"""Per-layer metrics, derived from a traced run's spans and counters.

Each entry of ``LAYER_METRICS`` names one metric of BENCHMARK.json's
``per_layer`` list. A layer that does no work on a workload reports 0.
"""

import numpy as np


def _coords_sent(result, args, counters):
    # the CSV counts 32-bit coordinate units, so natural's 9-bit entries
    # count for 9/32 each
    counters["coords_sent"] += result[1] * args["self"].bits_per_coord / 32.0


def _transition_matrix(result, args, counters):
    counters["states_enumerated"] += result.n_states
    counters["P_nonzeros"] += int(np.count_nonzero(result.P))
    counters["P_cells"] += result.n_states ** 2


def _stationary(result, args, counters):
    counters["stationary_iterations"] += result.iterations
    counters["recurrent_states"] += len(result.recurrent)
    counters["stationary_states"] += args["chain"].n_states


def _add(key, value):
    def observe(result, args, counters):
        counters[key] += value(result, args)
    return observe


OBSERVERS = {
    "compressors.Compressor.compress": _coords_sent,
    "harness.trace_to_csv": _add("csv_bytes", lambda r, a: len(r.encode())),
    "optimizers.run_training": _add("rounds", lambda r, a: r.rows - 1),
    "chain_analysis.build_transition_matrix": _transition_matrix,
    "chain_analysis.stationary_distribution": _stationary,
    "chain_analysis.mixing_time": _add("mixing_steps", lambda r, a: r),
    "chain_analysis.monte_carlo_hitting_time": _add("mc_draws", lambda r, a: r[0] * a["trials"]),
}

STEPS = ("optimizers.mqsgd_step", "optimizers.amqsgd_step", "optimizers.diana_step")
LAW = ("compressors.banlast_probabilities", "compressors.kawasaki_probabilities")
MODULES = ("kernels", "compressors", "objectives", "optimizers", "harness", "chain_analysis")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, formula_gap_max):
    """name -> value for every per-layer metric except the trace.* ones."""
    tot = tracer.totals()
    c = tracer.counters

    def calls(name):
        return tot[name][0] if name in tot else 0

    def incl(name):
        return tot[name][1] if name in tot else 0.0

    def own(*names):
        return sum(tot[n][2] for n in names if n in tot)

    experiments = calls("harness.run_experiment")
    out = {
        "kernels.step_mask.calls": calls("kernels.step_mask"),
        "kernels.step_mask.self_s": own("kernels.step_mask"),
        "kernels.simulate_hitting_times.self_s": own("kernels.simulate_hitting_times"),
        "compressors.compress.calls": calls("compressors.Compressor.compress"),
        "compressors.compress.self_s": own("compressors.Compressor.compress"),
        "compressors.sparsify.self_s": own("compressors.sparsify"),
        "compressors.natural_compress.self_s": own("compressors.natural_compress"),
        "compressors.coords_sent": c["coords_sent"],
        "compressors.law.self_s": own(*LAW),
        "objectives.loss_and_gradient.calls": calls("objectives.loss_and_gradient"),
        "objectives.loss_and_gradient.self_s": own("objectives.loss_and_gradient"),
        # base: training rounds, summed over the run_training calls
        "objectives.grad_evals_per_iter": _ratio(
            tracer.calls_within("optimizers.run_training", "objectives.loss_and_gradient"),
            c["rounds"]),
        "objectives.full_loss_grad.calls": calls("objectives.ShardedProblem.full_loss_grad"),
        "objectives.load_libsvm.s": incl("objectives.load_libsvm"),
        "objectives.partition.s": incl("objectives.partition"),
        "optimizers.step.self_s": own(*STEPS),
        "optimizers.run_training.self_s": own("optimizers.run_training"),
        "optimizers.reference_minimizer.s": incl("optimizers.reference_minimizer"),
        "optimizers.reference_minimizer.grad_evals": tracer.calls_within(
            "optimizers.reference_minimizer", "objectives.ShardedProblem.full_loss_grad"),
        "harness.build_problem.calls": calls("harness.build_problem"),
        "harness.build_problem.s": incl("harness.build_problem"),
        # every run_experiment that did not call reference_minimizer reused a reference
        "harness.reference_hit_ratio": _ratio(
            experiments - calls("optimizers.reference_minimizer"), experiments),
        "harness.trace_to_csv.s": incl("harness.trace_to_csv"),
        "harness.csv_bytes": c["csv_bytes"],
        "chain_analysis.build_transition_matrix.s": incl("chain_analysis.build_transition_matrix"),
        "chain_analysis.states_enumerated": c["states_enumerated"],
        "chain_analysis.sequential_mask_law.calls": calls("chain_analysis.sequential_mask_law"),
        "chain_analysis.reachable_ratio": _ratio(c["recurrent_states"], c["stationary_states"]),
        "chain_analysis.P_density": _ratio(c["P_nonzeros"], c["P_cells"]),
        "chain_analysis.recurrent_class.s": incl("chain_analysis.recurrent_class"),
        "chain_analysis.stationary_distribution.calls": calls("chain_analysis.stationary_distribution"),
        "chain_analysis.stationary_distribution.s": incl("chain_analysis.stationary_distribution"),
        "chain_analysis.stationary_distribution.iterations": c["stationary_iterations"],
        "chain_analysis.mixing_time.self_s": own("chain_analysis.mixing_time"),
        "chain_analysis.mixing_time.steps": c["mixing_steps"],
        "chain_analysis.monte_carlo_hitting_time.s": incl("chain_analysis.monte_carlo_hitting_time"),
        "chain_analysis.monte_carlo_hitting_time.draws": c["mc_draws"],
        "chain_analysis.formula_vs_mc_gap_max": formula_gap_max,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = own(*(n for n in tot if n.startswith(module + ".")))
    return out
