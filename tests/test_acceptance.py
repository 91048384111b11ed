"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines (or rely on ``pytest -v`` test outcomes, which carry the same
information).  The end-to-end criteria drive the real CLI into a temp
directory and read back the artifacts it wrote.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.stats

from selfieboost.baselines import cost, ensemble_err, run_adaboost
from selfieboost.boost import BoostConfig, SgdParams, cache_from_scores, edge
from selfieboost.cli import EXIT_BREAK, EXIT_OK, main, read_metrics_csv
from selfieboost.data import load_csv
from selfieboost.nnet import NetworkArchitecture, forward_batch, grad_check, init_network, widen
from selfieboost.sampling import SplitMix64, build_alias, sample_indices
from selfieboost.verify import (
    iteration_count_for,
    lse_inequality_deficit,
    oracle_step,
)


def report(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not failures, "; ".join(str(f) for f in failures)


@dataclass
class EndToEnd:
    root: object
    train_exit: int
    records: list
    m: int


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    """Criterion 4's dataset and training run, shared with criteria 7 and 8."""
    root = tmp_path_factory.mktemp("acceptance")
    assert main([
        "gen-data", "--m", "2000", "--d", "10", "--seed", "42", "--tau", "0.1",
        "--teacher-hidden", "4",
        "--out", str(root / "data.csv"), "--teacher-out", str(root / "teacher.json"),
    ]) == EXIT_OK
    code = main(train_argv(root, "metrics.csv", "model.json"))
    return EndToEnd(
        root=root,
        train_exit=code,
        records=read_metrics_csv(root / "metrics.csv"),
        m=2000,
    )


def train_argv(root, metrics, model, extra=()):
    return [
        "train", "--data", str(root / "data.csv"),
        "--out-model", str(root / model), "--metrics", str(root / metrics),
        "--hidden", "32", "--rho", "0.1", "--n", "256",
        "--sgd-steps", "500", "--lr", "0.05", "--batch", "32",
        "--T", "50", "--init-scale", "0", "--seed", "42",
        *extra,
    ]


def test_c1_gradient_fidelity():
    """10 random tanh + 10 random relu nets: grad_check(eps=1e-4) <= 1e-6."""
    failures = []
    rng = SplitMix64(2024)
    for activation in ("tanh", "relu"):
        for trial in range(10):
            d = 2 + int(rng.uniform() * 9)       # <= 10
            h = 1 + int(rng.uniform() * 16)      # <= 16
            net = init_network(
                NetworkArchitecture(d, (h,), activation), rng.next_u64() & 0x7FFFFFFF, 1.0
            )
            x = rng.normal_block(d)
            worst = grad_check(net, x, 1e-4)
            if worst > 1e-6:
                failures.append(f"{activation} net {trial}: {worst:.3e}")
    report(1, "gradient fidelity", failures)


def test_c2_logsumexp_smoothness():
    """10^4 random pairs with theta_i - lambda_i <= 1, dims 1..64: deficit >= -1e-9."""
    failures = []
    rng = SplitMix64(7)
    worst = math.inf
    for _ in range(10_000):
        dim = 1 + int(rng.uniform() * 64)
        scale = 10.0 ** (rng.uniform() * 2 - 1)
        theta = rng.normal_block(dim) * scale
        u = rng.uniform_block(dim)  # theta - lambda in [0, 1]
        deficit = lse_inequality_deficit(theta, theta - u)
        worst = min(worst, deficit)
    if worst < -1e-9:
        failures.append(f"worst deficit {worst:.3e}")
    report(2, "log-sum-exp smoothness", failures)


def test_c3_lemma_oracle():
    """100 random net/dataset states: oracle edge -1/2 and margin shift 1, within 1e-12."""
    failures = []
    rng = SplitMix64(31337)
    for trial in range(100):
        d = 2 + int(rng.uniform() * 6)
        h = 1 + int(rng.uniform() * 8)
        m = 5 + int(rng.uniform() * 80)
        net = init_network(NetworkArchitecture(d, (h,)), rng.next_u64() & 0x7FFFFFFF, 1.0)
        features = rng.normal_block(m * d).reshape(m, d)
        labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
        cache = cache_from_scores(forward_batch(net, features), labels)
        step = oracle_step(cache)
        rep = edge(cache, step, rho=0.1)
        if abs(rep.edge + 0.5) > 1e-12:
            failures.append(f"trial {trial}: edge {rep.edge!r}")
        if abs(rep.max_margin_diff - 1.0) > 1e-12:
            failures.append(f"trial {trial}: margin shift {rep.max_margin_diff!r}")
    report(3, "existence-witness edge", failures)


def test_c4_theorem_end_to_end(end_to_end):
    """Criterion-4 run: potential drops, chained edge bound, final error bound."""
    failures = []
    recs = end_to_end.records
    if end_to_end.train_exit not in (EXIT_OK, EXIT_BREAK):
        failures.append(f"unexpected exit code {end_to_end.train_exit}")
    for r in recs:
        if not r.potential_after <= r.potential_before - 0.1 + 1e-9:
            failures.append(f"t={r.t}: potential drop {r.potential_before - r.potential_after:.6f} < rho")
        if not r.potential_after - r.potential_before <= r.edge + 1e-9:
            failures.append(f"t={r.t}: chain broken (delta {r.potential_after - r.potential_before:.6f} > edge {r.edge:.6f})")
    k = len(recs)
    final_err = recs[-1].train_err if recs else 1.0
    if not final_err <= math.exp(-0.1 * k) + 1e-12:
        failures.append(f"err {final_err} > exp(-0.1*{k})")
    # consecutive records chain through the same potential trajectory
    for a, b in zip(recs, recs[1:]):
        if a.potential_after != b.potential_before:
            failures.append(f"t={b.t}: potential trajectory not chained")
    if end_to_end.train_exit == EXIT_OK:
        if final_err != 0.0:
            failures.append(f"exit 0 run should reach zero training error, got {final_err}")
    report(4, "end-to-end convergence", failures)


def test_c5_iteration_count_formula():
    failures = []
    if iteration_count_for(0.01, 0.1) != 47:
        failures.append(f"(0.01, 0.1) -> {iteration_count_for(0.01, 0.1)}")
    if iteration_count_for(math.exp(-1.0), 0.1) != 10:
        failures.append(f"(e^-1, 0.1) -> {iteration_count_for(math.exp(-1.0), 0.1)}")
    report(5, "iteration-count formula", failures)


def test_c6_sampler_calibration():
    """10^6 alias draws from (0.25, 0.25, 0.5) within +-0.005; chi-square over
    a random 100-bin distribution passes at significance 1e-6."""
    failures = []
    table = build_alias(np.array([0.25, 0.25, 0.5]))
    draws = sample_indices(table, 1_000_000, SplitMix64(42))
    freq = np.bincount(draws, minlength=3) / 1e6
    for i, target in enumerate((0.25, 0.25, 0.5)):
        if abs(freq[i] - target) > 0.005:
            failures.append(f"outcome {i}: frequency {freq[i]:.5f} vs {target}")

    raw = SplitMix64(777).uniform_block(100) + 0.05  # bounded away from zero
    probs = raw / raw.sum()
    probs = probs / probs.sum()
    table = build_alias(probs)
    draws = sample_indices(table, 1_000_000, SplitMix64(123))
    counts = np.bincount(draws, minlength=100)
    stat = float(np.sum((counts - 1e6 * probs) ** 2 / (1e6 * probs)))
    p_value = float(scipy.stats.chi2.sf(stat, df=99))
    if p_value < 1e-6:
        failures.append(f"chi-square p={p_value:.3e} (stat {stat:.1f})")
    report(6, "sampler calibration", failures)


def test_c7_adaboost_consistency(end_to_end):
    """Recorded run satisfies the error product bound; compare table costs."""
    failures = []
    dataset = load_csv(end_to_end.root / "data.csv")
    config = BoostConfig(hidden=(32,), sgd=SgdParams(500, 0.05, 32), n=256, T=50, seed=42)
    result = run_adaboost(dataset, config)
    bound = 1.0
    for rnd in result.rounds:
        bound *= 2.0 * math.sqrt(rnd.eps * (1.0 - rnd.eps))
    final = ensemble_err(result.model, dataset)
    if not final <= bound + 1e-9:
        failures.append(f"ensemble err {final} > product bound {bound}")
    if cost(result.model).network_evals_per_prediction != len(result.model.members):
        failures.append("cost must count one evaluation per member")

    out_csv = end_to_end.root / "compare.csv"
    code = main([
        "compare", "--data", str(end_to_end.root / "data.csv"), "--out", str(out_csv),
        "--hidden", "32", "--rho", "0.1", "--n", "256", "--sgd-steps", "500",
        "--lr", "0.05", "--batch", "32", "--T", "50", "--init-scale", "0", "--seed", "42",
    ])
    if code != EXIT_OK:
        failures.append(f"compare exit {code}")
    else:
        lines = out_csv.read_text().splitlines()
        sb, ada = lines[1].split(","), lines[2].split(",")
        if sb[0] != "selfieboost" or sb[3] != "1":
            failures.append(f"selfieboost row {lines[1]!r}")
        if ada[0] != "adaboost" or ada[3] != ada[2]:
            failures.append(f"adaboost row {lines[2]!r}")
    report(7, "ensemble baseline consistency", failures)


def test_c8_determinism(end_to_end):
    """Reruns and thread counts leave the metrics file byte-identical."""
    failures = []
    root = end_to_end.root
    assert main(train_argv(root, "metrics_again.csv", "model_again.json")) == end_to_end.train_exit
    first = (root / "metrics.csv").read_bytes()
    if (root / "metrics_again.csv").read_bytes() != first:
        failures.append("rerun changed the metrics CSV")
    code = main(train_argv(root, "metrics_t4.csv", "model_t4.json", extra=["--threads", "4"]))
    if code != end_to_end.train_exit:
        failures.append(f"threads=4 exit {code} != {end_to_end.train_exit}")
    if (root / "metrics_t4.csv").read_bytes() != first:
        failures.append("threads=4 changed the metrics CSV")
    report(8, "byte-level determinism", failures)


def test_c9_function_preserving_widening():
    """Widen by 8 units: outputs on 1000 random inputs are bit-exact."""
    failures = []
    net = init_network(NetworkArchitecture(10, (32,)), 4242, 1.0)
    wide = widen(net, 8, seed=171)
    X = SplitMix64(99).normal_block(1000 * 10).reshape(1000, 10)
    base, after = forward_batch(net, X), forward_batch(wide, X)
    if not np.array_equal(base, after):
        worst = float(np.max(np.abs(base - after)))
        failures.append(f"max output difference {worst!r}")
    report(9, "function-preserving widening", failures)
