import copy
import math

import numpy as np
import pytest

from selfieboost import boost
from selfieboost.boost import (
    BoostConfig,
    RetryPolicy,
    SgdParams,
    STOP_COMPLETED,
    STOP_NO_CANDIDATE,
    STOP_ZERO_ERROR,
    _sgd_loop,
    cache_from_scores,
    edge,
    err,
    margins,
    run_selfieboost,
    sgd_inner,
    surrogate_loss,
    surrogate_output_grad,
)
from selfieboost.data import Dataset, gen_realizable
from selfieboost.errors import ConfigError, NumericError
from selfieboost.nnet import NetworkArchitecture, forward, forward_batch, init_network
from selfieboost.sampling import SplitMix64


@pytest.fixture(scope="module")
def small_data():
    dataset, teacher = gen_realizable(300, 5, NetworkArchitecture(5, (3,)), 0.1, 7)
    return dataset, teacher


@pytest.fixture(scope="module")
def small_config():
    return BoostConfig(
        rho=0.1, T=15, n=128, sgd=SgdParams(300, 0.05, 16),
        seed=3, init_scale=0.0, hidden=(16,),
    )


@pytest.fixture(scope="module")
def small_run(small_data, small_config):
    return run_selfieboost(small_data[0], small_config)


def brute_force_edge(margins_vec, raw, labels, cand):
    """Independent loop: own softmax weights, own functional accumulation."""
    m = len(raw)
    w = [math.exp(-mv) for mv in margins_vec]
    z = sum(w)
    total = 0.0
    max_diff = -math.inf
    for i in range(m):
        d = labels[i] * (cand[i] - raw[i])
        total += (w[i] / z) * (-d + 0.5 * d * d)
        max_diff = max(max_diff, d)
    return total, max_diff


class TestMarginCache:
    def test_zero_net_uniform_weights(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (16,)), 1, 0.0)
        cache = margins(net, dataset)
        assert np.all(cache.labels * cache.raw_scores == 0.0)
        np.testing.assert_allclose(cache.probs, 1.0 / dataset.m, atol=1e-15)
        assert cache.potential == pytest.approx(math.log(dataset.m), abs=1e-12)

    def test_single_example_potential(self):
        cache = cache_from_scores(np.array([2.0]), np.array([1.0]))
        assert (cache.labels * cache.raw_scores)[0] == 2.0
        assert cache.potential == -2.0

    def test_margins_match_scalar_forward_bitwise(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (7,)), 4, 1.0)
        cache = margins(net, dataset)
        looped = np.array(
            [dataset.labels[i] * forward(net, dataset.features[i]) for i in range(dataset.m)]
        )
        np.testing.assert_array_equal(cache.labels * cache.raw_scores, looped)


class TestPotential:
    def test_zero_function_is_log_m(self):
        cache = cache_from_scores(np.zeros(8), np.ones(8))
        assert cache.potential == pytest.approx(math.log(8), abs=1e-12)

    def test_large_margins_stay_finite(self):
        cache = cache_from_scores(np.array([1000.0, 1000.0]), np.ones(2))
        assert cache.potential == pytest.approx(-1000.0 + math.log(2.0), abs=1e-9)

    def test_upper_bounds_log_mistakes(self):
        rng = SplitMix64(31)
        for _ in range(25):
            raw = rng.normal_block(80) * 3.0
            labels = np.where(rng.uniform_block(80) < 0.5, -1.0, 1.0)
            cache = cache_from_scores(raw, labels)
            wrong = sum(1 for mv in labels * raw if mv <= 0.0)  # brute-force recount
            if wrong >= 1:
                assert math.log(wrong) <= cache.potential + 1e-12


class TestMistakes:
    def test_zero_net_counts_everything(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, ()), 0, 0.0)
        assert margins(net, dataset).mistakes == dataset.m
        assert err(net, dataset) == 1.0

    def test_teacher_is_perfect_on_its_data(self, small_data):
        dataset, teacher = small_data
        assert margins(teacher, dataset).mistakes == 0
        assert err(teacher, dataset) == 0.0

    def test_matches_brute_force(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (6,)), 77, 1.0)
        count = 0
        for i in range(dataset.m):
            if dataset.labels[i] * forward(net, dataset.features[i]) <= 0.0:
                count += 1
        assert margins(net, dataset).mistakes == count
        assert err(net, dataset) * dataset.m == count


class TestSurrogate:
    def test_zero_at_warm_start(self):
        labels = np.array([1.0, -1.0])
        snap = np.array([0.25, -1.5])
        np.testing.assert_array_equal(surrogate_loss(labels, snap, snap), [0.0, 0.0])

    def test_minus_half_at_label_shift(self):
        # dyadic scores keep g - f exact
        labels = np.array([1.0, -1.0, 1.0])
        snap = np.array([0.25, -1.5, 3.0])
        np.testing.assert_array_equal(
            surrogate_loss(labels, snap, snap + labels), [-0.5, -0.5, -0.5]
        )

    def test_output_gradient_sign(self):
        # at g = f with y = +1 the derivative is -1: a step raises the score
        assert surrogate_output_grad(np.array([1.0]), np.array([0.0]), np.array([0.0]))[0] == -1.0
        assert surrogate_output_grad(np.array([-1.0]), np.array([0.0]), np.array([0.0]))[0] == 1.0


class TestSgdInner:
    def test_zero_steps_returns_candidate_unchanged(self, small_data):
        dataset, _ = small_data
        net = init_network(NetworkArchitecture(5, (4,)), 2, 1.0)
        snapshot = forward_batch(net, dataset.features)
        candidate = net.copy()
        sgd_inner(dataset, np.arange(10), snapshot, candidate, SgdParams(0, 0.1, 4), SplitMix64(0))
        for a, b in zip(candidate.weights, net.weights):
            np.testing.assert_array_equal(a, b)

    def test_single_example_moves_toward_label(self):
        dataset = Dataset(np.array([[1.0, 0.5]]), np.array([1.0]))
        net = init_network(NetworkArchitecture(2, (4,)), 5, 1.0)
        snapshot = forward_batch(net, dataset.features)
        candidate = net.copy()
        sgd_inner(dataset, np.array([0]), snapshot, candidate, SgdParams(10, 0.001, 1), SplitMix64(1))
        moved = forward(candidate, dataset.features[0]) - snapshot[0]
        assert moved > 0.0  # label +1 pulls the score up

    def test_non_finite_bias_raises(self):
        # the output bias overflows to inf while every weight and score stays finite
        net = init_network(NetworkArchitecture(1, (2,)), 0, 1.0)
        feats = np.array([[1e-200], [-1e-200]])
        with pytest.raises(NumericError, match="parameters"):
            _sgd_loop(net, feats, 2, 1.7e308, 1, SplitMix64(1), lambda pick, scores: -np.ones(len(pick)))
        assert all(np.isfinite(w).all() for w in net.weights)
        assert not np.isfinite(net.biases[-1]).all()


class TestEdge:
    def test_identity_candidate_is_rejected(self):
        cache = cache_from_scores(np.array([0.5, -0.25]), np.array([1.0, -1.0]))
        report = edge(cache, cache.raw_scores, rho=0.1)
        assert report.edge == 0.0
        assert report.max_margin_diff == 0.0
        assert not report.accepted

    def test_label_shift_hits_minus_half_and_boundary(self):
        # dyadic raw scores make g - f = y exact, so the functional is exact
        raw = np.array([0.25, -1.5, 3.0, -0.5])
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        cache = cache_from_scores(raw, labels)
        report = edge(cache, raw + labels, rho=0.1)
        assert report.edge == pytest.approx(-0.5, abs=1e-15)
        assert report.max_margin_diff == 1.0
        assert report.violation_count == 0
        assert report.accepted  # holds for any rho < 1/4

    def test_matches_brute_force_oracle(self):
        rng = SplitMix64(17)
        for _ in range(20):
            m = 40
            raw = rng.normal_block(m) * 2.0
            labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
            cand = raw + rng.normal_block(m)
            cache = cache_from_scores(raw, labels)
            report = edge(cache, cand, rho=0.1)
            oracle_edge, oracle_mmd = brute_force_edge(labels * raw, raw, labels, cand)
            assert report.edge == pytest.approx(oracle_edge, abs=1e-12)
            assert report.max_margin_diff == pytest.approx(oracle_mmd, abs=1e-15)
            assert report.accepted == (
                report.edge < -0.1
                and report.max_margin_diff <= 1.0
                and report.candidate.potential <= cache.potential - 0.1
            )

    def test_margin_drop_that_raises_the_potential_is_rejected(self):
        # weights 0.995 / 0.005; shifts d = (1, -11.6) give edge -0.1031 < -rho
        # and max shift 1, yet the potential rises by about 6.30
        raw = np.array([0.0, math.log(199.0)])
        labels = np.array([1.0, 1.0])
        cache = cache_from_scores(raw, labels)
        cand = raw + np.array([1.0, -11.6])
        report = edge(cache, cand, rho=0.1)
        assert report.edge == pytest.approx(-0.1031, abs=1e-4)
        assert report.max_margin_diff == 1.0
        assert not report.accepted
        after = math.log(math.exp(-cand[0]) + math.exp(-cand[1]))
        assert report.candidate.potential == pytest.approx(after, abs=1e-12)
        assert after - cache.potential == pytest.approx(6.30, abs=0.01)

    def test_accepted_candidates_drop_the_potential_by_rho(self):
        rng = SplitMix64(23)
        accepted = 0
        for _ in range(300):
            m = 2 + int(rng.uniform() * 6)
            raw = rng.normal_block(m) * 3.0
            labels = np.where(rng.uniform_block(m) < 0.5, -1.0, 1.0)
            # shifts up to 1 toward the label, and drops of up to 12 against it
            shift = np.where(rng.uniform_block(m) < 0.7, rng.uniform_block(m), -12.0 * rng.uniform_block(m))
            cand = raw + labels * shift
            cache = cache_from_scores(raw, labels)
            report = edge(cache, cand, rho=0.1)
            if report.accepted:
                accepted += 1
                after = math.log(math.fsum(math.exp(-y * g) for y, g in zip(labels, cand)))
                assert after <= cache.potential - 0.1 + 1e-12
        assert accepted > 0

    def test_non_finite_candidate_scores_raise(self):
        cache = cache_from_scores(np.zeros(2), np.array([1.0, -1.0]))
        with pytest.raises(NumericError):
            edge(cache, np.array([0.5, np.inf]), rho=0.1)

    def test_violation_count(self):
        cache = cache_from_scores(np.zeros(3), np.array([1.0, 1.0, -1.0]))
        report = edge(cache, np.array([2.0, 0.5, 0.0]), rho=0.1)
        assert report.violation_count == 1
        assert not report.accepted  # margin shift 2 breaks the clip


class TestBoostConfig:
    def test_rho_range_enforced(self):
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.3)
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.25)
        with pytest.raises(ConfigError):
            BoostConfig(rho=0.0)
        BoostConfig(rho=0.249)  # inside the open interval

    def test_other_validation(self):
        with pytest.raises(ConfigError):
            BoostConfig(T=-1)
        with pytest.raises(ConfigError):
            BoostConfig(n=0)
        with pytest.raises(ConfigError):
            SgdParams(lr=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(sgd_growth=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(lr_shrink=0.0)
        with pytest.raises(ConfigError):
            BoostConfig(hidden=(0,))


class TestRunSelfieboost:
    def test_zero_iterations(self, small_data):
        dataset, _ = small_data
        cfg = BoostConfig(T=0, seed=1, hidden=(8,))
        result = run_selfieboost(dataset, cfg)
        assert result.records == ()
        assert result.accepted_count == 0
        assert result.stop_reason == STOP_COMPLETED
        # the returned net is the zero function
        assert np.all(forward_batch(result.final_net, dataset.features) == 0.0)

    def test_reaches_zero_training_error(self, small_run):
        assert small_run.stop_reason == STOP_ZERO_ERROR
        assert small_run.records[-1].mistakes == 0

    def test_potential_drop_per_accepted_iteration(self, small_run, small_config):
        for rec in small_run.records:
            assert rec.potential_after <= rec.potential_before - small_config.rho + 1e-9

    def test_chained_edge_inequality(self, small_run):
        for rec in small_run.records:
            assert rec.potential_after - rec.potential_before <= rec.edge + 1e-9

    def test_error_bound_from_accepted_count(self, small_data, small_run):
        dataset, _ = small_data
        k = small_run.accepted_count
        assert err(small_run.final_net, dataset) <= math.exp(-0.1 * k) + 1e-12

    def test_potential_bounds_error_every_iteration(self, small_data, small_run):
        m = small_data[0].m
        for rec in small_run.records:
            assert rec.train_err <= math.exp(rec.potential_after) / m + 1e-12

    def test_deterministic_reruns(self, small_data, small_config, small_run):
        again = run_selfieboost(small_data[0], small_config)
        assert again.records == small_run.records
        assert again.stop_reason == small_run.stop_reason
        for a, b in zip(again.final_net.weights, small_run.final_net.weights):
            np.testing.assert_array_equal(a, b)

    def test_threads_do_not_change_records(self, small_data, small_config, small_run):
        threaded = run_selfieboost(small_data[0], small_config, threads=4)
        assert threaded.records == small_run.records

    def test_edge_always_below_threshold_on_accepted(self, small_run, small_config):
        for rec in small_run.records:
            assert rec.edge < -small_config.rho

    def test_wall_ms_zero_by_default(self, small_run):
        assert all(rec.wall_ms == 0.0 for rec in small_run.records)

    def test_recorded_run_passes_bound_check(self, small_data, small_run):
        from selfieboost.verify import bound_suite

        assert bound_suite(small_run.records, small_data[0].m, 0.1).passed

    def test_widening_escalation_grows_adopted_nets(self, small_data, small_config):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(300, 0.05, 16),
            retry=RetryPolicy(max_retries=5, sgd_growth=2.0, widen_units=4, lr_shrink=0.5),
            seed=3, init_scale=0.0, hidden=(16,),
        )
        result = run_selfieboost(small_data[0], cfg)
        assert result.accepted_count >= 2
        # at least one retried iteration adopted a widened candidate
        assert any(r.retries_used > 0 and r.widened_to > 16 for r in result.records)
        # the widened width persists into later iterations
        widths = [r.widened_to for r in result.records]
        assert widths == sorted(widths)
        assert result.final_net.architecture.hidden_layers[-1] == widths[-1]

    def test_retry_counters_follow_the_escalation(self, small_data):
        cfg = BoostConfig(
            rho=0.1, T=6, n=128, sgd=SgdParams(100, 0.05, 16),
            retry=RetryPolicy(max_retries=5, sgd_growth=1.5, widen_units=4, lr_shrink=0.5),
            seed=3, init_scale=0.0, hidden=(16,),
        )
        result = run_selfieboost(small_data[0], cfg)
        assert result.accepted_count == 6
        assert any(r.retries_used > 0 for r in result.records)
        width = 16
        for r in result.records:
            steps = 100
            for _ in range(r.retries_used):
                steps = int(math.ceil(steps * 1.5))
            assert r.sgd_steps_used == steps
            assert r.widened_to == width + 4 * r.retries_used
            width = r.widened_to

    def test_numeric_abort_leaves_the_stream_after_the_failing_step(self, monkeypatch):
        """An attempt that blows up at step k has drawn exactly (k+1) minibatches."""
        dataset, _ = gen_realizable(300, 5, NetworkArchitecture(5, (8,)), 0.1, 3)
        cfg = BoostConfig(
            T=4, n=64, hidden=(8,), sgd=SgdParams(50, 3e5, 16),
            retry=RetryPolicy(5, 1.5, 0, 1e-3), seed=1,
        )
        forward_cached, inner = boost._forward_cached, boost.sgd_inner
        calls, aborts = [0], []

        def counting_forward(*args):
            calls[0] += 1
            return forward_cached(*args)

        def checked_inner(data, working_set, snapshot, candidate, params, rng):
            fresh, calls[0] = copy.copy(rng), 0
            try:
                return inner(data, working_set, snapshot, candidate, params, rng)
            except NumericError:
                fresh.uniform_block(calls[0] * params.batch)
                assert copy.copy(rng).next_u64() == fresh.next_u64()
                aborts.append((calls[0], params.steps))
                raise

        monkeypatch.setattr(boost, "_forward_cached", counting_forward)
        monkeypatch.setattr(boost, "sgd_inner", checked_inner)
        result = run_selfieboost(dataset, cfg)
        assert [r.retries_used for r in result.records] == [4, 2, 2, 2]
        assert len(aborts) == 4 and all(c < steps for c, steps in aborts)

    def test_underflowed_lr_ends_the_run_before_an_attempt_at_lr_0(self, monkeypatch):
        dataset, _ = gen_realizable(300, 5, NetworkArchitecture(5, (4,)), 0.1, 3)
        cfg = BoostConfig(
            T=5, n=64, hidden=(8,), sgd=SgdParams(lr=0.4), retry=RetryPolicy(lr_shrink=5e-324),
        )
        step, lrs = boost.sgd_step, []

        def recording_step(net, grads, lr):
            lrs.append(lr)
            step(net, grads, lr)

        monkeypatch.setattr(boost, "sgd_step", recording_step)
        result = run_selfieboost(dataset, cfg)
        assert result.stop_reason == STOP_NO_CANDIDATE
        assert result.records == ()
        assert lrs == [0.4] * 500  # one attempt: it violates the clip, and 0.4 * 5e-324 is 0

    def test_acceptance_soundness_replay(self, small_data, small_config):
        """Manually replay one iteration and recheck adoption with the oracle."""
        dataset, _ = small_data
        from selfieboost.boost import _initial_net
        from selfieboost.sampling import build_alias, derive_seed, sample_indices

        net = _initial_net(
            NetworkArchitecture(5, (16,)), derive_seed(small_config.seed, 0), 0.0
        )
        scores = forward_batch(net, dataset.features)
        cache = cache_from_scores(scores, dataset.labels)
        table = build_alias(cache.probs)
        rng_sets = SplitMix64(derive_seed(small_config.seed, 1))
        rng_sgd = SplitMix64(derive_seed(small_config.seed, 2))
        steps, lr = small_config.sgd.steps, small_config.sgd.lr
        for _ in range(small_config.retry.max_retries + 1):
            working = sample_indices(table, 128, rng_sets)
            candidate = net.copy()
            sgd_inner(dataset, working, scores, candidate, SgdParams(steps, lr, 16), rng_sgd)
            cand_scores = forward_batch(candidate, dataset.features)
            report = edge(cache, cand_scores, small_config.rho)
            if report.accepted:
                oracle_edge, oracle_mmd = brute_force_edge(
                    dataset.labels * scores, scores, dataset.labels, cand_scores
                )
                assert oracle_edge < -small_config.rho + 1e-12
                assert oracle_mmd <= 1.0 + 1e-12
                break
            steps = int(np.ceil(steps * small_config.retry.sgd_growth))
            if report.violation_count > 0:
                lr *= small_config.retry.lr_shrink
        else:
            pytest.fail("no accepted candidate in the replayed iteration")
